(** Client side of the [gofree-rpc-v2] protocol — what [gofreec client]
    and the benches speak. *)

module Json = Gofree_obs.Json

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type t = { fd : Unix.file_descr; rd : Rpc.reader; mutable next_id : int }

(** Connect to a serving daemon.  Raises {!Error} when nothing listens
    on [socket]. *)
let connect ~socket : t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> { fd; rd = Rpc.reader fd; next_id = 1 }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    fail "cannot connect to %s: %s" socket (Unix.error_message e)

let close (t : t) = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Raw write used by the batch path: the line is sent verbatim so even
   intentionally malformed inputs reach the server unchanged. *)
let write_string (fd : Unix.file_descr) (s : string) : unit =
  let len = String.length s in
  let rec push off =
    if off < len then begin
      let n =
        try Unix.write_substring fd s off (len - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      push (off + n)
    end
  in
  push 0

let send_line (t : t) (line : string) : unit =
  match write_string t.fd (line ^ "\n") with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    fail "connection lost while sending: %s" (Unix.error_message e)

(** Next response line, parsed; [None] when the server closed the
    connection. *)
let recv (t : t) : Json.t option =
  match Rpc.read_line t.rd with
  | None -> None
  | Some line -> begin
    match Json.parse line with
    | j -> Some j
    | exception Json.Parse_error m -> fail "bad response line: %s" m
  end

(** Send [request] (an {!Rpc.request}), wait for its response, return
    the response document.  Ids are assigned per connection; a response
    with a different id (out-of-order completion of a pipelined peer)
    is a protocol error here, since this helper never pipelines.
    [deadline_ms] asks the daemon to time the request out rather than
    execute it if it queues longer than that. *)
let rpc ?deadline_ms (t : t) (request : Rpc.request) : Json.t =
  let id = Json.Int t.next_id in
  t.next_id <- t.next_id + 1;
  (match
     Rpc.write_line t.fd (Rpc.request_to_json ~id ?deadline_ms request)
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    fail "connection lost while sending: %s" (Unix.error_message e));
  match recv t with
  | None -> fail "server closed the connection before responding"
  | Some response ->
    if Json.member "id" response <> Some id then
      fail "response id mismatch (unexpected pipelining?)";
    response

(** [rpc], unwrapping the envelope: [Ok result] or [Error (code, msg)]. *)
let call ?deadline_ms (t : t) (request : Rpc.request) :
    (Json.t, string * string) result =
  let response = rpc ?deadline_ms t request in
  match Json.member "ok" response with
  | Some (Json.Bool true) -> begin
    match Json.member "result" response with
    | Some r -> Ok r
    | None -> fail "ok response without result"
  end
  | Some (Json.Bool false) -> begin
    match Json.member "error" response with
    | Some e ->
      Error
        ( (try Json.get_string "code" e with _ -> "unknown"),
          try Json.get_string "message" e with _ -> "unknown" )
    | None -> fail "error response without error object"
  end
  | _ -> fail "response without \"ok\" field"

(** One-shot convenience: connect, call, close. *)
let call_once ~socket (request : Rpc.request) :
    (Json.t, string * string) result =
  let t = connect ~socket in
  Fun.protect ~finally:(fun () -> close t) (fun () -> call t request)
