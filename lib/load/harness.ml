(** The load harness proper: virtual clients driving a live daemon.

    {!run} connects [clients] virtual clients to a serving daemon and
    replays each one's deterministic {!Schedule} until the duration
    elapses: closed-loop clients issue the next request as soon as the
    previous response lands, open-loop clients send on schedule with
    pipelining (responses correlate by id on a receiver thread), and
    churn events drop the connection abruptly mid-stream — exercising
    the daemon's cancellation path — before re-dialing.

    Every response is classified ([ok] | [error] | [overloaded] |
    [timed_out]); latencies are recorded per request kind for the [ok]
    responses (the population the SLO speaks about), and the stable part
    of each result (program output and metrics for [run], insertions for
    [analyze]/[build], the diagnostics document for [explain]) is
    digest-checked across every response of the same (kind, workload) —
    load must change {e when} you are served, never {e what}.

    The product is one [gofree-load-v1] JSON document: offered vs
    achieved RPS, p50/p95/p99/max latency overall and per kind,
    shed/timeout/error/drop counts, the reasons of the first failures
    (hard-error responses, refused connections, dropped requests), the
    consistency verdict, and the SLO assertions of {!violations} —
    violations make [gofreec load] exit nonzero, which is what the CI
    gate runs. *)

module Json = Gofree_obs.Json
module Schema = Gofree_obs.Schema
module Client = Gofree_server.Client
module Rpc = Gofree_server.Rpc
module Stats = Gofree_stats.Stats
module W = Gofree_workloads.Workloads

let now_s () = Unix.gettimeofday ()
let now_ms () = Unix.gettimeofday () *. 1000.

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = {
  socket : string;
  clients : int;
  arrival : Schedule.arrival;  (** rates are per {e client} *)
  duration_s : float;
  mix : Mix.t;
  churn : float;  (** per-request reconnect probability *)
  seed : int;
  scale : int;  (** workload size, percent of each default *)
  deadline_ms : int option;  (** sent as the requests' [deadline_ms] *)
  build_dir : string option;  (** target of [build] mix terms *)
  slo_p99_ms : float option;
}

let default_config ~socket =
  {
    socket;
    clients = 4;
    arrival = Schedule.Closed;
    duration_s = 5.0;
    mix = Mix.default;
    churn = 0.0;
    seed = 0;
    scale = 100;
    deadline_ms = None;
    build_dir = None;
    slo_p99_ms = None;
  }

(** The per-client rate [r] such that [clients] clients offer
    [total_rps] together. *)
let per_client_rate ~clients total_rps =
  if clients <= 0 then total_rps else total_rps /. float_of_int clients

let validate (cfg : config) : (unit, string) result =
  if cfg.clients < 1 then Error "clients must be >= 1"
  else if cfg.duration_s <= 0.0 then Error "duration must be positive"
  else if Mix.total cfg.mix = 0 then Error "mix has zero total weight"
  else if Mix.weight cfg.mix Mix.Build > 0 && cfg.build_dir = None then
    Error "mix includes build requests but no --build-dir was given"
  else Ok ()

(* ---------------------------------------------------------------- *)
(* Request targets                                                   *)
(* ---------------------------------------------------------------- *)

type target = { tg_name : string; tg_source : string }

(** The six paper workloads at [scale]% of their default sizes, sources
    precomputed once so the harness threads never regenerate them. *)
let targets ~scale : target array =
  Array.of_list
    (List.map
       (fun w ->
         let size = max 1 (w.W.w_default_size * scale / 100) in
         { tg_name = w.W.w_name; tg_source = W.source_of ~size w })
       W.all)

let workload_name (cfg : config) (targets : target array)
    (kind : Mix.kind) (idx : int) : string =
  match kind with
  | Mix.Build -> Option.value cfg.build_dir ~default:"-"
  | Mix.Stats -> "-"
  | Mix.Analyze | Mix.Run | Mix.Explain -> targets.(idx).tg_name

let request_of_event (cfg : config) (targets : target array)
    (ev : Schedule.event) : Rpc.request =
  let src = Rpc.Inline targets.(ev.Schedule.ev_workload).tg_source in
  let config = Gofree_api.Preset.(to_config default) in
  match ev.Schedule.ev_kind with
  | Mix.Analyze -> Rpc.Analyze { src; config; explain = false }
  | Mix.Run ->
    Rpc.Run { src; config; options = Gofree_api.default_run_options }
  | Mix.Explain -> Rpc.Explain { src; config }
  | Mix.Build ->
    Rpc.Build
      {
        dir = Option.get cfg.build_dir;
        config;
        force = false;
        run = false;
        cache_dir = None;
        options = Gofree_api.default_run_options;
      }
  | Mix.Stats -> Rpc.Stats

(* The part of a result that must not depend on server load: what is
   computed, never how long it took or whether a cache served it.  The
   run metrics are deterministic counters except [gc_time_ns], which is
   wall time spent in mark+sweep — stripped before hashing. *)
let stable_digest (kind : Mix.kind) (result : Json.t) : string option =
  let rec strip_times = function
    | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "gc_time_ns" then None else Some (k, strip_times v))
           fields)
    | Json.List l -> Json.List (List.map strip_times l)
    | j -> j
  in
  let pick keys =
    let fields =
      List.filter_map
        (fun k ->
          Option.map (fun v -> (k, strip_times v)) (Json.member k result))
        keys
    in
    Some (Digest.to_hex (Digest.string (Json.to_string (Json.Obj fields))))
  in
  match kind with
  | Mix.Analyze -> pick [ "functions"; "insertions" ]
  | Mix.Explain -> pick [ "explain" ]
  | Mix.Run -> pick [ "output"; "metrics" ]
  | Mix.Build -> pick [ "insertions" ]
  | Mix.Stats -> None

(* ---------------------------------------------------------------- *)
(* Recorder                                                          *)
(* ---------------------------------------------------------------- *)

type recorder = {
  r_mutex : Mutex.t;
  mutable r_sent : int;
  mutable r_ok : int;
  mutable r_errors : int;
  mutable r_shed : int;
  mutable r_timed_out : int;
  mutable r_dropped : int;  (** sent, response never seen *)
  mutable r_reconnects : int;
  mutable r_connect_failures : int;
  r_lat_by_kind : (string, float list ref) Hashtbl.t;  (** ok only, ms *)
  mutable r_lat_all : float list;
  r_digests : (string, string) Hashtbl.t;  (** kind:workload → digest *)
  mutable r_mismatches : string list;
  mutable r_failures : int;  (** hard errors, connect failures and drops *)
  mutable r_samples : Json.t list;
      (** the first {!max_failure_samples} failures, newest first *)
}

(* Failures whose reasons the report keeps: enough to classify a rare
   failure the first time it happens, bounded under a failure storm. *)
let max_failure_samples = 16

let recorder () =
  {
    r_mutex = Mutex.create ();
    r_sent = 0;
    r_ok = 0;
    r_errors = 0;
    r_shed = 0;
    r_timed_out = 0;
    r_dropped = 0;
    r_reconnects = 0;
    r_connect_failures = 0;
    r_lat_by_kind = Hashtbl.create 8;
    r_lat_all = [];
    r_digests = Hashtbl.create 64;
    r_mismatches = [];
    r_failures = 0;
    r_samples = [];
  }

let locked (r : recorder) f =
  Mutex.lock r.r_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.r_mutex) f

(* Count one failure and keep its reason while there is room; [what] is
   [error], [connect] or [drop].  Called with the recorder locked. *)
let add_failure (r : recorder) what fields =
  r.r_failures <- r.r_failures + 1;
  if r.r_failures <= max_failure_samples then
    r.r_samples <- Json.Obj (("failure", Json.Str what) :: fields) :: r.r_samples

let record_response (cfg : config) (targets : target array) (r : recorder)
    ~(kind : Mix.kind) ~(wl : int) ~(lat_ms : float) (resp : Json.t) : unit
    =
  let ok = Json.member "ok" resp = Some (Json.Bool true) in
  let error_field name =
    match Json.member "error" resp with
    | Some e -> ( try Json.get_string name e with _ -> "unknown")
    | None -> "unknown"
  in
  if not ok then
    locked r (fun () ->
        match error_field "code" with
        | "overloaded" -> r.r_shed <- r.r_shed + 1
        | "timed_out" -> r.r_timed_out <- r.r_timed_out + 1
        | code ->
          r.r_errors <- r.r_errors + 1;
          add_failure r "error"
            [
              ("method", Json.Str (Mix.kind_name kind));
              ("code", Json.Str code);
              ("message", Json.Str (error_field "message"));
            ])
  else begin
    let digest =
      match Json.member "result" resp with
      | Some result -> stable_digest kind result
      | None -> None
    in
    let key =
      Mix.kind_name kind ^ ":" ^ workload_name cfg targets kind wl
    in
    locked r (fun () ->
        r.r_ok <- r.r_ok + 1;
        r.r_lat_all <- lat_ms :: r.r_lat_all;
        let per_kind =
          match Hashtbl.find_opt r.r_lat_by_kind (Mix.kind_name kind) with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace r.r_lat_by_kind (Mix.kind_name kind) l;
            l
        in
        per_kind := lat_ms :: !per_kind;
        match digest with
        | None -> ()
        | Some d -> begin
          match Hashtbl.find_opt r.r_digests key with
          | None -> Hashtbl.replace r.r_digests key d
          | Some d' when d' = d -> ()
          | Some _ ->
            if not (List.mem key r.r_mismatches) then
              r.r_mismatches <- key :: r.r_mismatches
        end)
  end

(* ---------------------------------------------------------------- *)
(* Virtual clients                                                   *)
(* ---------------------------------------------------------------- *)

type vclient = {
  v_idx : int;
  v_cfg : config;
  v_targets : target array;
  v_rec : recorder;
  v_gen : Schedule.gen;
  v_deadline : float;  (** absolute, seconds *)
  v_mutex : Mutex.t;
  v_outstanding : (int, float * Mix.kind * int) Hashtbl.t;
      (** id → send time (ms), kind, workload *)
  mutable v_conn : Client.t option;
  mutable v_recv : Thread.t option;
  mutable v_recv_end : string option;
      (** why the receiver stopped, once it has *)
  mutable v_next_id : int;
}

let outstanding (v : vclient) =
  Mutex.lock v.v_mutex;
  let n = Hashtbl.length v.v_outstanding in
  Mutex.unlock v.v_mutex;
  n

(* Receiver for one connection's lifetime: correlate responses to sends
   by id, record, exit on EOF or a torn-down socket. *)
let receiver (v : vclient) (c : Client.t) () =
  let rec loop () =
    match Client.recv c with
    | None -> v.v_recv_end <- Some "connection closed by the daemon"
    | exception e -> v.v_recv_end <- Some (Printexc.to_string e)
    | Some resp ->
      let id =
        match Json.member "id" resp with
        | Some (Json.Int i) -> i
        | _ -> -1
      in
      Mutex.lock v.v_mutex;
      let entry = Hashtbl.find_opt v.v_outstanding id in
      Hashtbl.remove v.v_outstanding id;
      Mutex.unlock v.v_mutex;
      (match entry with
      | None -> ()
      | Some (t_send, kind, wl) ->
        record_response v.v_cfg v.v_targets v.v_rec ~kind ~wl
          ~lat_ms:(now_ms () -. t_send)
          resp);
      loop ()
  in
  loop ()

(** Poll until this client's in-flight requests are all answered, or
    [until] (absolute seconds) passes. *)
let wait_outstanding (v : vclient) ~until =
  while outstanding v > 0 && now_s () < until do
    Thread.delay 0.002
  done

(* Tear the connection down, possibly with responses still owed (the
   churn model, and what makes the daemon's cancellation path real);
   otherwise the caller has already drained.  Whatever is still
   outstanding is recorded as dropped, with the reason: why the
   receiver had already stopped, else [why]. *)
let drop_conn ?(why = "connection closed by the client") (v : vclient) =
  match v.v_conn with
  | None -> ()
  | Some c ->
    let why = Option.value v.v_recv_end ~default:why in
    (try Unix.shutdown c.Client.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Client.close c;
    (match v.v_recv with Some t -> Thread.join t | None -> ());
    Mutex.lock v.v_mutex;
    let leftover = Hashtbl.length v.v_outstanding in
    Hashtbl.reset v.v_outstanding;
    Mutex.unlock v.v_mutex;
    if leftover > 0 then
      locked v.v_rec (fun () ->
          v.v_rec.r_dropped <- v.v_rec.r_dropped + leftover;
          add_failure v.v_rec "drop"
            [ ("requests", Json.Int leftover); ("message", Json.Str why) ]);
    v.v_conn <- None;
    v.v_recv <- None;
    v.v_recv_end <- None

(** [true] iff a connection is up (possibly freshly dialed). *)
let ensure_conn (v : vclient) : bool =
  match v.v_conn with
  | Some _ -> true
  | None -> begin
    match Client.connect ~socket:v.v_cfg.socket with
    | c ->
      v.v_conn <- Some c;
      v.v_recv <- Some (Thread.create (receiver v c) ());
      true
    | exception (Client.Error _ as e) ->
      locked v.v_rec (fun () ->
          v.v_rec.r_connect_failures <- v.v_rec.r_connect_failures + 1;
          add_failure v.v_rec "connect"
            [ ("message", Json.Str (Printexc.to_string e)) ]);
      false
  end

let send_event (v : vclient) (ev : Schedule.event) : unit =
  match v.v_conn with
  | None -> ()
  | Some c ->
    let id = v.v_next_id in
    v.v_next_id <- id + 1;
    let line =
      Json.to_string
        (Rpc.request_to_json ~id:(Json.Int id)
           ?deadline_ms:v.v_cfg.deadline_ms
           (request_of_event v.v_cfg v.v_targets ev))
    in
    Mutex.lock v.v_mutex;
    Hashtbl.replace v.v_outstanding id
      (now_ms (), ev.Schedule.ev_kind, ev.Schedule.ev_workload);
    Mutex.unlock v.v_mutex;
    (match Client.send_line c line with
    | () -> locked v.v_rec (fun () -> v.v_rec.r_sent <- v.v_rec.r_sent + 1)
    | exception (Client.Error _ as e) ->
      Mutex.lock v.v_mutex;
      Hashtbl.remove v.v_outstanding id;
      Mutex.unlock v.v_mutex;
      drop_conn ~why:(Printexc.to_string e) v)

let vclient_main (v : vclient) () =
  let closed_loop = v.v_cfg.arrival = Schedule.Closed in
  (* open loop: stagger the clients' first arrivals uniformly across one
     mean gap so N clients do not fire as one synchronized burst *)
  let next_due = ref (now_s ()) in
  (match v.v_cfg.arrival with
  | Schedule.Closed -> ()
  | Schedule.Poisson rps | Schedule.Uniform rps ->
    if rps > 0.0 then
      next_due :=
        !next_due
        +. (float_of_int v.v_idx /. float_of_int v.v_cfg.clients /. rps));
  let rec step () =
    if now_s () < v.v_deadline then begin
      let ev = Schedule.next v.v_gen in
      if ev.Schedule.ev_reconnect && v.v_conn <> None then begin
        (* churn: abrupt, mid-stream — in-flight responses are lost *)
        drop_conn v;
        locked v.v_rec (fun () ->
            v.v_rec.r_reconnects <- v.v_rec.r_reconnects + 1)
      end;
      if ensure_conn v then begin
        if not closed_loop then begin
          next_due := !next_due +. (ev.Schedule.ev_gap_ms /. 1000.0);
          let pause = !next_due -. now_s () in
          if pause > 0.0 then Thread.delay pause
        end;
        if now_s () < v.v_deadline then begin
          send_event v ev;
          if closed_loop then
            wait_outstanding v ~until:(v.v_deadline +. 5.0)
        end;
        step ()
      end
      (* connect refused: back off briefly, then keep trying until the
         deadline — the daemon may be mid-restart *)
      else begin
        Thread.delay 0.05;
        step ()
      end
    end
  in
  step ();
  (* drain what is still in flight, then leave *)
  wait_outstanding v ~until:(v.v_deadline +. 5.0);
  drop_conn v

(* ---------------------------------------------------------------- *)
(* Report                                                            *)
(* ---------------------------------------------------------------- *)

let summary_json (s : Stats.latency_summary) : Json.t =
  Json.Obj
    [
      ("count", Json.Int s.Stats.ls_count);
      ("p50_ms", Json.Float s.Stats.ls_p50_ms);
      ("p95_ms", Json.Float s.Stats.ls_p95_ms);
      ("p99_ms", Json.Float s.Stats.ls_p99_ms);
      ("max_ms", Json.Float s.Stats.ls_max_ms);
    ]

let latency_summary (xs : float list) : Json.t =
  match Stats.latency_summary (Array.of_list xs) with
  | None -> Json.Obj [ ("count", Json.Int 0) ]
  | Some s -> summary_json s

(** The overall latency ladder back out of a report, for callers that
    only have the JSON (the [gofreec load] stderr line). *)
let report_latency_summary (report : Json.t) : Stats.latency_summary option
    =
  match Json.member "latency_ms" report with
  | None -> None
  | Some lats -> begin
    match Json.member "all" lats with
    | Some all -> begin
      match
        ( Json.member "count" all,
          Json.member "p50_ms" all,
          Json.member "p95_ms" all,
          Json.member "p99_ms" all,
          Json.member "max_ms" all )
      with
      | Some (Json.Int count), Some p50, Some p95, Some p99, Some mx ->
        let f j = Option.value (Json.to_float_opt j) ~default:0.0 in
        Some
          {
            Stats.ls_count = count;
            ls_p50_ms = f p50;
            ls_p95_ms = f p95;
            ls_p99_ms = f p99;
            ls_max_ms = f mx;
          }
      | _ -> None
    end
    | None -> None
  end

let arrival_json ~clients : Schedule.arrival -> Json.t = function
  | Schedule.Closed -> Json.Obj [ ("model", Json.Str "closed") ]
  | Schedule.Poisson rps ->
    Json.Obj
      [
        ("model", Json.Str "poisson");
        ("rate_rps_per_client", Json.Float rps);
        ("rate_rps_total", Json.Float (rps *. float_of_int clients));
      ]
  | Schedule.Uniform rps ->
    Json.Obj
      [
        ("model", Json.Str "uniform");
        ("rate_rps_per_client", Json.Float rps);
        ("rate_rps_total", Json.Float (rps *. float_of_int clients));
      ]

let config_json (cfg : config) : Json.t =
  Json.Obj
    ([
       ("socket", Json.Str cfg.socket);
       ("clients", Json.Int cfg.clients);
       ("arrival", arrival_json ~clients:cfg.clients cfg.arrival);
       ("duration_s", Json.Float cfg.duration_s);
       ("mix", Mix.to_json cfg.mix);
       ("churn", Json.Float cfg.churn);
       ("seed", Json.Int cfg.seed);
       ("scale_pct", Json.Int cfg.scale);
     ]
    @ (match cfg.deadline_ms with
      | Some d -> [ ("deadline_ms", Json.Int d) ]
      | None -> [])
    @
    match cfg.build_dir with
    | Some d -> [ ("build_dir", Json.Str d) ]
    | None -> [])

(** The SLO verdict: every violated assertion, in English.  Shed and
    timed-out responses are {e not} violations — they are the graceful
    degradation the harness exists to demonstrate; hard errors,
    inconsistent outputs, a missed p99 and an all-failure run are. *)
let violations ~(cfg : config) (r : recorder) : string list =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun m -> v := m :: !v) fmt in
  if r.r_ok = 0 then add "no successful responses";
  if r.r_errors > 0 then add "%d hard error responses" r.r_errors;
  if r.r_mismatches <> [] then
    add "outputs not byte-identical under load: %s"
      (String.concat ", " (List.sort compare r.r_mismatches));
  (match cfg.slo_p99_ms with
  | Some slo when r.r_lat_all <> [] ->
    let p99 =
      Stats.percentile 99.0 (Array.of_list r.r_lat_all)
    in
    if p99 > slo then add "p99 %.1fms exceeds SLO %.1fms" p99 slo
  | Some _ -> ()  (* no-ok-responses already reported *)
  | None -> ());
  List.rev !v

let report ~(cfg : config) ~(elapsed_s : float) (r : recorder) : Json.t =
  let rps n = if elapsed_s > 0.0 then float_of_int n /. elapsed_s else 0.0 in
  let by_kind =
    Hashtbl.fold
      (fun kind lats acc -> (kind, latency_summary !lats) :: acc)
      r.r_lat_by_kind []
    |> List.sort compare
  in
  let viols = violations ~cfg r in
  Json.Obj
    [
      Schema.field Schema.Load;
      ("config", config_json cfg);
      ("elapsed_s", Json.Float elapsed_s);
      ( "offered",
        Json.Obj
          [ ("requests", Json.Int r.r_sent); ("rps", Json.Float (rps r.r_sent)) ]
      );
      ( "achieved",
        Json.Obj
          [
            ("ok", Json.Int r.r_ok);
            ("rps", Json.Float (rps r.r_ok));
            ("errors", Json.Int r.r_errors);
            ("shed", Json.Int r.r_shed);
            ("timed_out", Json.Int r.r_timed_out);
            ("dropped", Json.Int r.r_dropped);
            ("reconnects", Json.Int r.r_reconnects);
            ("connect_failures", Json.Int r.r_connect_failures);
          ] );
      ( "latency_ms",
        Json.Obj
          [
            ("all", latency_summary r.r_lat_all);
            ("by_kind", Json.Obj by_kind);
          ] );
      ( "failures",
        Json.Obj
          [
            ("count", Json.Int r.r_failures);
            ("samples", Json.List (List.rev r.r_samples));
          ] );
      ( "consistency",
        Json.Obj
          [
            ("outputs_identical", Json.Bool (r.r_mismatches = []));
            ( "mismatches",
              Json.List
                (List.map
                   (fun k -> Json.Str k)
                   (List.sort compare r.r_mismatches)) );
          ] );
      ( "slo",
        Json.Obj
          ((match cfg.slo_p99_ms with
           | Some s -> [ ("p99_ms", Json.Float s) ]
           | None -> [])
          @ [
              ("ok", Json.Bool (viols = []));
              ( "violations",
                Json.List (List.map (fun m -> Json.Str m) viols) );
            ]) );
    ]

(** The report's SLO verdict, for callers that only have the JSON. *)
let slo_ok (report : Json.t) : bool =
  match Json.member "slo" report with
  | Some slo -> Json.member "ok" slo = Some (Json.Bool true)
  | None -> false

(* ---------------------------------------------------------------- *)
(* Entry points                                                      *)
(* ---------------------------------------------------------------- *)

(** Drive the daemon at [cfg.socket]; returns the [gofree-load-v1]
    report.  [Error] is reserved for configurations that cannot run at
    all — a failing SLO is a {e report} with [slo.ok = false]. *)
let run (cfg : config) : (Json.t, string) result =
  match validate cfg with
  | Error m -> Error m
  | Ok () ->
    let targets = targets ~scale:cfg.scale in
    let r = recorder () in
    let t0 = now_s () in
    let deadline = t0 +. cfg.duration_s in
    let vclients =
      List.init cfg.clients (fun idx ->
          {
            v_idx = idx;
            v_cfg = cfg;
            v_targets = targets;
            v_rec = r;
            v_gen =
              Schedule.make ~seed:cfg.seed ~client:idx ~mix:cfg.mix
                ~workloads:(Array.length targets) ~churn:cfg.churn
                ~arrival:cfg.arrival;
            v_deadline = deadline;
            v_mutex = Mutex.create ();
            v_outstanding = Hashtbl.create 32;
            v_conn = None;
            v_recv = None;
            v_recv_end = None;
            v_next_id = 1;
          })
    in
    let threads =
      List.map (fun v -> Thread.create (vclient_main v) ()) vclients
    in
    List.iter Thread.join threads;
    let elapsed = now_s () -. t0 in
    Ok (report ~cfg ~elapsed_s:elapsed r)

(** The deterministic schedule the run {e would} replay: the first
    [events] events of every client, no daemon required.  Two calls with
    equal configs are byte-identical — the seeded-determinism contract
    [gofreec load --dry-run] and its test check. *)
let dry_run (cfg : config) ~(events : int) : (Json.t, string) result =
  match validate cfg with
  | Error m -> Error m
  | Ok () ->
    let targets = targets ~scale:cfg.scale in
    let clients =
      List.init cfg.clients (fun idx ->
          let gen =
            Schedule.make ~seed:cfg.seed ~client:idx ~mix:cfg.mix
              ~workloads:(Array.length targets) ~churn:cfg.churn
              ~arrival:cfg.arrival
          in
          let evs =
            List.init (max 0 events) (fun _ -> Schedule.next gen)
          in
          Json.Obj
            [
              ("client", Json.Int idx);
              ( "events",
                Json.List
                  (List.map
                     (Schedule.event_json
                        ~workload_name:(workload_name cfg targets))
                     evs) );
            ])
    in
    Ok
      (Json.Obj
         [
           Schema.field Schema.Load;
           ("dry_run", Json.Bool true);
           ("config", config_json cfg);
           ("clients", Json.List clients);
         ])
