(** The build cache (paper §4.4's separate-compilation story made
    concrete).  Three record kinds, each keyed by what its contents are a
    function of:

    - [<cache>/frontend.typed]: per package, the typed program at id
      base 0 ({!Typed}), keyed by the package's source digest and its
      imports' interface digests.  A warm build decodes it instead of
      parsing and typechecking the package.
    - [<cache>/<pkg>.sum]: everything a downstream build needs without
      re-analyzing the package — the extended parameter tags
      ({!Gofree_escape.Summary.t}) of its functions, for callers' IPA;
      the tcfree insertions ((function, variable, kind) triples) so the
      cache-hit path can re-instrument the package's bodies; the
      stack/heap decision per allocation site and the set of boxed
      variables, which the runtime needs and which only the (skipped)
      analysis could otherwise provide.  Keyed by a content hash over
      the package's sources, its dependencies' keys (transitive
      invalidation) and the pipeline configuration.
    - [<cache>/<pkg>.units]: the same facts per analysis unit, under the
      package entry.

    Variable and site ids are stored {e relative} to the package's (or
    the function's) id base: absolute ids shift whenever an upstream
    package changes size, but the relative ids are stable because
    typechecking is deterministic.

    Every record body is binary ({!Gofree_escape.Codec}, the encoding the
    typed records use), and every file is sealed with a digest of its
    contents; one that does not match is a corrupt record, logged,
    counted and missed. *)

open Minigo
module E = Gofree_escape

(* Bump when the file layout changes: a stale-format file then simply
   misses. *)
let format_version = "gofree-sum-v3"

type entry = {
  e_pkg : string;
  e_key : string;  (** content hash this entry was built from *)
  e_nvars : int;  (** variable ids the package allocates *)
  e_nsites : int;  (** allocation sites the package allocates *)
  e_summaries : E.Summary.t list;  (** one per function, decl order *)
  e_frees : (string * int * int * Tast.free_kind) list;
      (** inserted tcfrees: function, relative var id, field index
          ([-1] for a whole-variable free), kind *)
  e_site_heap : bool list;  (** per site, in site order *)
  e_var_boxed : int list;  (** relative ids of boxed variables *)
}

(* ---------------------------------------------------------------- *)
(* Cache keys                                                        *)
(* ---------------------------------------------------------------- *)

(* [Config.signature] destructures the record exhaustively, so a new
   config field that is not part of the cache key fails to compile. *)
let config_signature = Gofree_core.Config.signature

let key ~(sources : (string * string) list) ~(dep_keys : string list)
    ~(config : Gofree_core.Config.t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf format_version;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (config_signature config);
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, src) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\000';
      Buffer.add_string buf src;
      Buffer.add_char buf '\000')
    sources;
  List.iter
    (fun k ->
      Buffer.add_string buf k;
      Buffer.add_char buf '\n')
    dep_keys;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------------------------------------------------------------- *)
(* Serialization ({!Gofree_escape.Codec})                            *)
(* ---------------------------------------------------------------- *)

let w_free w (func, rel, fidx, kind) =
  let open E.Codec in
  w_str w func;
  w_int w rel;
  w_int w fidx;
  w_free_kind w kind

let r_free r =
  let open E.Codec in
  let func = r_str r in
  let rel = r_int r in
  let fidx = r_int r in
  (func, rel, fidx, r_free_kind r)

let to_string (e : entry) : string =
  let open E.Codec in
  let w = writer () in
  w_str w e.e_pkg;
  w_str w e.e_key;
  w_int w e.e_nvars;
  w_int w e.e_nsites;
  w_list w E.Summary.write e.e_summaries;
  w_list w w_free e.e_frees;
  w_list w w_bool e.e_site_heap;
  w_list w w_int e.e_var_boxed;
  contents w

let of_string : string -> (entry, string) result =
  E.Codec.decode (fun r ->
      let open E.Codec in
      let e_pkg = r_str r in
      let e_key = r_str r in
      let e_nvars = r_int r in
      let e_nsites = r_int r in
      let e_summaries = r_list r E.Summary.read in
      let e_frees = r_list r r_free in
      let e_site_heap = r_list r r_bool in
      { e_pkg; e_key; e_nvars; e_nsites; e_summaries; e_frees; e_site_heap;
        e_var_boxed = r_list r r_int })

(* ---------------------------------------------------------------- *)
(* Function-granular unit records                                    *)
(* ---------------------------------------------------------------- *)

(* One record per analysis unit (call-graph SCC), layered {e under} the
   package entry: a package-level miss can still assemble most of its
   entry from unit hits, re-analyzing only the units whose content key
   changed.  Variable and site ids are stored relative to their
   {e function}'s first id (not the package base): they stay stable even
   when an earlier function in the same package grows or shrinks. *)

let units_format_version = "gofree-units-v4"

type unit_record = {
  u_key : string;  (** {!Gofree_escape.Callgraph.unit_key} content key *)
  u_funcs : string list;  (** the unit's functions, unit order *)
  u_summaries : E.Summary.t list;
      (** extended parameter tags; empty when the build ran without IPA *)
  u_frees : (string * int * int * Tast.free_kind) list;
      (** inserted tcfrees: function, function-relative var id, field
          index ([-1] for a whole-variable free), kind *)
  u_sites : (string * int * bool) list;
      (** function, function-relative site id, heap decision *)
  u_boxed : (string * int) list;
      (** boxed variables: function, function-relative var id *)
}

let units_to_string (records : unit_record list) : string =
  let open E.Codec in
  let w = writer ~size:1024 () in
  w_list w
    (fun w u ->
      w_str w u.u_key;
      w_list w w_str u.u_funcs;
      w_list w E.Summary.write u.u_summaries;
      w_list w w_free u.u_frees;
      w_list w
        (fun w (func, rel, heap) ->
          w_str w func;
          w_int w rel;
          w_bool w heap)
        u.u_sites;
      w_list w
        (fun w (func, rel) ->
          w_str w func;
          w_int w rel)
        u.u_boxed)
    records;
  contents w

let units_of_string : string -> (unit_record list, string) result =
  E.Codec.decode (fun r ->
      let open E.Codec in
      r_list r (fun r ->
          let u_key = r_str r in
          let u_funcs = r_list r r_str in
          let u_summaries = r_list r E.Summary.read in
          let u_frees = r_list r r_free in
          let u_sites =
            r_list r (fun r ->
                let func = r_str r in
                let rel = r_int r in
                (func, rel, r_bool r))
          in
          let u_boxed =
            r_list r (fun r ->
                let func = r_str r in
                (func, r_int r))
          in
          { u_key; u_funcs; u_summaries; u_frees; u_sites; u_boxed }))

(* ---------------------------------------------------------------- *)
(* Sealed files                                                      *)
(* ---------------------------------------------------------------- *)

(* Every record file starts with one line, [<format> <digest>], where
   the digest is the MD5 of the rest of the file.  A reader trusts the
   rest only when both match: a truncated or bit-flipped file fails the
   digest, a file of another kind fails the format, and each is a
   corrupt record — a miss, counted and logged.  A file of the same kind
   at another format version was written by another build of gofreec:
   it is not read, a plain miss, neither counted nor logged. *)

(* The kind of a format name, the part before its version:
   [gofree-sum] of [gofree-sum-v3]. *)
let kind_of format =
  let rec at i =
    if i + 1 >= String.length format then None
    else if format.[i] = '-' && format.[i + 1] = 'v' then
      Some (String.sub format 0 i)
    else at (i + 1)
  in
  at 0

(* [f] names another version of [format]'s kind. *)
let other_version ~format f =
  f <> format
  && match (kind_of f, kind_of format) with
     | Some k, Some k' -> k = k'
     | _ -> false

let write_sealed ~format body oc =
  output_string oc format;
  output_char oc ' ';
  output_string oc (Digest.to_hex (Digest.string body));
  output_char oc '\n';
  output_string oc body

(* The verified body; [Ok None] for a file of another version of the
   same kind. *)
let unseal ~format (s : string) : (string option, string) result =
  match String.index_opt s '\n' with
  | None -> Error "truncated header"
  | Some nl -> begin
    let body = String.sub s (nl + 1) (String.length s - nl - 1) in
    match String.split_on_char ' ' (String.sub s 0 nl) with
    | [ f; digest ] when f = format ->
      if Digest.to_hex (Digest.string body) = digest then Ok (Some body)
      else Error "body digest mismatch"
    | [ f; _ ] when other_version ~format f -> Ok None
    | _ -> Error "foreign format"
  end

(** One corrupt record: logged (the daemon's JSONL log when one is open,
    stderr otherwise), then [on_corrupt] counts it. *)
let corrupt ~on_corrupt path reason =
  let module Log = Gofree_obs.Log in
  if Log.enabled Log.Warn then
    Log.log Log.Warn "cache_record_corrupt"
      [ ("path", Gofree_obs.Json.Str path);
        ("reason", Gofree_obs.Json.Str reason) ]
  else
    Printf.eprintf
      "warning: corrupt cache record %s (%s), treated as a miss\n%!" path
      reason;
  on_corrupt ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The verified body of a sealed file, decoded by [decode]; [None] when
   absent, unreadable or of another version (a plain miss) or corrupt (a
   counted miss). *)
let read_sealed ~format ~on_corrupt ~decode path =
  match read_file path with
  | exception Sys_error _ -> None
  | s -> begin
    let decoded =
      Result.bind (unseal ~format s) (function
        | None -> Ok None
        | Some body -> Result.map Option.some (decode body))
    in
    match decoded with
    | Ok v -> v
    | Error reason ->
      corrupt ~on_corrupt path reason;
      None
  end

(* ---------------------------------------------------------------- *)
(* Files                                                             *)
(* ---------------------------------------------------------------- *)

let entry_path ~dir ~pkg = Filename.concat dir (pkg ^ ".sum")

let units_path ~dir ~pkg = Filename.concat dir (pkg ^ ".units")

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()  (* lost a race *)

let tmp_seq = Atomic.make 0

(* Replace [path]'s contents atomically.  Several writers may save the
   same package at once (two daemon workers, or the daemon and the
   CLI), so each writes its own temp file in the same directory — named
   by process and a per-process counter, created exclusively — and
   renames it over [path].  A reader sees one whole file or another,
   never an interleaving. *)
let write_atomically path (write : out_channel -> unit) =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o666 tmp
  in
  match
    write oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let save ~dir (e : entry) : unit =
  ensure_dir dir;
  write_atomically (entry_path ~dir ~pkg:e.e_pkg)
    (write_sealed ~format:format_version (to_string e))

(** Load a package's stored entry; [None] when absent or unreadable (a
    plain miss) or corrupt (a miss reported to [on_corrupt]). *)
let load ?(on_corrupt = ignore) ~dir ~pkg () : entry option =
  read_sealed ~format:format_version ~on_corrupt ~decode:of_string
    (entry_path ~dir ~pkg)

(** Replace the package's stored unit records with [records] (the full
    set from the latest analysis, so the file never accumulates dead
    units). *)
let save_units ~dir ~pkg (records : unit_record list) : unit =
  ensure_dir dir;
  write_atomically (units_path ~dir ~pkg)
    (write_sealed ~format:units_format_version (units_to_string records))

(** Load a package's unit records; [None] is just "no unit cache". *)
let load_units ?(on_corrupt = ignore) ~dir ~pkg () :
    unit_record list option =
  read_sealed ~format:units_format_version ~on_corrupt
    ~decode:units_of_string (units_path ~dir ~pkg)

(* ---------------------------------------------------------------- *)
(* Typed package records                                             *)
(* ---------------------------------------------------------------- *)

(* One file holds every package's typed record, so a build reads and
   writes it once, not once per package: a format line, then per
   package an index line [<pkg> <length> <digest>] and the record's
   {!Typed} encoding.  Each record is checked against its own digest
   before anything in it is decoded, so one damaged record misses alone;
   a damaged index line or a truncation loses the records after it. *)

let typed_format_version = "gofree-typed-v1:" ^ Typed_format.tag

let typed_path ~dir = Filename.concat dir "frontend.typed"

type slice = { str : string; off : int; len : int }

let slice str = { str; off = 0; len = String.length str }

type typed_record = {
  tr_header : Typed.header;
  tr_body : unit -> Typed.body option;
  tr_bytes : slice;
}

let save_typed ~dir (records : (string * slice) list) : unit =
  ensure_dir dir;
  write_atomically (typed_path ~dir) (fun oc ->
      output_string oc typed_format_version;
      output_char oc '\n';
      List.iter
        (fun (pkg, { str; off; len }) ->
          Printf.fprintf oc "%s %d %s\n" pkg len
            (Digest.to_hex (Digest.substring str off len));
          output_substring oc str off len)
        records)

let load_typed ?(on_corrupt = ignore) ~dir () :
    (string, typed_record) Hashtbl.t =
  let records = Hashtbl.create 64 in
  let path = typed_path ~dir in
  (match read_file path with
  | exception Sys_error _ -> ()
  | s -> begin
    let corrupt = corrupt ~on_corrupt path in
    let n = String.length s in
    let rec from i =
      if i < n then
        match String.index_from_opt s i '\n' with
        | None -> corrupt "truncated index line"
        | Some nl -> begin
          match String.split_on_char ' ' (String.sub s i (nl - i)) with
          | [ pkg; len; digest ] -> begin
            match int_of_string_opt len with
            | Some len when len >= 0 && len <= n - nl - 1 ->
              let off = nl + 1 in
              (if Digest.to_hex (Digest.substring s off len) <> digest then
                 corrupt (pkg ^ ": body digest mismatch")
               else
                 match Typed.decode_header s ~off ~len with
                 | Error m -> corrupt (pkg ^ ": " ^ m)
                 | Ok (h, cursor) ->
                   Hashtbl.replace records pkg
                     {
                       tr_header = h;
                       tr_body =
                         (fun () ->
                           match Typed.decode_body cursor with
                           | Ok b -> Some b
                           | Error m ->
                             corrupt (pkg ^ ": " ^ m);
                             None);
                       tr_bytes = { str = s; off; len };
                     });
              from (off + len)
            | _ -> corrupt (pkg ^ ": truncated record")
          end
          | _ -> corrupt "malformed index line"
        end
    in
    match String.index_opt s '\n' with
    | Some nl when String.sub s 0 nl = typed_format_version -> from (nl + 1)
    | Some nl
      when other_version ~format:typed_format_version (String.sub s 0 nl) ->
      ()
    | _ -> corrupt "foreign format"
  end);
  records
