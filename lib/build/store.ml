(** The per-package summary store (paper §4.4's separate-compilation
    story made concrete).

    One file per package, [<cache>/<pkg>.sum], holding everything a
    downstream build needs without re-analyzing the package:
    - the extended parameter tags ({!Gofree_escape.Summary.t}) of its
      functions, for callers' IPA;
    - the tcfree insertions ((function, variable, kind) triples) so the
      cache-hit path can re-instrument the freshly typechecked bodies;
    - the stack/heap decision per allocation site and the set of boxed
      variables, which the runtime needs and which only the (skipped)
      analysis could otherwise provide.

    Variable and site ids are stored {e relative} to the package's id
    base: absolute ids shift whenever an upstream package changes size,
    but the relative ids are stable because typechecking is
    deterministic.

    The cache key is a content hash over the package's sources, its
    dependencies' keys (transitive invalidation) and the pipeline
    configuration. *)

open Minigo
module E = Gofree_escape

(* Bump when the file layout changes: a stale-format file then simply
   misses. *)
let format_version = "gofree-sum-v2"

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
(* Serialization                                                     *)
(* ---------------------------------------------------------------- *)

let kind_atom = function
  | Tast.Free_slice -> "slice"
  | Tast.Free_map -> "map"
  | Tast.Free_obj -> "obj"

let kind_of_atom = function
  | "slice" -> Some Tast.Free_slice
  | "map" -> Some Tast.Free_map
  | "obj" -> Some Tast.Free_obj
  | _ -> None

let to_sexps (e : entry) : E.Sexp.t list =
  let atom s = E.Sexp.Atom s in
  let int n = atom (string_of_int n) in
  [
    E.Sexp.List [ atom "format"; atom format_version ];
    E.Sexp.List [ atom "package"; atom e.e_pkg ];
    E.Sexp.List [ atom "key"; atom e.e_key ];
    E.Sexp.List [ atom "nvars"; int e.e_nvars ];
    E.Sexp.List [ atom "nsites"; int e.e_nsites ];
    E.Sexp.List
      (atom "summaries" :: List.map E.Summary.to_sexp e.e_summaries);
    E.Sexp.List
      (atom "frees"
      :: List.map
           (fun (func, rel, fidx, kind) ->
             E.Sexp.List
               [ atom "free"; atom func; int rel; int fidx;
                 atom (kind_atom kind) ])
           e.e_frees);
    E.Sexp.List
      (atom "site-heap"
      :: List.map (fun b -> atom (string_of_bool b)) e.e_site_heap);
    E.Sexp.List (atom "var-boxed" :: List.map int e.e_var_boxed);
  ]

let to_string (e : entry) : string =
  String.concat "\n" (List.map E.Sexp.to_string (to_sexps e)) ^ "\n"

exception Bad of string

let of_string (s : string) : (entry, string) result =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let int_atom = function
    | E.Sexp.Atom a -> begin
      match int_of_string_opt a with
      | Some n -> n
      | None -> fail "expected an integer, got %s" a
    end
    | E.Sexp.List _ -> fail "expected an integer"
  in
  let bool_atom = function
    | E.Sexp.Atom "true" -> true
    | E.Sexp.Atom "false" -> false
    | _ -> fail "expected a boolean"
  in
  match E.Sexp.of_string_many s with
  | Error m -> Error m
  | Ok forms -> begin
    let field name =
      List.find_map
        (function
          | E.Sexp.List (E.Sexp.Atom head :: rest) when head = name ->
            Some rest
          | _ -> None)
        forms
    in
    let req name =
      match field name with
      | Some rest -> rest
      | None -> fail "missing (%s ...)" name
    in
    match
      let str1 name =
        match req name with
        | [ E.Sexp.Atom a ] -> a
        | _ -> fail "malformed (%s ...)" name
      in
      if str1 "format" <> format_version then
        fail "stale format %s" (str1 "format");
      let summaries =
        List.map
          (fun sx ->
            match E.Summary.of_sexp sx with
            | Ok s -> s
            | Error m -> fail "bad summary: %s" m)
          (req "summaries")
      in
      let frees =
        List.map
          (function
            | E.Sexp.List
                [ E.Sexp.Atom "free"; E.Sexp.Atom func; rel; fidx;
                  E.Sexp.Atom k ]
              -> begin
              match kind_of_atom k with
              | Some kind -> (func, int_atom rel, int_atom fidx, kind)
              | None -> fail "bad free kind %s" k
            end
            | _ -> fail "malformed free")
          (req "frees")
      in
      {
        e_pkg = str1 "package";
        e_key = str1 "key";
        e_nvars = int_atom (List.nth (req "nvars") 0);
        e_nsites = int_atom (List.nth (req "nsites") 0);
        e_summaries = summaries;
        e_frees = frees;
        e_site_heap = List.map bool_atom (req "site-heap");
        e_var_boxed = List.map int_atom (req "var-boxed");
      }
    with
    | e -> Ok e
    | exception Bad m -> Error m
    | exception Failure m -> Error m
  end

(* ---------------------------------------------------------------- *)
(* Function-granular unit records                                    *)
(* ---------------------------------------------------------------- *)

(* One record per analysis unit (call-graph SCC), layered {e under} the
   package entry: a package-level miss can still assemble most of its
   entry from unit hits, re-analyzing only the units whose content key
   changed.  Variable and site ids are stored relative to their
   {e function}'s first id (not the package base): they stay stable even
   when an earlier function in the same package grows or shrinks. *)

let units_format_version = "gofree-units-v2"

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

let unit_record_to_sexp (u : unit_record) : E.Sexp.t =
  let atom s = E.Sexp.Atom s in
  let int n = atom (string_of_int n) in
  E.Sexp.List
    [
      atom "unit";
      E.Sexp.List [ atom "key"; atom u.u_key ];
      E.Sexp.List (atom "funcs" :: List.map atom u.u_funcs);
      E.Sexp.List
        (atom "summaries" :: List.map E.Summary.to_sexp u.u_summaries);
      E.Sexp.List
        (atom "frees"
        :: List.map
             (fun (func, rel, fidx, kind) ->
               E.Sexp.List
                 [ atom "free"; atom func; int rel; int fidx;
                   atom (kind_atom kind) ])
             u.u_frees);
      E.Sexp.List
        (atom "sites"
        :: List.map
             (fun (func, rel, heap) ->
               E.Sexp.List
                 [ atom "site"; atom func; int rel;
                   atom (string_of_bool heap) ])
             u.u_sites);
      E.Sexp.List
        (atom "boxed"
        :: List.map
             (fun (func, rel) ->
               E.Sexp.List [ atom "box"; atom func; int rel ])
             u.u_boxed);
    ]

let unit_record_of_sexp (sx : E.Sexp.t) : (unit_record, string) result =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let int_atom = function
    | E.Sexp.Atom a -> begin
      match int_of_string_opt a with
      | Some n -> n
      | None -> fail "expected an integer, got %s" a
    end
    | E.Sexp.List _ -> fail "expected an integer"
  in
  let str_atom = function
    | E.Sexp.Atom a -> a
    | E.Sexp.List _ -> fail "expected an atom"
  in
  match sx with
  | E.Sexp.List (E.Sexp.Atom "unit" :: fields) -> begin
    let field name =
      List.find_map
        (function
          | E.Sexp.List (E.Sexp.Atom head :: rest) when head = name ->
            Some rest
          | _ -> None)
        fields
    in
    let req name =
      match field name with
      | Some rest -> rest
      | None -> fail "missing (%s ...) in unit" name
    in
    match
      {
        u_key =
          (match req "key" with
          | [ E.Sexp.Atom a ] -> a
          | _ -> fail "malformed (key ...)");
        u_funcs = List.map str_atom (req "funcs");
        u_summaries =
          List.map
            (fun sx ->
              match E.Summary.of_sexp sx with
              | Ok s -> s
              | Error m -> fail "bad summary: %s" m)
            (req "summaries");
        u_frees =
          List.map
            (function
              | E.Sexp.List
                  [ E.Sexp.Atom "free"; E.Sexp.Atom func; rel; fidx;
                    E.Sexp.Atom k ] -> begin
                match kind_of_atom k with
                | Some kind -> (func, int_atom rel, int_atom fidx, kind)
                | None -> fail "bad free kind %s" k
              end
              | _ -> fail "malformed free")
            (req "frees");
        u_sites =
          List.map
            (function
              | E.Sexp.List
                  [ E.Sexp.Atom "site"; E.Sexp.Atom func; rel;
                    E.Sexp.Atom heap ] -> begin
                match bool_of_string_opt heap with
                | Some h -> (func, int_atom rel, h)
                | None -> fail "bad site decision %s" heap
              end
              | _ -> fail "malformed site")
            (req "sites");
        u_boxed =
          List.map
            (function
              | E.Sexp.List [ E.Sexp.Atom "box"; E.Sexp.Atom func; rel ] ->
                (func, int_atom rel)
              | _ -> fail "malformed box")
            (req "boxed");
      }
    with
    | u -> Ok u
    | exception Bad m -> Error m
    | exception Failure m -> Error m
  end
  | _ -> Error "expected (unit ...)"

let units_to_string (records : unit_record list) : string =
  String.concat "\n"
    (E.Sexp.to_string
       (E.Sexp.List
          [ E.Sexp.Atom "format"; E.Sexp.Atom units_format_version ])
    :: List.map
         (fun u -> E.Sexp.to_string (unit_record_to_sexp u))
         records)
  ^ "\n"

let units_of_string (s : string) : (unit_record list, string) result =
  match E.Sexp.of_string_many s with
  | Error m -> Error m
  | Ok [] -> Error "empty unit file"
  | Ok (header :: records) -> begin
    match header with
    | E.Sexp.List [ E.Sexp.Atom "format"; E.Sexp.Atom v ]
      when v = units_format_version -> begin
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | sx :: rest -> begin
          match unit_record_of_sexp sx with
          | Ok u -> parse (u :: acc) rest
          | Error m -> Error m
        end
      in
      parse [] records
    end
    | _ -> Error "stale unit-file format"
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
let write_atomically path contents =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o666 tmp
  in
  match
    output_string oc contents;
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
  write_atomically (entry_path ~dir ~pkg:e.e_pkg) (to_string e)

(** Load a package's stored entry; [None] when absent, unreadable or in
    a stale format (all three just mean "cache miss"). *)
let load ~dir ~pkg : entry option =
  let path = entry_path ~dir ~pkg in
  if not (Sys.file_exists path) then None
  else begin
    match
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s
    with
    | Ok e -> Some e
    | Error _ -> None
    | exception Sys_error _ -> None
  end

(** Replace the package's stored unit records with [records] (the full
    set from the latest analysis, so the file never accumulates dead
    units). *)
let save_units ~dir ~pkg (records : unit_record list) : unit =
  ensure_dir dir;
  write_atomically (units_path ~dir ~pkg) (units_to_string records)

(** Load a package's unit records; [None] is just "no unit cache". *)
let load_units ~dir ~pkg : unit_record list option =
  let path = units_path ~dir ~pkg in
  if not (Sys.file_exists path) then None
  else begin
    match
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      units_of_string s
    with
    | Ok records -> Some records
    | Error _ -> None
    | exception Sys_error _ -> None
  end
