(** Per-package summary store: serialized extended parameter tags plus
    the recorded instrumentation and stack/heap decisions, keyed by a
    content hash over sources, dependency keys and configuration
    (paper §4.4's separate compilation). *)

open Minigo
module E := Gofree_escape

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

(** Content hash of a package: sources + dependencies' keys (transitive
    invalidation) + pipeline configuration + format version. *)
val key :
  sources:(string * string) list ->
  dep_keys:string list ->
  config:Gofree_core.Config.t ->
  string

val to_string : entry -> string

val of_string : string -> (entry, string) result

val entry_path : dir:string -> pkg:string -> string

(** Write a package's entry, replacing any stored one atomically: each
    call writes its own temp file and renames it into place, so
    concurrent writers (daemon workers, the CLI) never interleave and a
    reader always sees one whole entry. *)
val save : dir:string -> entry -> unit

(** [None] when absent, unreadable or stale-format — all just "miss". *)
val load : dir:string -> pkg:string -> entry option

(** One record per analysis unit (call-graph SCC), layered {e under}
    the package entry: a package-level miss assembles its entry from
    unit hits and re-analyzes only units whose content key changed.
    Variable/site ids are relative to their {e function}'s first id, so
    they survive other functions in the package changing size. *)
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

val units_to_string : unit_record list -> string

val units_of_string : string -> (unit_record list, string) result

val units_path : dir:string -> pkg:string -> string

(** Replace the package's stored unit records with the latest full set. *)
val save_units : dir:string -> pkg:string -> unit_record list -> unit

(** [None] is just "no unit cache for the package". *)
val load_units : dir:string -> pkg:string -> unit_record list option
