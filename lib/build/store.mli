(** The cache directory's three record kinds (paper §4.4's separate
    compilation):
    - [frontend.typed]: per package, the typechecked package at id base
      0 ({!Typed}), keyed by its source digest and its imports'
      interface digests;
    - [<pkg>.sum]: the analysis entry — extended parameter tags,
      recorded instrumentation, stack/heap decisions — keyed by sources,
      dependency keys and configuration;
    - [<pkg>.units]: function-granular analysis-unit records.

    Every record body is binary ({!Gofree_escape.Codec}), sealed with a
    digest of the body, and every file names its format.  A record that fails either check is a corrupt
    record — logged, reported to [on_corrupt], and treated as a miss. *)

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

(** The entry's record body; [of_string] reads exactly what it writes
    and is [Error] on anything else. *)
val to_string : entry -> string

val of_string : string -> (entry, string) result

val entry_path : dir:string -> pkg:string -> string

(** Write a package's entry, replacing any stored one atomically: each
    call writes its own temp file and renames it into place, so
    concurrent writers (daemon workers, the CLI) never interleave and a
    reader always sees one whole entry. *)
val save : dir:string -> entry -> unit

(** [None] when absent or unreadable (a plain miss) or corrupt: a
    digest mismatch, truncation or foreign format, which is logged and
    reported to [on_corrupt] before missing. *)
val load :
  ?on_corrupt:(unit -> unit) -> dir:string -> pkg:string -> unit ->
  entry option

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

(** [None] is just "no unit cache for the package"; corrupt files are
    handled as in {!load}. *)
val load_units :
  ?on_corrupt:(unit -> unit) -> dir:string -> pkg:string -> unit ->
  unit_record list option

(** {1 Typed package records} *)

(** [<dir>/frontend.typed]: one file holding each package's typed
    record, each with its own length and body digest. *)
val typed_path : dir:string -> string

(** [len] bytes of [str] from [off]: a record inside the file it was
    read from, written back without a copy. *)
type slice = { str : string; off : int; len : int }

(** The whole string. *)
val slice : string -> slice

(** A loaded typed record. *)
type typed_record = {
  tr_header : Typed.header;
  tr_body : unit -> Typed.body option;
      (** decodes the body; [None], reported like any corrupt record,
          if it does not decode *)
  tr_bytes : slice;  (** the record as stored, to write back unchanged *)
}

(** Replace the file with these records: (package, {!Typed.encode}d
    record), in order.  Atomic, as {!save}. *)
val save_typed : dir:string -> (string * slice) list -> unit

(** The typed records by package.  A record whose digest does not match
    is reported to [on_corrupt] and left out; so is everything after a
    damaged index line or a truncation, and the whole file when its
    format line is foreign.  Nothing is decoded before its digest
    matches. *)
val load_typed :
  ?on_corrupt:(unit -> unit) -> dir:string -> unit ->
  (string, typed_record) Hashtbl.t
