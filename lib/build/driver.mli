(** Incremental multi-package build driver: a frontend that
    parses and typechecks only the packages whose sources or imported
    interfaces changed (the rest come from typed records, relocated onto
    the build's id bases), per-package escape analysis against stored
    dependency summaries (§4.4), two-level content-hash caching of the
    analysis (package entries over function-granular unit records),
    packages analyzed one at a time in dependency-wave order, and
    linking into one runnable {!Tast.program}. *)

open Minigo
module Core := Gofree_core

exception Error of string

type pkg_report = {
  pr_name : string;
  pr_wave : int;  (** dependency wave the package was scheduled in *)
  pr_typed : bool;  (** parse and typecheck skipped: typed record hit *)
  pr_cached : bool;  (** analysis skipped, summaries came from the store *)
  pr_ms : float;  (** analysis time; 0 for cache hits *)
  pr_nfuncs : int;
  pr_nsummaries : int;
  pr_units : int;  (** analysis units (call-graph SCCs); 0 on pkg hits *)
  pr_unit_hits : int;  (** units replayed from the unit cache *)
}

type stats = {
  bs_pkgs : pkg_report list;  (** topological order *)
  bs_hits : int;
  bs_misses : int;
  bs_unit_hits : int;  (** units replayed instead of re-analyzed *)
  bs_unit_misses : int;  (** units actually analyzed *)
  bs_frontend_hits : int;  (** packages taken from their typed records *)
  bs_frontend_misses : int;  (** packages parsed and typechecked *)
  bs_corrupt : int;  (** corrupt cache records met (each one a miss) *)
  bs_total_ms : float;
}

type result = {
  b_program : Tast.program;  (** linked and instrumented *)
  b_inserted : Core.Instrument.inserted list;
  b_site_heap : bool array;  (** indexed by absolute site id *)
  b_var_boxed : bool array;  (** indexed by absolute variable id *)
  b_stats : stats;
}

(** The function-granular cache the driver consults on package-level
    misses: a record by (package, unit content key), and wholesale
    replacement of a package's record set after its analysis.  Both
    must be thread-safe (the daemon's builds share its resident unit
    table across worker threads). *)
type unit_cache = {
  uc_lookup : pkg:string -> key:string -> Store.unit_record option;
  uc_commit : pkg:string -> Store.unit_record list -> unit;
  uc_corrupt : unit -> int;
      (** corrupt record files this cache has met, for the build's
          [corrupt_records] count *)
}

(** Always misses, never stores — package-level caching only. *)
val no_unit_cache : unit_cache

(** The on-disk cache ([<dir>/<pkg>.units]), lazily loaded, replaced
    wholesale on commit; thread-safe. *)
val disk_unit_cache : dir:string -> unit_cache

(** Build the tree rooted at the directory.  [cache_dir] defaults to
    [<root>/.gofree-cache]; [force] ignores all three cache levels
    (typed records, package entries, unit records) while still
    refreshing them.  [unit_cache] defaults to {!disk_unit_cache} under
    [cache_dir].  Raises {!Error} or {!Loader.Error} on build
    problems. *)
val build :
  ?config:Core.Config.t ->
  ?cache_dir:string ->
  ?force:bool ->
  ?unit_cache:unit_cache ->
  string ->
  result

val pp_stats : Format.formatter -> stats -> unit

(** Build statistics as JSON (schema [gofree-build-stats-v1]) — the
    payload of [gofreec build --stats-json]. *)
val stats_to_json : stats -> Gofree_obs.Json.t
