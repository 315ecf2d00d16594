(** Whole-program escape analysis driver: functions are analyzed
    callees-first (Tarjan SCCs of the call graph in reverse topological
    order); calls into not-yet-summarized functions use the default tag. *)

open Minigo

type func_result = {
  fr_func : Tast.func;
  fr_ctx : Build.ctx;
  fr_stats : Propagate.stats;
}

type unit_report = {
  ur_id : int;  (** {!Callgraph.unit_def} id, reverse topological *)
  ur_funcs : string list;  (** the unit's functions, unit order *)
  ur_key : string;  (** content key the unit was solved (or hit) under *)
  ur_cached : bool;  (** solved from the unit cache, not analyzed *)
}

type t = {
  mode : Propagate.mode;
  funcs : (string, func_result) Hashtbl.t;
  summaries : (string, Summary.t) Hashtbl.t;
  units : unit_report list;  (** reverse topological (solve) order *)
}

(** Callee names reachable from a function body (including go/defer). *)
val callees_of : Tast.func -> string list

(** Strongly connected components of the call graph, callees first
    (iterative Tarjan — alias of {!Callgraph.condense}). *)
val scc_order : Tast.func list -> Tast.func list list

(** Compress one analyzed function into its extended parameter tag.
    [precise_contents = false] yields what stock Go knows: real
    param→return/heap flows but conservative contents (content tags are
    GoFree's addition). *)
val extract_summary :
  ?precise_contents:bool -> Tast.func -> Build.ctx -> Summary.t

(** Mode component of the units' content keys: any analysis parameter
    that changes results must appear here (alongside the configuration
    signature). *)
val mode_signature :
  ?field_sensitive:bool -> Propagate.mode -> bool -> bool -> string

(** Analyze a whole program.  [mode = Go_base] computes only stack/heap
    decisions; [Gofree] adds completeness/lifetime/ToFree.
    [use_ipa = false] forces default tags everywhere (ablation);
    [backprop = false] disables GoFree's leaf→root rules (unsound —
    robustness ablation only).  [imported] seeds the summary table with
    the stored tags of already-analyzed packages (separate compilation,
    §4.4); callees with no seeded or computed summary fall back to the
    conservative default tag.

    The program is solved bottom-up as analysis units ({!Callgraph}
    SCCs).  [config_sig] feeds the units' content keys (reported in
    [units]).  [unit_lookup ~key ~funcs] is the function-granular cache:
    returning the unit's stored summaries skips its analysis (no
    [func_result]s for its functions — the caller replays the unit's
    recorded insertions/decisions) while the summaries are installed for
    dependents.  Results are deterministic and identical across cached
    and uncached runs. *)
val analyze :
  ?mode:Propagate.mode ->
  ?use_ipa:bool ->
  ?backprop:bool ->
  ?field_sensitive:bool ->
  ?imported:Summary.t list ->
  ?config_sig:string ->
  ?unit_lookup:(key:string -> funcs:string list -> Summary.t list option) ->
  Tast.program ->
  t

val func_result : t -> string -> func_result option

(** Location of a variable in its function's analyzed graph. *)
val var_loc : t -> func:string -> Tast.var -> Loc.t option

(** [true] when the allocation site must be heap-allocated. *)
val site_is_heap : t -> func:string -> Tast.alloc_site -> bool

(** Variables of [func] whose location satisfies ToFree (Def 4.17). *)
val to_free_vars : t -> func:string -> (Tast.var * Loc.t) list

(** Field slots of [func] satisfying ToFree whose base variable is a
    sound anchor (field-sensitive mode): base is a plain local, itself
    complete and not outlived, and no other variable's points-to set
    intersects the slot's.  Deterministic (base id, field) order;
    returns (base, field index, field name, slot). *)
val to_free_fields :
  t -> func:string -> (Tast.var * int * string * Loc.t) list

(** Total SPFA relaxations across all functions (complexity stats). *)
val total_walk_steps : t -> int
