(** Call-graph condensation into analysis units: SCCs in reverse
    topological order (callees first) with content keys for
    function-granular caching.  Tarjan runs on an explicit stack, so
    pathologically deep call chains cannot overflow the OCaml stack. *)

open Minigo

type unit_def = {
  u_id : int;  (** index into the reverse-topological unit array *)
  u_funcs : Tast.func list;  (** the SCC, in Tarjan discovery order *)
  u_body_hash : string;  (** digest of the unit's pretty-printed bodies *)
  u_callees : string list;
      (** sorted distinct out-of-unit callee names (imported/external
          included) — the summary inputs of the unit *)
}

type t = {
  cg_units : unit_def array;  (** reverse topological order *)
  cg_unit_of : (string, int) Hashtbl.t;  (** function name → unit id *)
}

(** Callee names reachable from a function body (including go/defer). *)
val callees_of : Tast.func -> string list

(** Names an expression calls (a global initialiser's callees). *)
val expr_callees : Tast.expr -> string list

(** Strongly connected components, callees first (iterative Tarjan). *)
val condense : Tast.func list -> Tast.func list list

val build : Tast.func list -> t

(** Names of the unit's functions, in unit order. *)
val unit_names : unit_def -> string list

(** Content key of a unit: digest over the configuration signature, the
    analysis-mode signature, the unit's body hash and every out-of-unit
    callee's summary {e content} ([callee_summary name = None] stands
    for the conservative default tag).  Equal keys guarantee equal
    analysis results for the unit. *)
val unit_key :
  config_sig:string ->
  mode_sig:string ->
  callee_summary:(string -> string option) ->
  unit_def ->
  string
