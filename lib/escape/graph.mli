(** The escape graph (paper Def 4.1) and the per-root SPFA walk computing
    [Holds] / [MinDerefs] / [PointsTo] (Defs 4.6–4.9). *)

type edge = { src : Loc.t; weight : int }

type t = {
  mutable locs : Loc.t list;  (** all locations, reverse creation order *)
  mutable n_locs : int;
  incoming : (int, edge list ref) Hashtbl.t;
  heap : Loc.t;  (** the dummy heapLoc *)
  defer : Loc.t;  (** sink for defer/panic arguments *)
  mutable returns : Loc.t array;  (** per-return-value dummies *)
  mutable epoch : int;
  mutable n_edges : int;
  mutable walk_steps : int;  (** total SPFA relaxations (complexity stats) *)
  walk_lock : Mutex.t;  (** held by {!walk_one}: walks keep state here *)
}

(** A fresh graph containing only [heapLoc] and the defer sink. *)
val create : unit -> t

(** Allocate a location in the graph. *)
val fresh_loc : t -> Loc.kind -> loop_depth:int -> decl_depth:int -> Loc.t

(** Add a dataflow edge [src --weight--> dst] (Table 2).  Duplicate edges
    and weight-0 self loops are dropped. *)
val add_edge : t -> src:Loc.t -> dst:Loc.t -> weight:int -> unit

val incoming_edges : t -> Loc.t -> edge list

(** [walk_one g root f] calls [f m (MinDerefs m root)] for every
    [m ∈ Holds(root)] except the root itself.  O(N) average time per walk
    on the sparse graph (queue-optimized Bellman-Ford).  Walks of one
    graph from several domains run one at a time; [f] must not walk [g]
    again. *)
val walk_one : t -> Loc.t -> (Loc.t -> int -> unit) -> unit

(** [MinDerefs(m, root)] (Def 4.8), or [None] if [m ∉ Holds(root)]. *)
val min_derefs : t -> Loc.t -> Loc.t -> int option

(** Materialized [PointsTo(root)] (Def 4.9): locations at MinDerefs −1. *)
val points_to : t -> Loc.t -> Loc.t list

(** All locations, in creation order. *)
val all_locs : t -> Loc.t list
