(** Periodic metrics sampler: bounded time series of heap counters,
    snapshotted every N interpreter steps, counted on the sampler's own
    run-wide clock ({!advance}). *)

type sample = {
  sm_step : int;
  sm_heap_live : int;
  sm_span_bytes : int;  (** bytes backing live spans at the snapshot *)
  sm_gc_time_ns : int64;  (** cumulative *)
  sm_gc_cycles : int;
  sm_alloced_bytes : int;  (** cumulative *)
  sm_freed_bytes : int;  (** cumulative, tcfree only *)
}

type t

(** [create ~every ()] samples every [every] steps into a ring of
    [capacity] slots (default 4096); older samples are dropped once the
    ring wraps. *)
val create : ?capacity:int -> every:int -> unit -> t

val every : t -> int

(** [advance t n]: add [n] safepoints to the run-wide step clock and
    return the clock after.  Safe from several domains at once: each
    advance covers distinct steps. *)
val advance : t -> int -> int

(** Safepoints until the clock next reaches a sample step, from 1 to
    [every]: the countdown the interpreter folds into the step at which
    its safepoint fast path gives way. *)
val until_due : t -> int

val record : t -> step:int -> span_bytes:int -> Metrics.t -> unit

(** Retained samples, oldest first. *)
val samples : t -> sample list

(** Schema [gofree-samples-v1]; includes a [dropped] count so consumers
    can tell a wrapped series from a complete one. *)
val to_json : t -> Gofree_obs.Json.t
