(** The simulated Go heap: allocation entry points, GC pacing, and the
    hooks connecting the mutator (the MiniGo interpreter) to the
    collector.

    A reference names its object by holding the {!obj} record itself;
    nothing looks an object up by address.  The heap holds no reference
    to an object it allocated: the object's span slot records its
    address, requested size, category and mark epoch ({!Mspan.t}), and
    the sweep walks spans — each processor's mcache spans, mcentral's
    lists and a per-processor list of large-object spans.  Only poison
    mode keeps the objects themselves, in their slots, so the sweep can
    poison them.  Stack objects enter no table.

    Whether an object is freed is {!is_freed}, exact in every mode: a
    GC-swept object's slot no longer records its address, even after a
    later allocation takes the slot over.

    There is one heap mode at every domain count.  One atomic count holds
    the live heap bytes ({!live_bytes}); event counters are striped per
    logical processor and summed by {!merged_metrics}.  The number of
    logical processors decides only whether the shared structures lock. *)

(** Payloads are an extensible variant so this library stays independent
    of the interpreter's value type. *)
type payload = ..

type payload += No_payload

type placement =
  | On_heap of Mspan.t * int  (** span and slot *)
  | On_stack  (** released when its scope exits *)

type obj = {
  addr : int;
      (** serial number, for traces, poison diagnostics and the freed
          check of {!is_freed}; 0 for {!no_obj}.  A heap object's
          requested size and category are in its span slot. *)
  mutable payload : payload;
  placement : placement;
  mutable marked : int;
      (** stack objects: mark epoch of the last cycle that reached it; a
          heap object's mark is its span slot's *)
  mutable freed : bool;
      (** set by tcfree, stack release and the poison-mode sweep; the
          GC sweep of a heap object shows in its slot instead, so read
          {!is_freed} *)
  mutable poisoned : bool;
}

(** A poison-mode span slot's occupant. *)
type Mspan.occupant += Occupant of obj

type config = {
  gogc : int;  (** heap growth percentage between GCs (GOGC) *)
  gc_disabled : bool;  (** the Go-GCOff setting of fig. 11 *)
  poison_on_free : bool;  (** §6.8's mock tcfree *)
  concurrent_gc_window : int;
      (** bytes of allocation after a GC cycle during which tcfree treats
          the collector as still running and backs off (§5) *)
  min_heap : int;  (** first GC trigger threshold *)
  grow_map_free_old : bool;  (** GrowMapAndFreeOld (§4.6.2) *)
}

val default_config : config

type t = {
  config : config;
  metrics : Metrics.t;
      (** metric stripe 0: domain 0's events and every GC cycle land
          here — read {!merged_metrics} for the run's totals *)
  pages : Pageheap.t;
  central : Mcentral.t;
  mutable caches : Mcache.t array;  (** one per logical processor *)
  large_spans : Mspan.t list array;
      (** one per logical processor: the dedicated spans of the large
          objects it allocated, until a sweep finds them freed *)
  metric_shards : Metrics.t array;
      (** one stripe per logical processor; [metric_shards.(0) == metrics] *)
  live : int Atomic.t;  (** live heap bytes, read by {!live_bytes} *)
  max_live : int Atomic.t;  (** peak of [live] *)
  free_mutex : Mutex.t;  (** nprocs > 1: serializes tcfree bodies *)
  tomb_mutex : Mutex.t;  (** nprocs > 1: guards [tombstones] *)
  next_addr : int Atomic.t;  (** the next {!obj.addr} *)
  mutable mark_epoch : int;
      (** bumped by every cycle: an object is marked in this cycle when
          its [marked] equals it *)
  mutable next_gc : int;
  mutable gc_window_left : int;
  mutable dangling_spans : Mspan.t list;  (** fig. 9 step-1 output *)
  mutable trace_payload : payload -> (obj -> unit) -> bool;
      (** hand a payload's references to the continuation; false when it
          walked nothing (a noscan payload): the mark counts the words
          of the scanned objects it reaches *)
  mutable poison_payload : payload -> unit;
  mutable iter_roots : (obj -> unit) -> unit;
  mutable gc_requested : bool;
  mutable sampler : Sampler.t option;
      (** periodic metrics snapshots; attached by the runner when a
          metrics time series was requested *)
  mutable last_gc_end_ns : int64;
      (** wall-clock end of the previous GC cycle; 0 before the first *)
  tombstones : (int, string) Hashtbl.t;
}

(** A heap with [nprocs] logical processors (default 1): one mcache, one
    large-span list and one metric stripe each.  With more than one, several
    domains may mutate the heap, so mcentral, the page heap, tcfree and
    the tombstones take locks. *)
val create : ?config:config -> ?nprocs:int -> unit -> t

val nprocs : t -> int

(** [thread]'s logical processor (index into [caches] and
    [metric_shards]). *)
val proc : t -> int -> int

(** The metric stripe [thread] writes to. *)
val metrics_for : t -> int -> Metrics.t

(** Live heap bytes: raised by every heap allocation, lowered by every
    tcfree and sweep.  Drives GC pacing. *)
val live_bytes : t -> int

(** Subtract freed bytes from the live count. *)
val drop_live : t -> int -> unit

(** One coherent metrics record: the summed stripes, with [heap_live]
    and [max_heap] filled in from the live count.  Only exact while no
    domain mutates. *)
val merged_metrics : t -> Metrics.t

(** Is the simulated concurrent collector running? (§5 give-up check.) *)
val gc_running : t -> bool

(** The sentinel object: what a pointer into a frame slot names as its
    owner, and what a poisoned map header names as its buckets.  Its
    [addr] is 0 and it counts as freed, so the collector skips it. *)
val no_obj : obj

(** Allocate on the heap: picks a span via the thread's mcache (or a
    dedicated span for large objects), records the object in its slot,
    updates metrics, and requests a GC
    cycle when pacing demands one (the cycle itself runs at the
    interpreter's next safepoint). *)
val alloc_heap :
  t -> thread:int -> category:Metrics.category -> size:int ->
  payload:payload -> obj

(** Allocate a stack object: no span, no GC cost; released at scope
    exit.  [thread] only selects the metric stripe. *)
val alloc_stack :
  ?thread:int -> t -> category:Metrics.category -> size:int ->
  payload:payload -> obj

val is_stack_obj : obj -> bool

(** Has the object been freed — by tcfree, at scope exit, or by a GC
    sweep?  For a heap object, also true once its slot no longer records
    its address. *)
val is_freed : obj -> bool

(** Record how an address died (poison mode only — diagnostics). *)
val bury : t -> int -> string -> unit

val death_of : t -> int -> string

(** Drop a stack object at scope exit (poisons it in poison mode). *)
val release_stack : t -> obj -> unit
