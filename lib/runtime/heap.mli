(** The simulated Go heap: object store, allocation entry points, GC
    pacing, and the hooks connecting the mutator (the MiniGo interpreter)
    to the collector. *)

(** Payloads are an extensible variant so this library stays independent
    of the interpreter's value type. *)
type payload = ..

type payload += No_payload

type placement =
  | On_heap of Mspan.t * int  (** span and slot *)
  | On_stack  (** released when its scope exits *)

type obj = {
  addr : int;
  size : int;  (** requested bytes *)
  category : Metrics.category;
  mutable payload : payload;
  placement : placement;
  mutable marked : bool;
  mutable freed : bool;
  mutable poisoned : bool;
}

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
      (** sequential heap: the record every event updates; shared heap:
          shard 0 of [metric_shards] — read {!merged_metrics} instead *)
  pages : Pageheap.t;
  central : Mcentral.t;
  mutable caches : Mcache.t array;  (** one per logical processor *)
  objects : obj Objtable.t;
  shared : bool;
      (** multiple domains mutate this heap: table sharded+locked,
          mcentral/pageheap internally serialized, metrics striped *)
  metric_shards : Metrics.t array;
      (** per-domain stripes; [metric_shards.(0) == metrics] *)
  live_atomic : int Atomic.t;  (** shared mode: authoritative live bytes *)
  max_live_atomic : int Atomic.t;  (** shared mode: true concurrent peak *)
  free_mutex : Mutex.t;  (** shared mode: serializes tcfree bodies *)
  tomb_mutex : Mutex.t;  (** guards [tombstones] in shared poison runs *)
  next_addr : int Atomic.t;
  mutable next_gc : int;
  mutable gc_window_left : int;
  mutable dangling_spans : Mspan.t list;  (** fig. 9 step-1 output *)
  mutable trace_payload : payload -> (int -> unit) -> unit;
  mutable poison_payload : payload -> unit;
  mutable iter_roots : (int -> unit) -> unit;
  mutable gc_requested : bool;
  mutable sampler : Sampler.t option;
      (** periodic metrics snapshots; attached by the runner when a
          metrics time series was requested *)
  mutable last_gc_end_ns : int64;
      (** wall-clock end of the previous GC cycle; 0 before the first *)
  tombstones : (int, string) Hashtbl.t;
}

(** [shared:true] builds the multi-domain configuration: [nprocs]
    metric stripes and mcaches (one per domain), a sharded+locked
    object table, and internally locked mcentral/pageheap. *)
val create : ?config:config -> ?nprocs:int -> ?shared:bool -> unit -> t

val nprocs : t -> int

(** The metric stripe [thread] writes to (the shared record on a
    sequential heap). *)
val metrics_for : t -> int -> Metrics.t

(** Authoritative live-byte count — drives GC pacing in both modes. *)
val live_bytes : t -> int

(** Shared mode: atomically add allocated bytes to the live count and
    update the peak. *)
val bump_live : t -> int -> unit

(** Shared mode: atomically subtract freed bytes from the live count. *)
val drop_live : t -> int -> unit

(** One coherent metrics record: the live record itself (sequential) or
    the summed stripes with atomic live/peak patched in (shared; only
    meaningful while no domain mutates). *)
val merged_metrics : t -> Metrics.t

(** Is the simulated concurrent collector running? (§5 give-up check.) *)
val gc_running : t -> bool

val find_obj : t -> int -> obj option

(** The object at an address, or {!no_obj} when there is none.  Unlike
    {!find_obj} it allocates nothing, for hot paths: GC marking and the
    interpreter's map operations. *)
val find : t -> int -> obj

(** What {!find} returns for an absent address (its [addr] is 0). *)
val no_obj : obj

(** Allocate on the heap: picks a span via the thread's mcache (or a
    dedicated span for large objects), updates metrics, and requests a GC
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

(** Record how an address died (poison mode only — diagnostics). *)
val bury : t -> int -> string -> unit

val death_of : t -> int -> string

(** Drop a stack object at scope exit (poisons it in poison mode). *)
val release_stack : t -> obj -> unit

val live_heap_objects : t -> obj list
