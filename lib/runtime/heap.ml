(** The simulated Go heap: allocation entry points, GC pacing, and hooks
    connecting the mutator (the MiniGo interpreter) to the collector.

    Every MiniGo heap object is a record here, placed in a real
    mspan/mcache/mcentral slot so that tcfree's ownership and span-state
    checks behave like the paper's runtime.  Stack-allocated objects get
    records too (pointers name their owner uniformly) but occupy no span
    and cost the GC nothing; the interpreter releases them when their
    scope exits.

    A reference holds its object's record, as a Go pointer leads to its
    object without a lookup.  The heap holds no reference to the objects
    it allocated: their span slots record what the sweep needs (address,
    requested size, category, mark epoch — see {!Mspan}), and the sweep
    walks spans; tcfree reads a freed object's size and category there
    too, so the record carries neither.  So an object the program drops
    is the host's to reclaim, young, like any other dead OCaml value.
    Large objects get a dedicated span each, kept on a per-processor
    list for the sweep.

    Freed state is {!is_freed}: the record's [freed] flag, which tcfree
    and stack release set, or, for a heap object, its slot no longer
    recording its address — a GC sweep frees the slot without the record
    and a later allocation may take the slot over.  In poison mode (§6.8)
    each span also keeps its slots' occupants, so the sweep can poison
    and bury what it frees.

    Payloads are an extensible variant so the runtime library stays
    independent of the interpreter's value type; the interpreter registers
    a tracer that enumerates the objects a payload references. *)

type payload = ..

type payload += No_payload

type placement =
  | On_heap of Mspan.t * int  (** span and slot *)
  | On_stack  (** released when its scope exits *)

type obj = {
  addr : int;  (** serial number, for traces and poison diagnostics *)
  mutable payload : payload;
  placement : placement;
  mutable marked : int;
      (** stack objects: mark epoch of the last cycle that reached it (a
          heap object's is its span slot's) *)
  mutable freed : bool;
      (** set by tcfree, stack release and the poison-mode sweep; read
          {!is_freed} *)
  mutable poisoned : bool;
}

(* Poison mode: a span slot's occupant, so the sweep can poison it. *)
type Mspan.occupant += Occupant of obj

type config = {
  gogc : int;  (** heap growth percentage between GCs (GOGC) *)
  gc_disabled : bool;  (** the Go-GCOff setting of fig. 11 *)
  poison_on_free : bool;  (** §6.8's mock tcfree: corrupt freed memory *)
  concurrent_gc_window : int;
      (** bytes of allocation after a GC cycle during which the collector
          is considered "running concurrently" and tcfree backs off (§5);
          byte-based so the window has the same duration for small- and
          large-object workloads *)
  min_heap : int;  (** first GC trigger threshold *)
  grow_map_free_old : bool;
      (** GrowMapAndFreeOld (§4.6.2): explicitly free a growing map's
          abandoned bucket array.  Off in the stock-Go runtime. *)
}

let default_config =
  {
    gogc = 100;
    gc_disabled = false;
    poison_on_free = false;
    concurrent_gc_window = 16 * 1024;
    min_heap = 512 * 1024;
    grow_map_free_old = true;
  }

type t = {
  config : config;
  metrics : Metrics.t;
      (** metric stripe 0: the record domain 0's events and every GC
          cycle update; read {!merged_metrics} for the run's totals *)
  pages : Pageheap.t;
  central : Mcentral.t;
  mutable caches : Mcache.t array;  (** one per logical processor *)
  large_spans : Mspan.t list array;
      (** one per logical processor: the dedicated spans of the large
          objects it allocated, until a sweep finds them freed *)
  metric_shards : Metrics.t array;
      (** one metric stripe per logical processor;
          [metric_shards.(0) == metrics] *)
  live : int Atomic.t;
      (** live heap bytes: every heap allocation, tcfree and sweep
          updates it, and GC pacing reads it *)
  max_live : int Atomic.t;  (** peak of [live] *)
  free_mutex : Mutex.t;
      (** serializes tcfree bodies when more than one domain mutates the
          heap, so the check-then-free sequence (§5) is atomic with
          respect to other freeing domains *)
  tomb_mutex : Mutex.t;  (** guards [tombstones] likewise *)
  next_addr : int Atomic.t;
  mutable mark_epoch : int;  (** bumped by every cycle's mark *)
  mutable next_gc : int;  (** live-byte threshold for the next cycle *)
  mutable gc_window_left : int;
      (** remaining bytes of the simulated concurrent-mark window *)
  mutable dangling_spans : Mspan.t list;  (** fig. 9 step-1 output *)
  (* mutator hooks, registered by the interpreter *)
  mutable trace_payload : payload -> (obj -> unit) -> bool;
      (** hand a payload's references to the continuation; false when it
          walked nothing (a noscan payload): the mark counts the words
          of the scanned objects it reaches *)
  mutable poison_payload : payload -> unit;
      (** poison mode: overwrite the payload's contents so any later read
          through a stale reference fails loudly (§6.8) *)
  mutable iter_roots : (obj -> unit) -> unit;
  mutable gc_requested : bool;
  mutable sampler : Sampler.t option;
      (** periodic metrics snapshots; attached by the runner when
          [--metrics-json]/[sample_every] asks for a time series *)
  mutable last_gc_end_ns : int64;
      (** wall-clock end of the previous cycle; 0 before the first —
          feeds the inter-pause-gap histogram *)
  tombstones : (int, string) Hashtbl.t;
      (** freed address → how it died; diagnostic detail for corruption
          reports *)
}

(* The owner of frame-slot storage.  Freed, so marking and tcfree pass
   it by. *)
let no_obj =
  {
    addr = 0;
    payload = No_payload;
    placement = On_stack;
    marked = 0;
    freed = true;
    poisoned = false;
  }

let create ?(config = default_config) ?(nprocs = 1) () =
  (* More than one logical processor means more than one domain may
     mutate the heap: the shared structures then take their locks. *)
  let locked = nprocs > 1 in
  let pages = Pageheap.create () in
  let central = Mcentral.create pages in
  pages.Pageheap.locked <- locked;
  central.Mcentral.locked <- locked;
  let metric_shards = Array.init nprocs (fun _ -> Metrics.create ()) in
  {
    config;
    metrics = metric_shards.(0);
    pages;
    central;
    caches = Array.init nprocs Mcache.create;
    large_spans = Array.make nprocs [];
    metric_shards;
    live = Atomic.make 0;
    max_live = Atomic.make 0;
    free_mutex = Mutex.create ();
    tomb_mutex = Mutex.create ();
    next_addr = Atomic.make 1;
    mark_epoch = 0;
    next_gc = config.min_heap;
    gc_window_left = 0;
    dangling_spans = [];
    trace_payload = (fun _ _ -> false);
    poison_payload = (fun _ -> ());
    iter_roots = (fun _ -> ());
    gc_requested = false;
    sampler = None;
    last_gc_end_ns = 0L;
    tombstones = Hashtbl.create 64;
  }

let nprocs t = Array.length t.caches

(** Is the (simulated concurrent) collector currently running?  tcfree
    refuses to race it (§5). *)
let gc_running t = t.gc_window_left > 0

let fresh_addr t = Atomic.fetch_and_add t.next_addr 1

(** [thread]'s logical processor.  Callers pass a domain index, which
    is one already; the division that folds any other index in stays
    off that path. *)
let[@inline] proc t thread =
  let n = Array.length t.caches in
  if thread < n then thread else thread mod n

(** The metric stripe [thread] writes to: its logical processor's. *)
let[@inline] metrics_for t thread = t.metric_shards.(proc t thread)

(** Live heap bytes — drives GC pacing. *)
let[@inline] live_bytes t = Atomic.get t.live

(* Add allocated bytes to the live count and raise the peak.  A loop,
   not a local recursive function: that would allocate a closure on
   every heap allocation. *)
let bump_live t bytes =
  let live = Atomic.fetch_and_add t.live bytes + bytes in
  let m = ref (Atomic.get t.max_live) in
  while live > !m && not (Atomic.compare_and_set t.max_live !m live) do
    m := Atomic.get t.max_live
  done

let drop_live t bytes = ignore (Atomic.fetch_and_add t.live (-bytes))

(** One coherent metrics record: the stripes summed, with the live count
    and its peak filled in.  Only exact while no domain is mutating. *)
let merged_metrics t =
  let m = Metrics.merged t.metric_shards in
  m.Metrics.heap_live <- live_bytes t;
  m.Metrics.max_heap <- Atomic.get t.max_live;
  m

(** Allocate a heap object of [size] bytes on behalf of [thread].
    Checks GC pacing first (setting [gc_requested] — the interpreter runs
    the cycle at its next safepoint, keeping collection out of the middle
    of an allocation). *)
let alloc_heap t ~thread ~category ~size ~payload : obj =
  if (not t.config.gc_disabled) && live_bytes t >= t.next_gc then
    t.gc_requested <- true;
  if t.gc_window_left > 0 then
    t.gc_window_left <- max 0 (t.gc_window_left - max 1 size);
  let thread = proc t thread in
  let class_idx = Sizeclass.class_for_size (max 1 size) in
  let placement =
    if class_idx >= 0 then
      let cache = t.caches.(thread) in
      let slot = Mcache.alloc cache t.central class_idx in
      On_heap (Mcache.span cache class_idx, slot)
    else begin
      (* Large object: dedicated span, pushed straight to mcentral-like
         shared ownership (fig. 9 treats it outside any mcache). *)
      let span = Mspan.create_large size in
      Pageheap.alloc_pages t.pages span.Mspan.npages;
      span.Mspan.state <- Mspan.In_mcentral;
      ignore (Mspan.alloc_slot span);
      t.large_spans.(thread) <- span :: t.large_spans.(thread);
      On_heap (span, 0)
    end
  in
  let addr = fresh_addr t in
  let obj =
    {
      addr;
      payload;
      placement;
      marked = 0;
      freed = false;
      poisoned = false;
    }
  in
  (match placement with
  | On_heap (span, slot) ->
    Mspan.fill span slot ~addr ~size ~cat:(Metrics.category_index category);
    if t.config.poison_on_free then begin
      if Array.length span.Mspan.occupants = 0 then
        span.Mspan.occupants <- Array.make span.Mspan.nslots Mspan.Vacant;
      span.Mspan.occupants.(slot) <- Occupant obj
    end
  | On_stack -> ());
  Metrics.count_alloc (metrics_for t thread) ~category ~heap:true ~bytes:size;
  bump_live t size;
  obj

(** Allocate a stack object: no span, no GC cost; released when its
    scope exits. *)
let alloc_stack ?(thread = 0) t ~category ~size ~payload : obj =
  let obj =
    {
      addr = fresh_addr t;
      payload;
      placement = On_stack;
      marked = 0;
      freed = false;
      poisoned = false;
    }
  in
  Metrics.count_alloc (metrics_for t thread) ~category ~heap:false ~bytes:size;
  obj

let is_stack_obj obj =
  match obj.placement with On_stack -> true | On_heap _ -> false

let[@inline] is_freed obj =
  obj.freed
  ||
  match obj.placement with
  | On_heap (span, slot) -> Mspan.addr span slot <> obj.addr
  | On_stack -> false

(* Tombstones are diagnostic detail for corruption reports; they are only
   recorded in poison mode, where wrong frees are being hunted — normal
   runs skip the bookkeeping entirely. *)
let bury t addr reason =
  if t.config.poison_on_free then
    if nprocs t > 1 then begin
      Mutex.lock t.tomb_mutex;
      Hashtbl.replace t.tombstones addr reason;
      Mutex.unlock t.tomb_mutex
    end
    else Hashtbl.replace t.tombstones addr reason

let death_of t addr =
  match Hashtbl.find_opt t.tombstones addr with
  | Some reason -> reason
  | None ->
    if t.config.poison_on_free then "never existed"
    else "tombstones disabled outside poison mode"

(** Drop a stack object at scope exit. *)
let release_stack t obj =
  if not obj.freed then begin
    obj.freed <- true;
    if t.config.poison_on_free then begin
      obj.poisoned <- true;
      t.poison_payload obj.payload
    end;
    bury t obj.addr "stack scope exit"
  end
