(** The simulated Go heap: allocation entry points, GC pacing, and hooks
    connecting the mutator (the MiniGo interpreter) to the collector.

    Every MiniGo heap object is a record here, placed in a real
    mspan/mcache/mcentral slot so that tcfree's ownership and span-state
    checks behave like the paper's runtime.  Stack-allocated objects get
    records too (pointers name their owner uniformly) but occupy no span
    and cost the GC nothing; the interpreter releases them when their
    scope exits.

    A reference holds its object's record, as a Go pointer leads to its
    object without a lookup.  So the heap needs no object table: it keeps
    one array of heap objects per logical processor, only for the sweep.
    A domain appends to its own array without a lock, and the
    stop-the-world sweep compacts every array in place.

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
  size : int;  (** requested bytes *)
  category : Metrics.category;
  mutable payload : payload;
  placement : placement;
  mutable marked : int;  (** mark epoch of the last cycle that reached it *)
  mutable freed : bool;
  mutable poisoned : bool;
}

type objs = { mutable objs : obj array; mutable len : int }

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
  heap_objs : objs array;
      (** one per logical processor: the heap objects it allocated since
          the last sweep kept them, freed ones included until the next
          sweep or growth drops them *)
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
  mutable trace_payload : payload -> (obj -> unit) -> unit;
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

(* The owner of frame-slot storage, and the filler of the object arrays'
   spare slots.  Freed, so marking and tcfree pass it by. *)
let no_obj =
  {
    addr = 0;
    size = 0;
    category = Metrics.Cat_other;
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
    heap_objs =
      Array.init nprocs (fun _ -> { objs = Array.make 256 no_obj; len = 0 });
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
    trace_payload = (fun _ _ -> ());
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

let filter_objs s keep =
  let kept = ref 0 in
  for i = 0 to s.len - 1 do
    let o = Array.unsafe_get s.objs i in
    if keep o then begin
      Array.unsafe_set s.objs !kept o;
      incr kept
    end
  done;
  Array.fill s.objs !kept (s.len - !kept) no_obj;
  s.len <- !kept

(* Drop the freed entries of a full object array, then double it if it is
   still more than half full.  Dropping first bounds the array by the
   live objects even when no sweep runs (GC off) and tcfree frees most
   of what is allocated. *)
let grow s =
  filter_objs s (fun o -> not o.freed);
  if 2 * s.len > Array.length s.objs then begin
    let objs = Array.make (2 * Array.length s.objs) no_obj in
    Array.blit s.objs 0 objs 0 s.len;
    s.objs <- objs
  end

(* Record a heap object in its processor's array, for the sweep. *)
let track t p obj =
  let s = Array.unsafe_get t.heap_objs p in
  if s.len = Array.length s.objs then grow s;
  Array.unsafe_set s.objs s.len obj;
  s.len <- s.len + 1

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
  let placement =
    match Sizeclass.class_for_size (max 1 size) with
    | Some class_idx ->
      let span, slot =
        Mcache.alloc t.caches.(thread) t.central class_idx
      in
      On_heap (span, slot)
    | None ->
      (* Large object: dedicated span, pushed straight to mcentral-like
         shared ownership (fig. 9 treats it outside any mcache). *)
      let span = Mspan.create_large size in
      Pageheap.alloc_pages t.pages span.Mspan.npages;
      span.Mspan.state <- Mspan.In_mcentral;
      ignore (Mspan.alloc_slot span);
      On_heap (span, 0)
  in
  let obj =
    {
      addr = fresh_addr t;
      size;
      category;
      payload;
      placement;
      marked = 0;
      freed = false;
      poisoned = false;
    }
  in
  track t thread obj;
  Metrics.count_alloc (metrics_for t thread) ~category ~heap:true ~bytes:size;
  bump_live t size;
  obj

(** Allocate a stack object: no span, no GC cost; released when its
    scope exits. *)
let alloc_stack ?(thread = 0) t ~category ~size ~payload : obj =
  let obj =
    {
      addr = fresh_addr t;
      size;
      category;
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
