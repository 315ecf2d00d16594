(** The tcfree family (paper §5, Table 4): best-effort explicit
    deallocation that never compromises safety — whenever freeing would be
    unsafe or too costly, it gives up and leaves the object for GC.

    Give-up conditions implemented (§5):
    - GC is running concurrently (the simulated mark window);
    - the object's mspan has been swapped out of the allocating thread's
      mcache, or is owned by a different thread;
    - the object was already freed (tolerated double free);
    - the reference is to a stack object or to no object at all
      ({!Heap.no_obj}; ignored).

    Small objects are freed on the mcache fast path (clear the alloc bit,
    revert the span's free index when possible).  Large objects take the
    2-step path of fig. 9: pages are returned and the span is marked
    dangling immediately; the span struct itself is retired at the next
    GC sweep. *)

type outcome =
  | Freed of int  (** bytes reclaimed *)
  | Gave_up of Metrics.giveup

(* Shared bookkeeping once a free has been decided: release the slot and
   count the bytes and category its record holds.  [metrics] is the
   calling thread's stripe ([Heap.metrics_for]). *)
let reclaim (heap : Heap.t) (metrics : Metrics.t) (obj : Heap.obj) span slot
    ~source =
  let size = span.Mspan.sizes.(slot) in
  Metrics.count_tcfree metrics
    (Bytes.get_uint8 span.Mspan.cats slot)
    ~source ~bytes:size;
  Mspan.free_slot span slot;
  obj.Heap.freed <- true;
  if heap.Heap.config.Heap.poison_on_free then begin
    obj.Heap.poisoned <- true;
    heap.Heap.poison_payload obj.Heap.payload
  end
  else obj.Heap.payload <- Heap.No_payload;
  Heap.bury heap obj.Heap.addr "tcfree";
  Heap.drop_live heap size;
  metrics.Metrics.tcfree_success <- metrics.Metrics.tcfree_success + 1;
  Freed size

let tcfree_small (heap : Heap.t) metrics ~thread (obj : Heap.obj) span slot
    ~source =
  let cache = heap.Heap.caches.(Heap.proc heap thread) in
  match span.Mspan.state with
  | Mspan.In_mcache owner
    when owner = cache.Mcache.thread_id && Mcache.owns cache span ->
    reclaim heap metrics obj span slot ~source
  | Mspan.In_mcache _ -> Gave_up Metrics.Ownership_changed
  | Mspan.In_mcentral | Mspan.Dangling | Mspan.Free ->
    (* span filled up and was swapped out since the allocation: freeing
       would require locking mcentral, so give up (§5) *)
    Gave_up Metrics.Span_swapped_out

let tcfree_large (heap : Heap.t) metrics (obj : Heap.obj) span slot ~source =
  (* Step 1 of fig. 9: return the pages and mark the span dangling; the
     GC mark phase skips dangling spans and the sweep retires them. *)
  span.Mspan.state <- Mspan.Dangling;
  Pageheap.free_pages heap.Heap.pages span.Mspan.npages;
  heap.Heap.dangling_spans <- span :: heap.Heap.dangling_spans;
  reclaim heap metrics obj span slot ~source

module Trace = Gofree_obs.Trace
module Json = Gofree_obs.Json
let source_name = function
  | Metrics.Src_slice -> "slice"
  | Metrics.Src_map -> "map"
  | Metrics.Src_map_grow -> "map_grow"

(* Trace instants on the runtime track: one per call, labelled with the
   outcome so giveup storms are visible next to GC cycles in Perfetto.
   Only reached when a trace is being captured. *)
let trace_outcome ~source (obj : Heap.obj) =
  let addr = obj.Heap.addr in
  function
  | Freed bytes ->
    Trace.instant
      ~args:
        [
          ("addr", Json.Int addr);
          ("bytes", Json.Int bytes);
          ("source", Json.Str (source_name source));
        ]
      ~tid:Trace.tid_runtime "tcfree"
  | Gave_up reason ->
    Trace.instant
      ~args:
        [
          ("addr", Json.Int addr);
          ("reason", Json.Str Metrics.giveup_names.(Metrics.giveup_index reason));
        ]
      ~tid:Trace.tid_runtime "tcfree giveup"

(** [tcfree heap ~thread ~source obj] — the dispatching primitive of
    Table 4.  [source] records the Table 9 attribution
    (slice / map / map-growth). *)
let tcfree_impl (heap : Heap.t) ~thread ~source (obj : Heap.obj) : outcome =
  let metrics = Heap.metrics_for heap thread in
  metrics.Metrics.tcfree_calls <- metrics.Metrics.tcfree_calls + 1;
  let give_up reason =
    Metrics.count_giveup metrics reason;
    Gave_up reason
  in
  if obj == Heap.no_obj then give_up Metrics.Not_an_object
  else if Heap.is_freed obj then give_up Metrics.Already_freed
  else if Heap.is_stack_obj obj then give_up Metrics.Stack_object
  else if Heap.gc_running heap then give_up Metrics.Gc_running
  else
    match obj.Heap.placement with
    | Heap.On_stack -> give_up Metrics.Stack_object
    | Heap.On_heap (span, slot) ->
      if span.Mspan.class_idx >= 0 then
        let outcome =
          tcfree_small heap metrics ~thread obj span slot ~source
        in
        (match outcome with
        | Gave_up reason -> Metrics.count_giveup metrics reason
        | Freed _ -> ());
        outcome
      else tcfree_large heap metrics obj span slot ~source

(* When more than one domain mutates the heap, the whole check-then-free
   sequence serializes on [free_mutex]: two domains may race to free the
   same object (or a free may race a concurrent span swap), and the
   freed flag and span edits must be atomic with respect to each other.
   The ownership and GC-running *checks* stay inside the lock too — they
   are exactly the §5 give-up conditions this runtime exists to exercise,
   and the lock makes their answer definitive rather than best-effort. *)
let tcfree (heap : Heap.t) ~thread ~source obj : outcome =
  let outcome =
    if Heap.nprocs heap > 1 then begin
      Mutex.lock heap.Heap.free_mutex;
      let o = tcfree_impl heap ~thread ~source obj in
      Mutex.unlock heap.Heap.free_mutex;
      o
    end
    else tcfree_impl heap ~thread ~source obj
  in
  if Trace.enabled () then trace_outcome ~source obj outcome;
  outcome
