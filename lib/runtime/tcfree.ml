(** The tcfree family (paper §5, Table 4): best-effort explicit
    deallocation that never compromises safety — whenever freeing would be
    unsafe or too costly, it gives up and leaves the object for GC.

    Give-up conditions implemented (§5):
    - GC is running concurrently (the simulated mark window);
    - the object's mspan has been swapped out of the allocating thread's
      mcache, or is owned by a different thread;
    - the object was already freed (tolerated double free);
    - the address is a stack object or not an object at all (ignored).

    Small objects are freed on the mcache fast path (clear the alloc bit,
    revert the span's free index when possible).  Large objects take the
    2-step path of fig. 9: pages are returned and the span is marked
    dangling immediately; the span struct itself is retired at the next
    GC sweep. *)

type outcome =
  | Freed of int  (** bytes reclaimed *)
  | Gave_up of Metrics.giveup

(* Shared bookkeeping once a free has been decided.  [metrics] is the
   calling thread's stripe ([Heap.metrics_for]). *)
let reclaim (heap : Heap.t) (metrics : Metrics.t) (obj : Heap.obj) ~source =
  obj.Heap.freed <- true;
  if heap.Heap.config.Heap.poison_on_free then begin
    obj.Heap.poisoned <- true;
    heap.Heap.poison_payload obj.Heap.payload
  end
  else obj.Heap.payload <- Heap.No_payload;
  Heap.bury heap obj.Heap.addr "tcfree";
  Objtable.remove heap.Heap.objects obj.Heap.addr;
  Metrics.count_tcfree metrics ~category:obj.Heap.category
    ~source ~bytes:obj.Heap.size;
  if heap.Heap.shared then Heap.drop_live heap obj.Heap.size;
  metrics.Metrics.tcfree_success <- metrics.Metrics.tcfree_success + 1;
  Freed obj.Heap.size

let tcfree_small (heap : Heap.t) metrics ~thread (obj : Heap.obj) span slot
    ~source =
  let cache = heap.Heap.caches.(thread mod Array.length heap.Heap.caches) in
  match span.Mspan.state with
  | Mspan.In_mcache owner
    when owner = cache.Mcache.thread_id && Mcache.owns cache span ->
    Mspan.free_slot span slot;
    reclaim heap metrics obj ~source
  | Mspan.In_mcache _ -> Gave_up Metrics.Ownership_changed
  | Mspan.In_mcentral | Mspan.Dangling | Mspan.Free ->
    (* span filled up and was swapped out since the allocation: freeing
       would require locking mcentral, so give up (§5) *)
    Gave_up Metrics.Span_swapped_out

let tcfree_large (heap : Heap.t) metrics (obj : Heap.obj) span slot ~source =
  (* Step 1 of fig. 9: return the pages and mark the span dangling; the
     GC mark phase skips dangling spans and the sweep retires them. *)
  Mspan.free_slot span slot;
  span.Mspan.state <- Mspan.Dangling;
  Pageheap.free_pages heap.Heap.pages span.Mspan.npages;
  heap.Heap.dangling_spans <- span :: heap.Heap.dangling_spans;
  reclaim heap metrics obj ~source

module Trace = Gofree_obs.Trace
module Json = Gofree_obs.Json
module Reg = Gofree_obs.Registry

(* Registry counters on the process-global runtime registry, active only
   while something holds [Reg.acquire_runtime] (the per-heap
   [Metrics.t] always counts; these exist so a daemon's telemetry scrape
   sees tcfree activity across every heap it has run). *)
let c_attempts =
  Reg.counter Reg.runtime ~help:"tcfree calls"
    "gofree_tcfree_attempts_total"

let c_freed =
  Reg.counter Reg.runtime ~help:"tcfree calls that freed the object"
    "gofree_tcfree_freed_total"

let c_giveup =
  Reg.counter Reg.runtime ~help:"tcfree calls that deferred to GC"
    "gofree_tcfree_giveup_total"

let c_giveup_by_reason =
  Array.map
    (fun name ->
      Reg.counter Reg.runtime ("gofree_tcfree_giveup_" ^ name ^ "_total"))
    Metrics.giveup_names

let count_outcome = function
  | Freed _ ->
    Reg.incr c_attempts;
    Reg.incr c_freed
  | Gave_up reason ->
    Reg.incr c_attempts;
    Reg.incr c_giveup;
    Reg.incr c_giveup_by_reason.(Metrics.giveup_index reason)

let source_name = function
  | Metrics.Src_slice -> "slice"
  | Metrics.Src_map -> "map"
  | Metrics.Src_map_grow -> "map_grow"

(* Trace instants on the runtime track: one per call, labelled with the
   outcome so giveup storms are visible next to GC cycles in Perfetto.
   Only reached when a trace is being captured. *)
let trace_outcome ~source addr = function
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

(** [tcfree heap ~thread ~source addr] — the dispatching primitive of
    Table 4.  [source] records the Table 9 attribution
    (slice / map / map-growth). *)
let tcfree_impl (heap : Heap.t) ~thread ~source addr : outcome =
  let metrics = Heap.metrics_for heap thread in
  metrics.Metrics.tcfree_calls <- metrics.Metrics.tcfree_calls + 1;
  let give_up reason =
    Metrics.count_giveup metrics reason;
    Gave_up reason
  in
  if addr <= 0 then give_up Metrics.Not_an_object
  else
    match Heap.find_obj heap addr with
    | None -> give_up Metrics.Already_freed
    | Some obj ->
      if obj.Heap.freed then give_up Metrics.Already_freed
      else if Heap.is_stack_obj obj then give_up Metrics.Stack_object
      else if Heap.gc_running heap then give_up Metrics.Gc_running
      else begin
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
      end

(* On a shared heap the whole check-then-free sequence serializes on
   [free_mutex]: two domains may race to free the same address (or a
   free may race a concurrent span swap), and the span/objtable edits
   must be atomic with respect to each other.  The ownership and
   GC-running *checks* stay inside the lock too — they are exactly the
   §5 give-up conditions this runtime exists to exercise, and the lock
   makes their answer definitive rather than best-effort. *)
let tcfree (heap : Heap.t) ~thread ~source addr : outcome =
  let outcome =
    if heap.Heap.shared then begin
      Mutex.lock heap.Heap.free_mutex;
      let o = tcfree_impl heap ~thread ~source addr in
      Mutex.unlock heap.Heap.free_mutex;
      o
    end
    else tcfree_impl heap ~thread ~source addr
  in
  if Reg.runtime_enabled () then count_outcome outcome;
  if Trace.enabled () then trace_outcome ~source addr outcome;
  outcome
