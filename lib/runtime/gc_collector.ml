(** Non-moving mark-sweep collector with GOGC pacing (paper §3.3).

    Mark: walk from the mutator's registered roots through payload
    tracers, setting mark bits.  Heap objects that reference stack objects
    are Go memory-invariant violations and are counted (they must never
    occur if the escape analysis is sound).

    Mark bits are a per-heap epoch: a cycle bumps [Heap.mark_epoch], and
    an object is marked when its [marked] equals it, so nothing resets
    them, stack objects included.

    Sweep: every unmarked heap object is freed — its span slot is
    released and it leaves its processor's object array, which the sweep
    compacts in place, in allocation order.  Dangling spans
    from the 2-step large-object tcfree (fig. 9) are retired here, and
    completely empty spans hand their pages back to the page heap.

    Pacing: the next cycle triggers when live heap grows past
    [heap_marked * (1 + GOGC/100)], Go's soft-goal mechanism (§6.4).

    This is the only collector.  With several domains it still runs on
    one of them, with the world stopped (see [Interp.par_gc]); mark and
    sweep themselves are sequential.  GC accounting lands on metric
    stripe 0 and the swept bytes come off the heap's one live count. *)

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let mark (heap : Heap.t) =
  let stack = Stack.create () in
  let epoch = heap.Heap.mark_epoch in
  let push from_heap (obj : Heap.obj) =
    (* a freed object is a dangling value: not traced, not counted *)
    if not obj.Heap.freed then begin
      if from_heap && Heap.is_stack_obj obj then
        heap.Heap.metrics.Metrics.heap_to_stack_pointers <-
          heap.Heap.metrics.Metrics.heap_to_stack_pointers + 1;
      if obj.Heap.marked <> epoch then begin
        obj.Heap.marked <- epoch;
        heap.Heap.metrics.Metrics.gc_marked_objects <-
          heap.Heap.metrics.Metrics.gc_marked_objects + 1;
        Stack.push obj stack
      end
    end
  in
  heap.Heap.iter_roots (push false);
  while not (Stack.is_empty stack) do
    let obj = Stack.pop stack in
    let from_heap = not (Heap.is_stack_obj obj) in
    (* A dangling large span's contents are skipped by marking (fig. 9):
       its object is already freed, so it is never pushed; nothing to
       special-case. *)
    heap.Heap.trace_payload obj.Heap.payload (push from_heap)
  done

(* Free one unmarked heap object. *)
let sweep_obj (heap : Heap.t) (o : Heap.obj) =
  let metrics = heap.Heap.metrics in
  metrics.Metrics.gc_swept_objects <- metrics.Metrics.gc_swept_objects + 1;
  (match o.Heap.placement with
  | Heap.On_heap (span, slot) ->
    Mspan.free_slot span slot;
    if span.Mspan.class_idx < 0 then begin
      (* unreferenced large object: free its dedicated span now *)
      span.Mspan.state <- Mspan.Free;
      Pageheap.free_pages heap.Heap.pages span.Mspan.npages
    end
  | Heap.On_stack -> assert false);
  o.Heap.freed <- true;
  if heap.Heap.config.Heap.poison_on_free then begin
    o.Heap.poisoned <- true;
    heap.Heap.poison_payload o.Heap.payload;
    (* the tombstone string is only kept in poison mode *)
    Heap.bury heap o.Heap.addr
      (Printf.sprintf "swept by GC cycle %d" (metrics.Metrics.gc_cycles + 1))
  end;
  Metrics.count_gc_free metrics ~category:o.Heap.category

(* Compact every processor's object array in place: marked objects stay,
   in allocation order; objects tcfree freed since the last cycle leave;
   unmarked ones are swept. *)
let sweep (heap : Heap.t) =
  let epoch = heap.Heap.mark_epoch in
  let swept_bytes = ref 0 in
  let keep (o : Heap.obj) =
    if o.Heap.freed then false
    else if o.Heap.marked = epoch then true
    else begin
      swept_bytes := !swept_bytes + o.Heap.size;
      sweep_obj heap o;
      false
    end
  in
  Array.iter (fun s -> Heap.filter_objs s keep) heap.Heap.heap_objs;
  Heap.drop_live heap !swept_bytes;
  (* Step 2 of the large-object tcfree (fig. 9): dangling span structs
     join the idle pool after the mark phase. *)
  List.iter
    (fun (span : Mspan.t) -> span.Mspan.state <- Mspan.Free)
    heap.Heap.dangling_spans;
  heap.Heap.dangling_spans <- [];
  Mcentral.rebucket_after_sweep heap.Heap.central

module Trace = Gofree_obs.Trace
module Json = Gofree_obs.Json
module Reg = Gofree_obs.Registry

(* Pause/gap instruments live on the process-global runtime registry and
   record only while something (a daemon, a bench) holds
   [Reg.acquire_runtime] — otherwise each [collect] pays one atomic
   load.  Exponential rungs: simulated cycles span 10 µs "pauses" to
   multi-second gaps between cycles. *)
let gc_buckets_ms = Reg.exponential_buckets ~start:0.01 ~factor:2.0 ~count:18

let h_gc_pause =
  Reg.histogram Reg.runtime ~buckets:gc_buckets_ms
    ~help:"stop-the-world GC cycle duration (mark + sweep)"
    "gofree_gc_pause_ms"

let h_gc_gap =
  Reg.histogram Reg.runtime ~buckets:gc_buckets_ms
    ~help:"gap between consecutive GC cycles (end to start)"
    "gofree_gc_gap_ms"

(** Run one full GC cycle and update pacing.  At any domain count the
    caller has stopped the world: with several domains the scheduler's
    stop-the-world leader runs it while the others wait. *)
let collect (heap : Heap.t) =
  let metrics = heap.Heap.metrics in
  if Trace.enabled () then
    Trace.begin_span
      ~args:
        [
          ("cycle", Json.Int (metrics.Metrics.gc_cycles + 1));
          ("heap_live", Json.Int (Heap.live_bytes heap));
        ]
      ~tid:Trace.tid_runtime "gc cycle";
  let t0 = now_ns () in
  heap.Heap.mark_epoch <- heap.Heap.mark_epoch + 1;
  Trace.with_span ~tid:Trace.tid_runtime "mark" (fun () -> mark heap);
  Trace.with_span ~tid:Trace.tid_runtime "sweep" (fun () -> sweep heap);
  let t1 = now_ns () in
  if Trace.enabled () then begin
    Trace.end_span ~tid:Trace.tid_runtime "gc cycle";
    Trace.counter ~tid:Trace.tid_runtime "heap"
      [
        ("live", float_of_int (Heap.live_bytes heap));
        ( "span_bytes",
          float_of_int (Pageheap.used_bytes heap.Heap.pages) );
      ]
  end;
  metrics.Metrics.gc_cycles <- metrics.Metrics.gc_cycles + 1;
  metrics.Metrics.gc_time_ns <-
    Int64.add metrics.Metrics.gc_time_ns (Int64.sub t1 t0);
  if Reg.runtime_enabled () then begin
    Reg.observe h_gc_pause (Int64.to_float (Int64.sub t1 t0) /. 1e6);
    if heap.Heap.last_gc_end_ns <> 0L then
      Reg.observe h_gc_gap
        (Int64.to_float (Int64.sub t0 heap.Heap.last_gc_end_ns) /. 1e6)
  end;
  heap.Heap.last_gc_end_ns <- t1;
  let marked = Heap.live_bytes heap in
  heap.Heap.next_gc <-
    max heap.Heap.config.Heap.min_heap
      (marked + (marked * heap.Heap.config.Heap.gogc / 100));
  (* Open the simulated concurrent-mark window: for the next few
     allocations, tcfree behaves as if GC were still running. *)
  heap.Heap.gc_window_left <- heap.Heap.config.Heap.concurrent_gc_window;
  heap.Heap.gc_requested <- false

(** Safepoint check: run a cycle if the pacer requested one. *)
let maybe_collect (heap : Heap.t) =
  if heap.Heap.gc_requested && not heap.Heap.config.Heap.gc_disabled then
    collect heap
