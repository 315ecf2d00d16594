(** Non-moving mark-sweep collector with GOGC pacing (paper §3.3).

    Mark: walk from the mutator's registered roots through payload
    tracers, setting mark bits.  Heap objects that reference stack objects
    are Go memory-invariant violations and are counted (they must never
    occur if the escape analysis is sound).

    Mark bits are a per-heap epoch: a cycle bumps [Heap.mark_epoch], and
    an object is marked when its mark equals it, so nothing resets them.
    A heap object's mark is its span slot's ({!Mspan.mark}); a stack
    object's is its record's [marked].

    Scan work ([gc_scan_words]) is Go's pacer unit: the words of every
    marked heap object whose payload the mark walks, the requested size
    its slot records, rounded up.  A noscan object, whose
    [Heap.trace_payload] walks nothing, is marked but costs none.  Stack
    objects are frame storage, scanned with the roots, and not counted.

    Sweep: span by span, as Go sweeps.  It walks every in-use span —
    each processor's mcache spans, mcentral's partial and full lists and
    each processor's large-object spans — and frees every allocated slot
    this cycle's mark did not stamp, counting it by the category and
    dropping the requested bytes its slot records.  The swept object's
    record is not touched (the heap holds none): its slot no longer
    records its address, which is what {!Heap.is_freed} reads.  In poison
    mode the slot's occupant is poisoned and buried as well (§6.8).
    Dangling spans from the 2-step large-object tcfree (fig. 9) are
    retired here, and completely empty spans hand their pages back to the
    page heap.

    Pacing: the next cycle triggers when live heap grows past
    [heap_marked * (1 + GOGC/100)], Go's soft-goal mechanism (§6.4).

    This is the only collector.  With several domains it still runs on
    one of them, with the world stopped (see [Interp.par_gc]); mark and
    sweep themselves are sequential.  GC accounting lands on metric
    stripe 0 and the swept bytes come off the heap's one live count. *)

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let mark (heap : Heap.t) =
  let epoch = heap.Heap.mark_epoch in
  let metrics = heap.Heap.metrics in
  let gray = Stack.create () in
  let reached (obj : Heap.obj) =
    metrics.Metrics.gc_marked_objects <-
      metrics.Metrics.gc_marked_objects + 1;
    Stack.push obj gray
  in
  let push from_heap (obj : Heap.obj) =
    (* a freed object is a dangling value: not traced, not counted *)
    if not (Heap.is_freed obj) then
      match obj.Heap.placement with
      | Heap.On_heap (span, slot) ->
        if Mspan.mark span slot <> epoch then begin
          Mspan.set_mark span slot epoch;
          span.Mspan.nmarked <- span.Mspan.nmarked + 1;
          reached obj
        end
      | Heap.On_stack ->
        if from_heap then
          metrics.Metrics.heap_to_stack_pointers <-
            metrics.Metrics.heap_to_stack_pointers + 1;
        if obj.Heap.marked <> epoch then begin
          obj.Heap.marked <- epoch;
          reached obj
        end
  in
  let push_from_stack = push false and push_from_heap = push true in
  heap.Heap.iter_roots push_from_stack;
  while not (Stack.is_empty gray) do
    let obj = Stack.pop gray in
    (* A dangling large span's contents are skipped by marking (fig. 9):
       its object is already freed, so it is never pushed; nothing to
       special-case. *)
    match obj.Heap.placement with
    | Heap.On_heap (span, slot) ->
      if heap.Heap.trace_payload obj.Heap.payload push_from_heap then
        metrics.Metrics.gc_scan_words <-
          metrics.Metrics.gc_scan_words + ((span.Mspan.sizes.(slot) + 7) / 8)
    | Heap.On_stack ->
      ignore (heap.Heap.trace_payload obj.Heap.payload push_from_stack : bool)
  done

(* Poison mode: poison and bury the occupant of a slot being swept. *)
let poison_occupant (heap : Heap.t) (span : Mspan.t) slot =
  match span.Mspan.occupants.(slot) with
  | Heap.Occupant o ->
    o.Heap.freed <- true;
    o.Heap.poisoned <- true;
    heap.Heap.poison_payload o.Heap.payload;
    Heap.bury heap o.Heap.addr
      (Printf.sprintf "swept by GC cycle %d"
         (heap.Heap.metrics.Metrics.gc_cycles + 1))
  | _ -> ()

(* Free every allocated slot of [span] the mark of [epoch] did not reach;
   returns the requested bytes freed.  The walk stops at the last such
   slot, so a span whose every object was marked costs nothing. *)
let sweep_span (heap : Heap.t) epoch (span : Mspan.t) =
  let metrics = heap.Heap.metrics in
  let poison = heap.Heap.config.Heap.poison_on_free in
  metrics.Metrics.gc_spans_swept <- metrics.Metrics.gc_spans_swept + 1;
  let unmarked = ref (span.Mspan.allocated - span.Mspan.nmarked) in
  span.Mspan.nmarked <- 0;
  let bytes = ref 0 and slot = ref 0 in
  while !unmarked > 0 && !slot < span.Mspan.nslots do
    let s = !slot in
    if Mspan.slot_allocated span s
       && Mspan.mark span s <> epoch
    then begin
      metrics.Metrics.gc_swept_objects <- metrics.Metrics.gc_swept_objects + 1;
      Metrics.count_gc_free metrics (Bytes.get_uint8 span.Mspan.cats s);
      bytes := !bytes + span.Mspan.sizes.(s);
      if poison then poison_occupant heap span s;
      Mspan.free_slot span s;
      decr unmarked
    end;
    incr slot
  done;
  !bytes

let sweep (heap : Heap.t) =
  let epoch = heap.Heap.mark_epoch in
  let swept_bytes = ref 0 in
  let sweep_small span =
    swept_bytes := !swept_bytes + sweep_span heap epoch span
  in
  Array.iter
    (fun (cache : Mcache.t) ->
      Array.iter (Option.iter sweep_small) cache.Mcache.spans)
    heap.Heap.caches;
  Mcentral.iter_spans heap.Heap.central sweep_small;
  (* A large span stays listed while its object lives.  One that tcfree
     freed is dangling and retired below; one the mark missed is swept
     and its pages freed now. *)
  let still_large (span : Mspan.t) =
    if span.Mspan.allocated > 0 then sweep_small span;
    if span.Mspan.allocated > 0 then true
    else begin
      if span.Mspan.state <> Mspan.Dangling then begin
        span.Mspan.state <- Mspan.Free;
        Pageheap.free_pages heap.Heap.pages span.Mspan.npages
      end;
      false
    end
  in
  Array.iteri
    (fun p spans -> heap.Heap.large_spans.(p) <- List.filter still_large spans)
    heap.Heap.large_spans;
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
