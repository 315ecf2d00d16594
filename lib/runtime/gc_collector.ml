(** Non-moving mark-sweep collector with GOGC pacing (paper §3.3).

    Mark: walk from the mutator's registered roots through payload
    tracers, setting mark bits.  Heap objects that reference stack objects
    are Go memory-invariant violations and are counted (they must never
    occur if the escape analysis is sound).

    Sweep: every unmarked heap object is freed — its span slot is
    released and the object disappears from the store.  Dangling spans
    from the 2-step large-object tcfree (fig. 9) are retired here, and
    completely empty spans hand their pages back to the page heap.

    Pacing: the next cycle triggers when live heap grows past
    [heap_marked * (1 + GOGC/100)], Go's soft-goal mechanism (§6.4). *)

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let mark (heap : Heap.t) =
  let stack = Stack.create () in
  let push_addr from_heap addr =
    if addr > 0 then
      (* an absent object is a dangling value, already freed *)
      let obj = Heap.find heap addr in
      if obj != Heap.no_obj then begin
        if from_heap && Heap.is_stack_obj obj then
          heap.Heap.metrics.Metrics.heap_to_stack_pointers <-
            heap.Heap.metrics.Metrics.heap_to_stack_pointers + 1;
        if not obj.Heap.marked then begin
          obj.Heap.marked <- true;
          heap.Heap.metrics.Metrics.gc_marked_objects <-
            heap.Heap.metrics.Metrics.gc_marked_objects + 1;
          Stack.push obj stack
        end
      end
  in
  heap.Heap.iter_roots (push_addr false);
  while not (Stack.is_empty stack) do
    let obj = Stack.pop stack in
    let from_heap = not (Heap.is_stack_obj obj) in
    (* A dangling large span's contents are skipped by marking (fig. 9):
       its object is already freed and no longer in the store, so it can
       never be popped here; nothing to special-case. *)
    heap.Heap.trace_payload obj.Heap.payload (push_addr from_heap)
  done

let sweep (heap : Heap.t) =
  let metrics = heap.Heap.metrics in
  let dead =
    Objtable.fold
      (fun _ (o : Heap.obj) acc ->
        if Heap.is_stack_obj o then begin
          (* stack objects are never swept, but their mark bits must be
             reset or the next cycle would skip tracing through them *)
          o.Heap.marked <- false;
          acc
        end
        else if o.Heap.marked then begin
          o.Heap.marked <- false;
          acc
        end
        else o :: acc)
      heap.Heap.objects []
  in
  List.iter
    (fun (o : Heap.obj) ->
      metrics.Metrics.gc_swept_objects <-
        metrics.Metrics.gc_swept_objects + 1;
      (match o.Heap.placement with
      | Heap.On_heap (span, slot) ->
        if span.Mspan.class_idx >= 0 then Mspan.free_slot span slot
        else begin
          (* unreferenced large object: free its dedicated span now *)
          Mspan.free_slot span slot;
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
          (Printf.sprintf "swept by GC cycle %d"
             (metrics.Metrics.gc_cycles + 1))
      end;
      Metrics.count_gc_free metrics ~category:o.Heap.category
        ~bytes:o.Heap.size;
      Objtable.remove heap.Heap.objects o.Heap.addr)
    dead;
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

(** Run one full GC cycle and update pacing. *)
let collect (heap : Heap.t) =
  let metrics = heap.Heap.metrics in
  if Trace.enabled () then
    Trace.begin_span
      ~args:
        [
          ("cycle", Json.Int (metrics.Metrics.gc_cycles + 1));
          ("heap_live", Json.Int metrics.Metrics.heap_live);
        ]
      ~tid:Trace.tid_runtime "gc cycle";
  let t0 = now_ns () in
  Trace.with_span ~tid:Trace.tid_runtime "mark" (fun () -> mark heap);
  Trace.with_span ~tid:Trace.tid_runtime "sweep" (fun () -> sweep heap);
  let t1 = now_ns () in
  if Trace.enabled () then begin
    Trace.end_span ~tid:Trace.tid_runtime "gc cycle";
    Trace.counter ~tid:Trace.tid_runtime "heap"
      [
        ("live", float_of_int metrics.Metrics.heap_live);
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
  let marked = metrics.Metrics.heap_live in
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

(** Parallel mark + per-domain sweep for the multi-domain runtime.

    The whole cycle runs stop-the-world: the scheduler parks every
    mutator at a safepoint, then the GC leader builds a {!Par.cycle}
    and all rendezvoused domains help drain it.

    Mark: a shared grey list under the cycle mutex.  A worker takes an
    object, traces its payload *outside* the lock (the expensive part),
    then publishes children and mark bits back under the lock —
    check-and-set of mark bits is serialized so no object is counted
    twice.  Mark terminates when the grey list is empty and no worker
    is mid-trace.

    Sweep: workers claim object-table shards via an atomic ticket and
    scan them concurrently (mark-bit resets and dead-list collection
    touch disjoint shards).  The *application* of the dead list — span
    slot frees, page returns, metric updates, table removals — is then
    done serially by the leader: those structures are cross-shard and
    serializing the apply keeps the span state machine free of
    concurrent transitions.  GC accounting lands on metric stripe 0. *)
module Par = struct
  type cycle = {
    heap : Heap.t;
    mu : Mutex.t;
    cv : Condition.t;
    mutable grey : Heap.obj list;
    mutable tracing : int;  (* workers currently tracing a payload *)
    mutable mark_done : bool;
    mutable marked : int;  (* objects marked this cycle *)
    mutable h2s : int;  (* heap->stack edges observed while marking *)
    shard_next : int Atomic.t;  (* sweep-scan ticket *)
    mutable scanned : int;  (* shards folded and appended to [dead] *)
    mutable dead : Heap.obj list;
    mutable finished : bool;
    t0 : int64;
  }

  (* Must be called with [c.mu] held (or pre-publication by the leader,
     when no other domain can see the cycle yet). *)
  let push_addr c from_heap addr =
    if addr > 0 then
      (* an absent object is a dangling value, already freed *)
      let obj = Heap.find c.heap addr in
      if obj != Heap.no_obj then begin
        if from_heap && Heap.is_stack_obj obj then c.h2s <- c.h2s + 1;
        if not obj.Heap.marked then begin
          obj.Heap.marked <- true;
          c.marked <- c.marked + 1;
          c.grey <- obj :: c.grey
        end
      end

  (** Build a cycle and seed the grey list from the roots.  Leader-only,
      before the cycle is published to helpers. *)
  let start (heap : Heap.t) : cycle =
    let c =
      {
        heap;
        mu = Mutex.create ();
        cv = Condition.create ();
        grey = [];
        tracing = 0;
        mark_done = false;
        marked = 0;
        h2s = 0;
        shard_next = Atomic.make 0;
        scanned = 0;
        dead = [];
        finished = false;
        t0 = now_ns ();
      }
    in
    heap.Heap.iter_roots (push_addr c false);
    c

  let mark_worker c =
    Mutex.lock c.mu;
    let rec loop () =
      if c.mark_done then Mutex.unlock c.mu
      else
        match c.grey with
        | [] ->
          if c.tracing = 0 then begin
            c.mark_done <- true;
            Condition.broadcast c.cv;
            Mutex.unlock c.mu
          end
          else begin
            Condition.wait c.cv c.mu;
            loop ()
          end
        | obj :: rest ->
          c.grey <- rest;
          c.tracing <- c.tracing + 1;
          Mutex.unlock c.mu;
          let from_heap = not (Heap.is_stack_obj obj) in
          let children = ref [] in
          c.heap.Heap.trace_payload obj.Heap.payload (fun a ->
              children := a :: !children);
          Mutex.lock c.mu;
          List.iter (push_addr c from_heap) !children;
          c.tracing <- c.tracing - 1;
          Condition.broadcast c.cv;
          loop ()
    in
    loop ()

  let scan_worker c =
    let objects = c.heap.Heap.objects in
    let n = Objtable.nshards objects in
    let rec grab () =
      let i = Atomic.fetch_and_add c.shard_next 1 in
      if i < n then begin
        let dead =
          Objtable.fold_shard
            (fun _ (o : Heap.obj) acc ->
              if Heap.is_stack_obj o then begin
                (* never swept, but the mark bit must reset or the next
                   cycle would skip tracing through it *)
                o.Heap.marked <- false;
                acc
              end
              else if o.Heap.marked then begin
                o.Heap.marked <- false;
                acc
              end
              else o :: acc)
            objects i []
        in
        Mutex.lock c.mu;
        c.dead <- List.rev_append dead c.dead;
        c.scanned <- c.scanned + 1;
        Condition.broadcast c.cv;
        Mutex.unlock c.mu;
        grab ()
      end
    in
    grab ()

  (* Serial application of the concurrently collected dead list, plus
     pacing — leader only, after every shard has been scanned. *)
  let apply c =
    let heap = c.heap in
    let metrics = heap.Heap.metrics in
    metrics.Metrics.gc_marked_objects <-
      metrics.Metrics.gc_marked_objects + c.marked;
    metrics.Metrics.heap_to_stack_pointers <-
      metrics.Metrics.heap_to_stack_pointers + c.h2s;
    List.iter
      (fun (o : Heap.obj) ->
        metrics.Metrics.gc_swept_objects <-
          metrics.Metrics.gc_swept_objects + 1;
        (match o.Heap.placement with
        | Heap.On_heap (span, slot) ->
          if span.Mspan.class_idx >= 0 then Mspan.free_slot span slot
          else begin
            Mspan.free_slot span slot;
            span.Mspan.state <- Mspan.Free;
            Pageheap.free_pages heap.Heap.pages span.Mspan.npages
          end
        | Heap.On_stack -> assert false);
        o.Heap.freed <- true;
        if heap.Heap.config.Heap.poison_on_free then begin
          o.Heap.poisoned <- true;
          heap.Heap.poison_payload o.Heap.payload;
          Heap.bury heap o.Heap.addr
            (Printf.sprintf "swept by GC cycle %d"
               (metrics.Metrics.gc_cycles + 1))
        end;
        Metrics.count_gc_free metrics ~category:o.Heap.category
          ~bytes:o.Heap.size;
        Heap.drop_live heap o.Heap.size;
        Objtable.remove heap.Heap.objects o.Heap.addr)
      c.dead;
    List.iter
      (fun (span : Mspan.t) -> span.Mspan.state <- Mspan.Free)
      heap.Heap.dangling_spans;
    heap.Heap.dangling_spans <- [];
    Mcentral.rebucket_after_sweep heap.Heap.central;
    let t1 = now_ns () in
    metrics.Metrics.gc_cycles <- metrics.Metrics.gc_cycles + 1;
    metrics.Metrics.gc_time_ns <-
      Int64.add metrics.Metrics.gc_time_ns (Int64.sub t1 c.t0);
    if Reg.runtime_enabled () then begin
      Reg.observe h_gc_pause (Int64.to_float (Int64.sub t1 c.t0) /. 1e6);
      if heap.Heap.last_gc_end_ns <> 0L then
        Reg.observe h_gc_gap
          (Int64.to_float (Int64.sub c.t0 heap.Heap.last_gc_end_ns) /. 1e6)
    end;
    heap.Heap.last_gc_end_ns <- t1;
    let live = Heap.live_bytes heap in
    heap.Heap.next_gc <-
      max heap.Heap.config.Heap.min_heap
        (live + (live * heap.Heap.config.Heap.gogc / 100));
    heap.Heap.gc_window_left <- heap.Heap.config.Heap.concurrent_gc_window;
    heap.Heap.gc_requested <- false

  (** Drive the cycle as the leader: help mark and scan, wait for every
      claimed shard to be appended, apply, release the helpers. *)
  let run_leader c =
    if Trace.enabled () then
      Trace.begin_span
        ~args:[ ("cycle", Json.Int (c.heap.Heap.metrics.Metrics.gc_cycles + 1)) ]
        ~tid:Trace.tid_runtime "gc cycle (par)";
    mark_worker c;
    scan_worker c;
    let n = Objtable.nshards c.heap.Heap.objects in
    Mutex.lock c.mu;
    while c.scanned < n do
      Condition.wait c.cv c.mu
    done;
    Mutex.unlock c.mu;
    apply c;
    if Trace.enabled () then
      Trace.end_span ~tid:Trace.tid_runtime "gc cycle (par)";
    Mutex.lock c.mu;
    c.finished <- true;
    Condition.broadcast c.cv;
    Mutex.unlock c.mu

  (** Help an in-flight cycle from a rendezvoused domain, returning once
      the leader has finished applying it. *)
  let run_helper c =
    Mutex.lock c.mu;
    let already_finished = c.finished in
    Mutex.unlock c.mu;
    if not already_finished then begin
      mark_worker c;
      scan_worker c;
      Mutex.lock c.mu;
      while not c.finished do
        Condition.wait c.cv c.mu
      done;
      Mutex.unlock c.mu
    end
end
