(** tcfree runtime tests (paper §5): the fast small-object path, the
    2-step large-object path (fig. 9), and every give-up condition. *)

open Gofree_runtime

let alloc heap ?(thread = 0) ?(size = 64) () =
  Heap.alloc_heap heap ~thread ~category:Metrics.Cat_slice ~size
    ~payload:Heap.No_payload

let free heap ?(thread = 0) addr =
  Tcfree.tcfree heap ~thread ~source:Metrics.Src_slice addr

let check_freed what outcome bytes =
  match outcome with
  | Tcfree.Freed n -> Alcotest.(check int) what bytes n
  | Tcfree.Gave_up _ -> Alcotest.failf "%s: unexpected give-up" what

let check_gave_up what outcome reason =
  match outcome with
  | Tcfree.Gave_up r ->
    Alcotest.(check int) what
      (Metrics.giveup_index reason)
      (Metrics.giveup_index r)
  | Tcfree.Freed _ -> Alcotest.failf "%s: unexpected free" what

let test_small_fast_path () =
  let heap = Heap.create () in
  let obj = alloc heap () in
  let span =
    match obj.Heap.placement with
    | Heap.On_heap (s, _) -> s
    | _ -> assert false
  in
  let before = span.Mspan.free_index in
  check_freed "small free" (free heap obj.Heap.addr) 64;
  Alcotest.(check bool) "object gone" true
    (Heap.find_obj heap obj.Heap.addr = None);
  Alcotest.(check int) "free index reverted" (before - 1)
    span.Mspan.free_index;
  Alcotest.(check int) "bytes counted" 64
    heap.Heap.metrics.Metrics.freed_bytes;
  Alcotest.(check int) "heap live back to zero" 0
    heap.Heap.metrics.Metrics.heap_live

let test_double_free_tolerated () =
  let heap = Heap.create () in
  let obj = alloc heap () in
  check_freed "first" (free heap obj.Heap.addr) 64;
  check_gave_up "second is a tolerated no-op" (free heap obj.Heap.addr)
    Metrics.Already_freed;
  Alcotest.(check int) "bytes counted once" 64
    heap.Heap.metrics.Metrics.freed_bytes

let test_stack_object_ignored () =
  let heap = Heap.create () in
  let obj =
    Heap.alloc_stack heap ~category:Metrics.Cat_slice ~size:64
      ~payload:Heap.No_payload
  in
  check_gave_up "stack ignored" (free heap obj.Heap.addr)
    Metrics.Stack_object;
  Alcotest.(check bool) "stack object untouched" true
    (Heap.find_obj heap obj.Heap.addr <> None)

let test_nil_and_garbage_addresses () =
  let heap = Heap.create () in
  check_gave_up "nil" (free heap 0) Metrics.Not_an_object;
  check_gave_up "negative" (free heap (-3)) Metrics.Not_an_object;
  check_gave_up "never allocated" (free heap 123456)
    Metrics.Already_freed

let test_gc_running_backoff () =
  let heap = Heap.create () in
  let obj = alloc heap () in
  (* keep the object reachable, then run a cycle: the simulated
     concurrent window opens *)
  heap.Heap.iter_roots <- (fun k -> k obj.Heap.addr);
  Gc_collector.collect heap;
  Alcotest.(check bool) "window open" true (Heap.gc_running heap);
  check_gave_up "backs off while GC runs" (free heap obj.Heap.addr)
    Metrics.Gc_running;
  (* window expires after enough allocations *)
  for _ = 1 to Heap.default_config.Heap.concurrent_gc_window do
    ignore (alloc heap ())
  done;
  Alcotest.(check bool) "window closed" false (Heap.gc_running heap)

let test_ownership_change_backoff () =
  let heap = Heap.create ~nprocs:2 () in
  let obj = alloc heap ~thread:0 () in
  check_gave_up "other thread cannot free" (free heap ~thread:1 obj.Heap.addr)
    Metrics.Ownership_changed;
  (* the rightful owner still can *)
  check_freed "owner frees" (free heap ~thread:0 obj.Heap.addr) 64

let test_span_swapped_out_backoff () =
  let heap = Heap.create () in
  let obj = alloc heap ~size:8192 () in
  let span =
    match obj.Heap.placement with
    | Heap.On_heap (s, _) -> s
    | _ -> assert false
  in
  (* exhaust the span so the mcache swaps it out *)
  let needed = span.Mspan.nslots in
  for _ = 2 to needed + 1 do
    ignore (alloc heap ~size:8192 ())
  done;
  Alcotest.(check bool) "span was swapped out" true
    (span.Mspan.state = Mspan.In_mcentral);
  check_gave_up "swapped-out span" (free heap obj.Heap.addr)
    Metrics.Span_swapped_out

let test_large_two_step () =
  let heap = Heap.create () in
  let size = Sizeclass.max_small * 4 in
  let obj = alloc heap ~size () in
  let span =
    match obj.Heap.placement with
    | Heap.On_heap (s, _) -> s
    | _ -> assert false
  in
  let free_pages_before = heap.Heap.pages.Pageheap.free_pages in
  check_freed "large freed" (free heap obj.Heap.addr) size;
  (* step 1: pages returned immediately, span left dangling *)
  Alcotest.(check bool) "span dangling" true
    (span.Mspan.state = Mspan.Dangling);
  Alcotest.(check int) "pages returned"
    (free_pages_before + span.Mspan.npages)
    heap.Heap.pages.Pageheap.free_pages;
  Alcotest.(check bool) "span queued for GC" true
    (List.memq span heap.Heap.dangling_spans);
  (* step 2: the next GC sweep retires the span struct *)
  Gc_collector.collect heap;
  Alcotest.(check bool) "span retired" true (span.Mspan.state = Mspan.Free);
  Alcotest.(check (list pass)) "dangling list drained" []
    (List.map (fun _ -> ()) heap.Heap.dangling_spans)

let test_slot_reuse_after_tcfree () =
  let heap = Heap.create () in
  let obj1 = alloc heap () in
  let slot1 =
    match obj1.Heap.placement with
    | Heap.On_heap (_, s) -> s
    | _ -> assert false
  in
  check_freed "free" (free heap obj1.Heap.addr) 64;
  let obj2 = alloc heap () in
  let slot2 =
    match obj2.Heap.placement with
    | Heap.On_heap (_, s) -> s
    | _ -> assert false
  in
  Alcotest.(check int) "slot reused" slot1 slot2;
  Alcotest.(check bool) "new address, no aliasing" true
    (obj1.Heap.addr <> obj2.Heap.addr)

let test_giveup_metrics () =
  let heap = Heap.create () in
  let obj = alloc heap () in
  ignore (free heap obj.Heap.addr);
  ignore (free heap obj.Heap.addr);
  ignore (free heap 0);
  let m = heap.Heap.metrics in
  Alcotest.(check int) "calls" 3 m.Metrics.tcfree_calls;
  Alcotest.(check int) "successes" 1 m.Metrics.tcfree_success;
  Alcotest.(check int) "double free counted" 1
    m.Metrics.giveups.(Metrics.giveup_index Metrics.Already_freed);
  Alcotest.(check int) "not-an-object counted" 1
    m.Metrics.giveups.(Metrics.giveup_index Metrics.Not_an_object)

(* -------------------------------------------------------------- *)
(* Multi-domain stress (the shared-heap configuration)              *)
(* -------------------------------------------------------------- *)

let test_cross_domain_ownership_stress () =
  (* 4 domains allocate on their own mcaches, then every domain frees
     its neighbour's objects: the span-ownership check must make each
     of those a give-up (ownership changed, or span already swapped
     out), local frees keep succeeding, and the striped counters must
     balance exactly. *)
  let nd = 4 and per = 400 in
  let heap = Heap.create ~nprocs:nd ~shared:true () in
  let objs = Array.make_matrix nd per 0 in
  let doms =
    Array.init nd (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              objs.(d).(i) <- (alloc heap ~thread:d ()).Heap.addr
            done))
  in
  Array.iter Domain.join doms;
  let freers =
    Array.init nd (fun d ->
        Domain.spawn (fun () ->
            (* neighbour's objects first (cross-domain), then own *)
            for i = 0 to per - 1 do
              ignore (free heap ~thread:d objs.((d + 1) mod nd).(i))
            done;
            for i = 0 to per - 1 do
              ignore (free heap ~thread:d objs.(d).(i))
            done))
  in
  Array.iter Domain.join freers;
  let m = Heap.merged_metrics heap in
  Alcotest.(check int) "every free attempted" (2 * nd * per)
    m.Metrics.tcfree_calls;
  Alcotest.(check int) "attempts = successes + giveups"
    m.Metrics.tcfree_calls
    (m.Metrics.tcfree_success + Array.fold_left ( + ) 0 m.Metrics.giveups);
  let cross_giveups =
    m.Metrics.giveups.(Metrics.giveup_index Metrics.Ownership_changed)
    + m.Metrics.giveups.(Metrics.giveup_index Metrics.Span_swapped_out)
  in
  Alcotest.(check bool)
    "cross-domain frees hit the ownership protocol" true (cross_giveups > 0);
  (* nothing was GC'd, so whatever tcfree could not take is still live *)
  let live = (nd * per) - m.Metrics.tcfree_success in
  (match Metrics.check_conservation ~live_objects:live m with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("conservation violated: " ^ msg))

let test_gc_concurrent_tcfree_giveup () =
  (* Open the simulated concurrent-GC window on a shared heap, then
     free from several domains at once: every attempt inside the window
     must back off with Gc_running (§5) and nothing may be freed. *)
  let nd = 4 and per = 200 in
  let heap = Heap.create ~nprocs:nd ~shared:true () in
  let objs = Array.make_matrix nd per 0 in
  for d = 0 to nd - 1 do
    for i = 0 to per - 1 do
      objs.(d).(i) <- (alloc heap ~thread:d ()).Heap.addr
    done
  done;
  (* a parallel GC cycle (everything rooted, so nothing dies) opens the
     window *)
  heap.Heap.iter_roots <-
    (fun k -> Array.iter (fun row -> Array.iter k row) objs);
  Gc_collector.Par.run_leader (Gc_collector.Par.start heap);
  Alcotest.(check bool) "window open" true (Heap.gc_running heap);
  let freers =
    Array.init nd (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (free heap ~thread:d objs.(d).(i))
            done))
  in
  Array.iter Domain.join freers;
  let m = Heap.merged_metrics heap in
  Alcotest.(check int) "all gave up on the running GC" (nd * per)
    m.Metrics.giveups.(Metrics.giveup_index Metrics.Gc_running);
  Alcotest.(check int) "nothing freed" 0 m.Metrics.tcfree_success

let suite =
  [
    Alcotest.test_case "small fast path" `Quick test_small_fast_path;
    Alcotest.test_case "double free tolerated" `Quick
      test_double_free_tolerated;
    Alcotest.test_case "stack objects ignored" `Quick
      test_stack_object_ignored;
    Alcotest.test_case "nil and garbage addresses" `Quick
      test_nil_and_garbage_addresses;
    Alcotest.test_case "backs off while GC runs" `Quick
      test_gc_running_backoff;
    Alcotest.test_case "backs off on ownership change" `Quick
      test_ownership_change_backoff;
    Alcotest.test_case "backs off on swapped-out span" `Quick
      test_span_swapped_out_backoff;
    Alcotest.test_case "large 2-step free (fig 9)" `Quick
      test_large_two_step;
    Alcotest.test_case "slot reuse after tcfree" `Quick
      test_slot_reuse_after_tcfree;
    Alcotest.test_case "give-up metrics" `Quick test_giveup_metrics;
    Alcotest.test_case "cross-domain ownership stress" `Quick
      test_cross_domain_ownership_stress;
    Alcotest.test_case "GC-concurrent frees all back off" `Quick
      test_gc_concurrent_tcfree_giveup;
  ]
