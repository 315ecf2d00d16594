(** Garbage-collector tests: mark reachability, sweep accounting,
    pacing, invariant counters, and the interaction with tcfree. *)

open Gofree_runtime

(* A tiny payload language for GC tests: an object holding a mutable
   list of child objects. *)
type Heap.payload += Children of Heap.obj list ref

let trace_children payload k =
  match payload with
  | Children l ->
    List.iter k !l;
    true
  | _ -> false

let make_heap ?config () =
  let heap = Heap.create ?config () in
  heap.Heap.trace_payload <- trace_children;
  heap

let alloc heap ?(size = 64) children =
  Heap.alloc_heap heap ~thread:0 ~category:Metrics.Cat_other ~size
    ~payload:(Children (ref children))

let set_roots heap objs = heap.Heap.iter_roots <- (fun k -> List.iter k !objs)

let alive (obj : Heap.obj) = not (Heap.is_freed obj)

let test_mark_sweep_chain () =
  let heap = make_heap () in
  let c = alloc heap [] in
  let b = alloc heap [ c ] in
  let a = alloc heap [ b ] in
  let dead = alloc heap [] in
  let roots = ref [ a ] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check bool) "a alive" true (alive a);
  Alcotest.(check bool) "b alive" true (alive b);
  Alcotest.(check bool) "c alive" true (alive c);
  Alcotest.(check bool) "dead swept" false (alive dead);
  Alcotest.(check int) "live bytes" (3 * 64) (Heap.live_bytes heap)

let test_cycles_collected () =
  let heap = make_heap () in
  let a = alloc heap [] in
  let b = alloc heap [ a ] in
  (match a.Heap.payload with
  | Children l -> l := [ b ]
  | _ -> ());
  let roots = ref [] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check bool) "cycle swept" false (alive a || alive b)

let test_repeated_cycles_through_stack_objects () =
  (* regression: a stack object must count as unmarked at every cycle,
     or anything reachable only through it dies at the second cycle *)
  let heap = make_heap () in
  let inner = alloc heap [] in
  let holder =
    Heap.alloc_stack heap ~category:Metrics.Cat_other ~size:8
      ~payload:(Children (ref [ inner ]))
  in
  let roots = ref [ holder ] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check bool) "alive after cycle 1" true (alive inner);
  Gc_collector.collect heap;
  Alcotest.(check bool) "alive after cycle 2" true (alive inner);
  Gc_collector.collect heap;
  Alcotest.(check bool) "alive after cycle 3" true (alive inner)

let test_mutation_between_cycles () =
  let heap = make_heap () in
  let x = alloc heap [] in
  let y = alloc heap [] in
  let holder = alloc heap [ x ] in
  let roots = ref [ holder ] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check bool) "y dead after cycle 1" false (alive y);
  Alcotest.(check bool) "x alive" true (alive x);
  (* drop x, but y is gone already *)
  (match holder.Heap.payload with
  | Children l -> l := []
  | _ -> ());
  Gc_collector.collect heap;
  Alcotest.(check bool) "x dead after cycle 2" false (alive x);
  Alcotest.(check bool) "holder alive" true (alive holder)

let test_heap_to_stack_pointer_detection () =
  (* Go memory invariant 1: a heap object referencing a stack object is
     counted as a violation *)
  let heap = make_heap () in
  let stack_obj =
    Heap.alloc_stack heap ~category:Metrics.Cat_other ~size:8
      ~payload:(Children (ref []))
  in
  let bad = alloc heap [ stack_obj ] in
  let roots = ref [ bad ] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check int) "violation counted" 1
    heap.Heap.metrics.Metrics.heap_to_stack_pointers

let test_pacing () =
  let config = { Heap.default_config with min_heap = 1000; gogc = 100 } in
  let heap = make_heap ~config () in
  let roots = ref [] in
  set_roots heap roots;
  (* allocations below the threshold never request a cycle *)
  let a = alloc heap ~size:400 [] in
  roots := [ a ];
  Alcotest.(check bool) "no request yet" false heap.Heap.gc_requested;
  (* crossing min_heap requests one *)
  let b = alloc heap ~size:700 [] in
  roots := b :: !roots;
  ignore (alloc heap ~size:8 []);
  Alcotest.(check bool) "requested" true heap.Heap.gc_requested;
  Gc_collector.maybe_collect heap;
  Alcotest.(check int) "one cycle" 1 heap.Heap.metrics.Metrics.gc_cycles;
  (* with ~1108 live bytes and GOGC=100, next_gc ≈ 2216 *)
  Alcotest.(check bool) "next_gc doubled" true
    (heap.Heap.next_gc >= 2 * Heap.live_bytes heap)

let test_gc_disabled () =
  let config = { Heap.default_config with gc_disabled = true; min_heap = 100 } in
  let heap = make_heap ~config () in
  set_roots heap (ref []);
  for _ = 1 to 100 do
    ignore (alloc heap ~size:64 [])
  done;
  Gc_collector.maybe_collect heap;
  Alcotest.(check int) "no cycles with GC off" 0
    heap.Heap.metrics.Metrics.gc_cycles;
  Alcotest.(check int) "everything retained" (100 * 64)
    (Heap.live_bytes heap)

let test_sweep_vs_tcfree_accounting () =
  let heap = make_heap () in
  let kept = alloc heap ~size:100 [] in
  let freed = alloc heap ~size:100 [] in
  ignore
    (Tcfree.tcfree heap ~thread:0 ~source:Metrics.Src_slice freed);
  (* a stale root to the freed object marks and traces nothing *)
  set_roots heap (ref [ freed ]);
  Gc_collector.collect heap;
  ignore kept;
  let m = heap.Heap.metrics in
  Alcotest.(check int) "freed object not marked" 0 m.Metrics.gc_marked_objects;
  Alcotest.(check int) "tcfree bytes" 100 m.Metrics.freed_bytes;
  (* the kept object was unreachable at the cycle: swept, counted as GC *)
  Alcotest.(check int) "gc-freed objects" 1 m.Metrics.gc_freed_objects.(2);
  Alcotest.(check int) "heap empty" 0 (Heap.live_bytes heap)

let test_empty_spans_return_pages () =
  let heap = make_heap () in
  set_roots heap (ref []);
  for _ = 1 to 50 do
    ignore (alloc heap ~size:4096 [])
  done;
  let mapped = heap.Heap.pages.Pageheap.mapped_pages in
  Alcotest.(check bool) "pages mapped" true (mapped > 0);
  Gc_collector.collect heap;
  (* every object died: all span pages return to the pool except the one
     span still cached by the allocating thread's mcache (Go keeps
     mcaches warm across cycles) *)
  let cached_pages =
    let cache = heap.Heap.caches.(0) in
    Array.fold_left
      (fun acc span ->
        match span with
        | Some (s : Mspan.t) -> acc + s.Mspan.npages
        | None -> acc)
      0 cache.Mcache.spans
  in
  Alcotest.(check int) "all uncached pages free" (mapped - cached_pages)
    heap.Heap.pages.Pageheap.free_pages

let test_poison_mode_marks_payload () =
  let config = { Heap.default_config with poison_on_free = true } in
  let heap = make_heap ~config () in
  set_roots heap (ref []);
  let obj = alloc heap [] in
  Gc_collector.collect heap;
  Alcotest.(check bool) "poisoned on sweep" true obj.Heap.poisoned

(* A GC-swept object reads as freed even after a later allocation takes
   its slot over, so a tcfree through a stale reference to it gives up
   instead of freeing the slot's new occupant. *)
let test_stale_tcfree_after_sweep () =
  let heap = make_heap () in
  set_roots heap (ref []);
  let stale = alloc heap [] in
  Gc_collector.collect heap;
  Alcotest.(check bool) "swept" false (alive stale);
  let fresh = alloc heap [] in
  (match (stale.Heap.placement, fresh.Heap.placement) with
  | Heap.On_heap (s1, i1), Heap.On_heap (s2, i2) ->
    Alcotest.(check bool) "slot reused" true (s1 == s2 && i1 = i2)
  | _ -> Alcotest.fail "expected heap placements");
  heap.Heap.gc_window_left <- 0;
  (match Tcfree.tcfree heap ~thread:0 ~source:Metrics.Src_slice stale with
  | Tcfree.Gave_up Metrics.Already_freed -> ()
  | Tcfree.Gave_up _ -> Alcotest.fail "gave up for another reason"
  | Tcfree.Freed _ -> Alcotest.fail "freed the slot's new occupant");
  Alcotest.(check bool) "new occupant allocated" true (alive fresh);
  Alcotest.(check int) "live bytes" 64 (Heap.live_bytes heap)

(* Large objects are swept from every processor's large-span list, not
   only from processor 0's. *)
let test_large_objects_swept_on_every_proc () =
  let heap = Heap.create ~nprocs:2 () in
  heap.Heap.trace_payload <- trace_children;
  let size = Sizeclass.max_small + 1 in
  let large d =
    Heap.alloc_heap heap ~thread:d ~category:Metrics.Cat_slice ~size
      ~payload:(Children (ref []))
  in
  let kept = large 1 in
  let dead = List.init 3 (fun _ -> large 1) in
  let dead0 = large 0 in
  set_roots heap (ref [ kept ]);
  let used = heap.Heap.pages.Pageheap.used_pages in
  Gc_collector.collect heap;
  Alcotest.(check bool) "rooted large object kept" true (alive kept);
  Alcotest.(check bool) "domain-1 large objects swept" false
    (List.exists alive dead);
  Alcotest.(check bool) "domain-0 large object swept" false (alive dead0);
  Alcotest.(check int) "swept objects" 4
    heap.Heap.metrics.Metrics.gc_swept_objects;
  Alcotest.(check int) "live bytes" size (Heap.live_bytes heap);
  Alcotest.(check int) "pages returned"
    (used - (4 * Sizeclass.pages_for_large size))
    heap.Heap.pages.Pageheap.used_pages;
  Alcotest.(check int) "only the live span still listed" 1
    (List.length heap.Heap.large_spans.(1)
    + List.length heap.Heap.large_spans.(0))

(* -------------------------------------------------------------- *)
(* Multi-domain heap: concurrent mutators, then the one collector   *)
(* -------------------------------------------------------------- *)

let test_parallel_collect_equivalence () =
  (* 4 domains build linked chains concurrently on one heap, and
     tcfree a scratch object after every link; half the chain heads
     stay rooted.  With the world stopped the collector must keep
     exactly the rooted chains alive and sweep the rest: the unrooted
     chains plus every scratch object tcfree gave up on. *)
  let nd = 4 and chains_per = 8 and chain_len = 25 in
  let heap = Heap.create ~nprocs:nd () in
  heap.Heap.trace_payload <- trace_children;
  let heads = Array.make_matrix nd chains_per None in
  let doms =
    Array.init nd (fun d ->
        Domain.spawn (fun () ->
            for c = 0 to chains_per - 1 do
              let tail = ref [] in
              for _ = 1 to chain_len do
                let o =
                  Heap.alloc_heap heap ~thread:d ~category:Metrics.Cat_other
                    ~size:64 ~payload:(Children (ref !tail))
                in
                tail := [ o ];
                let scratch =
                  Heap.alloc_heap heap ~thread:d ~category:Metrics.Cat_slice
                    ~size:32 ~payload:(Children (ref []))
                in
                ignore
                  (Tcfree.tcfree heap ~thread:d ~source:Metrics.Src_slice
                     scratch)
              done;
              heads.(d).(c) <- Some !tail
            done))
  in
  Array.iter Domain.join doms;
  let total = nd * chains_per * chain_len in
  let before = Heap.merged_metrics heap in
  let kept_scratch = total - before.Metrics.tcfree_success in
  Alcotest.(check int) "live count before the cycle"
    ((total * 64) + (kept_scratch * 32))
    (Heap.live_bytes heap);
  (* root the even-numbered chains only *)
  heap.Heap.iter_roots <-
    (fun k ->
      Array.iter
        (fun row ->
          Array.iteri
            (fun c head ->
              if c mod 2 = 0 then
                match head with
                | Some objs -> List.iter k objs
                | None -> ())
            row)
        heads);
  Gc_collector.collect heap;
  let m = Heap.merged_metrics heap in
  let live = total / 2 and dead = total / 2 in
  Alcotest.(check int) "marked exactly the rooted half" live
    m.Metrics.gc_marked_objects;
  Alcotest.(check int) "swept the unrooted half and the kept scratch"
    (dead + kept_scratch) m.Metrics.gc_swept_objects;
  Alcotest.(check int) "live bytes" (live * 64) (Heap.live_bytes heap);
  Alcotest.(check int) "merged heap_live is the live count" (live * 64)
    m.Metrics.heap_live;
  (* rooted chain members survived, down to the deepest link *)
  Array.iter
    (fun row ->
      Array.iteri
        (fun c head ->
          match head with
          | Some [ head ] ->
            Alcotest.(check bool) "head fate matches rooting"
              (c mod 2 = 0)
              (alive head)
          | _ -> ())
        row)
    heads;
  match Metrics.check_conservation ~live_objects:live m with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("conservation violated: " ^ msg)

let test_parallel_collect_during_allocation_pressure () =
  (* Rounds of concurrent allocation and tcfree from every domain, each
     followed by a stop-the-world cycle: every cycle must mark afresh
     and the accounting must stay conserved across the whole
     history. *)
  let nd = 4 in
  let heap = Heap.create ~nprocs:nd () in
  heap.Heap.trace_payload <- trace_children;
  let rooted = ref [] in
  let rooted_mutex = Mutex.create () in
  heap.Heap.iter_roots <- (fun k -> List.iter k !rooted);
  for _round = 1 to 3 do
    let doms =
      Array.init nd (fun d ->
          Domain.spawn (fun () ->
              for i = 1 to 150 do
                let o =
                  Heap.alloc_heap heap ~thread:d ~category:Metrics.Cat_other
                    ~size:64 ~payload:(Children (ref []))
                in
                (* keep every 10th object, tcfree every 3rd of the
                   rest; the others are garbage *)
                if i mod 10 = 0 then begin
                  Mutex.lock rooted_mutex;
                  rooted := o :: !rooted;
                  Mutex.unlock rooted_mutex
                end
                else if i mod 3 = 0 then
                  ignore
                    (Tcfree.tcfree heap ~thread:d ~source:Metrics.Src_slice
                       o)
              done))
    in
    Array.iter Domain.join doms;
    Gc_collector.collect heap
  done;
  let m = Heap.merged_metrics heap in
  let live = List.length !rooted in
  Alcotest.(check int) "rooted objects survive all cycles" (live * 64)
    (Heap.live_bytes heap);
  Alcotest.(check int) "three cycles ran" 3 m.Metrics.gc_cycles;
  Alcotest.(check bool) "some frees happened between cycles" true
    (m.Metrics.tcfree_success > 0);
  List.iter
    (fun (o : Heap.obj) ->
      Alcotest.(check bool) "rooted object present" true (alive o))
    !rooted;
  match Metrics.check_conservation ~live_objects:live m with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("conservation violated: " ^ msg)

let suite =
  [
    Alcotest.test_case "mark-sweep chain" `Quick test_mark_sweep_chain;
    Alcotest.test_case "cycles collected" `Quick test_cycles_collected;
    Alcotest.test_case "stack objects across cycles" `Quick
      test_repeated_cycles_through_stack_objects;
    Alcotest.test_case "mutation between cycles" `Quick
      test_mutation_between_cycles;
    Alcotest.test_case "heap→stack pointer detection" `Quick
      test_heap_to_stack_pointer_detection;
    Alcotest.test_case "GOGC pacing" `Quick test_pacing;
    Alcotest.test_case "GC disabled" `Quick test_gc_disabled;
    Alcotest.test_case "sweep vs tcfree accounting" `Quick
      test_sweep_vs_tcfree_accounting;
    Alcotest.test_case "empty spans return pages" `Quick
      test_empty_spans_return_pages;
    Alcotest.test_case "poison mode" `Quick test_poison_mode_marks_payload;
    Alcotest.test_case "stale tcfree after sweep gives up" `Quick
      test_stale_tcfree_after_sweep;
    Alcotest.test_case "large objects swept on every processor" `Quick
      test_large_objects_swept_on_every_proc;
    Alcotest.test_case "parallel collect = sequential verdict" `Quick
      test_parallel_collect_equivalence;
    Alcotest.test_case "parallel collect under allocation pressure" `Quick
      test_parallel_collect_during_allocation_pressure;
  ]
