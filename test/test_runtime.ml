(** Allocator substrate tests: size classes, mspans, mcache/mcentral
    interplay, page accounting. *)

open Gofree_runtime

let test_size_classes () =
  Alcotest.(check bool) "at least 40 classes" true (Sizeclass.n_classes >= 40);
  (* classes are sorted, start at 8, end at 32768 *)
  Alcotest.(check int) "first class" 8 Sizeclass.sizes.(0);
  Alcotest.(check int) "last class" 32768
    Sizeclass.sizes.(Sizeclass.n_classes - 1);
  for i = 1 to Sizeclass.n_classes - 1 do
    Alcotest.(check bool) "ascending" true
      (Sizeclass.sizes.(i) > Sizeclass.sizes.(i - 1))
  done;
  (* every size maps to the smallest class that fits *)
  List.iter
    (fun size ->
      match Sizeclass.class_for_size size with
      | -1 -> Alcotest.failf "size %d should be small" size
      | idx ->
        Alcotest.(check bool) "class fits" true
          (Sizeclass.class_size idx >= size);
        if idx > 0 then
          Alcotest.(check bool) "class is tight" true
            (Sizeclass.class_size (idx - 1) < size))
    [ 1; 8; 9; 16; 100; 1000; 4097; 32768 ];
  Alcotest.(check int) "large object" (-1) (Sizeclass.class_for_size 32769)

let test_span_waste_bound () =
  (* pages_for_class keeps slot waste under 12.5% like Go *)
  for c = 0 to Sizeclass.n_classes - 1 do
    let npages = Sizeclass.pages_for_class c in
    let bytes = npages * Sizeclass.page_size in
    let size = Sizeclass.class_size c in
    let waste = bytes - (bytes / size * size) in
    Alcotest.(check bool)
      (Printf.sprintf "class %d waste" c)
      true
      (waste * 8 <= bytes)
  done

let test_span_bump_and_revert () =
  let span = Mspan.create_small 0 in
  let s1 = Mspan.alloc_slot span in
  let s2 = Mspan.alloc_slot span in
  let s3 = Mspan.alloc_slot span in
  Alcotest.(check (list int)) "bump order" [ 0; 1; 2 ] [ s1; s2; s3 ];
  Alcotest.(check int) "allocated" 3 span.Mspan.allocated;
  (* freeing the top slot reverts the free index *)
  Mspan.free_slot span s3;
  Alcotest.(check int) "free index reverted" 2 span.Mspan.free_index;
  (* freeing a middle slot goes to the free list *)
  Mspan.free_slot span s1;
  Alcotest.(check int) "free index unchanged" 2 span.Mspan.free_index;
  Alcotest.(check (list int)) "free list" [ 0 ] (Mspan.free_slots span);
  (* freeing slot 1 now cascades the revert over slot 0 as well *)
  Mspan.free_slot span s2;
  Alcotest.(check int) "cascaded revert" 0 span.Mspan.free_index;
  Alcotest.(check (list int)) "free list drained" []
    (Mspan.free_slots span);
  Alcotest.(check int) "empty" 0 span.Mspan.allocated

let test_span_free_list_reuse () =
  let span = Mspan.create_small 0 in
  let a = Mspan.alloc_slot span in
  let _b = Mspan.alloc_slot span in
  Mspan.free_slot span a;
  (* next allocation reuses the freed slot before bumping *)
  let c = Mspan.alloc_slot span in
  Alcotest.(check int) "reused slot" a c

let test_mcache_swaps_full_spans () =
  let pages = Pageheap.create () in
  let central = Mcentral.create pages in
  let cache = Mcache.create 0 in
  let class_idx = Sizeclass.class_for_size 8192 in
  ignore (Mcache.alloc cache central class_idx);
  let span0 = Mcache.span cache class_idx in
  let nslots = span0.Mspan.nslots in
  (* exhaust the first span *)
  for _ = 2 to nslots do
    ignore (Mcache.alloc cache central class_idx)
  done;
  (* next allocation forces a swap *)
  ignore (Mcache.alloc cache central class_idx);
  let span1 = Mcache.span cache class_idx in
  Alcotest.(check bool) "new span" true
    (span1.Mspan.span_id <> span0.Mspan.span_id);
  Alcotest.(check bool) "old span in mcentral" true
    (span0.Mspan.state = Mspan.In_mcentral);
  Alcotest.(check bool) "old span no longer owned" false
    (Mcache.owns cache span0);
  Alcotest.(check bool) "new span owned" true (Mcache.owns cache span1)

let test_mcentral_partial_reuse () =
  let pages = Pageheap.create () in
  let central = Mcentral.create pages in
  let span = Mcentral.acquire_span central 0 ~for_thread:0 in
  ignore (Mspan.alloc_slot span);
  Mcentral.release_span central span;
  (* a partial span comes back before a fresh one is created *)
  let again = Mcentral.acquire_span central 0 ~for_thread:1 in
  Alcotest.(check int) "same span reused" span.Mspan.span_id
    again.Mspan.span_id;
  Alcotest.(check bool) "owned by new thread" true
    (again.Mspan.state = Mspan.In_mcache 1)

let test_page_accounting () =
  let pages = Pageheap.create () in
  Pageheap.alloc_pages pages 10;
  Alcotest.(check int) "mapped" 10 pages.Pageheap.mapped_pages;
  Pageheap.free_pages pages 4;
  Pageheap.alloc_pages pages 3;
  (* reuse from the pool: no new mapping *)
  Alcotest.(check int) "still 10 mapped" 10 pages.Pageheap.mapped_pages;
  Pageheap.alloc_pages pages 2;
  Alcotest.(check int) "one more mapped" 11 pages.Pageheap.mapped_pages

let test_heap_alloc_and_metrics () =
  let heap = Heap.create () in
  let obj =
    Heap.alloc_heap heap ~thread:0 ~category:Metrics.Cat_slice ~size:100
      ~payload:Heap.No_payload
  in
  (match obj.Heap.placement with
  | Heap.On_heap (span, slot) ->
    Alcotest.(check bool) "recorded in its slot for the sweep" true
      (Mspan.addr span slot = obj.Heap.addr
      && span.Mspan.sizes.(slot) = 100
      && Bytes.get_uint8 span.Mspan.cats slot
         = Metrics.category_index Metrics.Cat_slice)
  | Heap.On_stack -> Alcotest.fail "expected a heap placement");
  Alcotest.(check int) "alloced bytes" 100
    heap.Heap.metrics.Metrics.alloced_bytes;
  Alcotest.(check int) "heap slice count" 1
    heap.Heap.metrics.Metrics.heap_allocs.(0);
  let sobj =
    Heap.alloc_stack heap ~category:Metrics.Cat_other ~size:50
      ~payload:Heap.No_payload
  in
  Alcotest.(check int) "stack allocs don't count bytes" 100
    heap.Heap.metrics.Metrics.alloced_bytes;
  Alcotest.(check bool) "stack objects take no slot" true
    (Heap.is_stack_obj sobj && Heap.live_bytes heap = 100);
  Heap.release_stack heap sobj;
  Alcotest.(check bool) "stack object released" true sobj.Heap.freed

type Heap.payload += Blob of int array

(* Allocate [n] heap objects with boxed payloads, tcfree every other one,
   and drop them all; the weak array sees each object and its payload.
   Out of line so that no register or stack slot of the caller keeps the
   last ones reachable. *)
let[@inline never] alloc_and_drop heap n =
  let seen = Weak.create (2 * n) in
  for i = 0 to n - 1 do
    let blob = Array.make 8 i in
    let o =
      Heap.alloc_heap heap ~thread:0 ~category:Metrics.Cat_slice ~size:64
        ~payload:(Blob blob)
    in
    Weak.set seen (2 * i) (Some (Obj.repr o));
    Weak.set seen ((2 * i) + 1) (Some (Obj.repr blob));
    if i mod 2 = 0 then
      match Tcfree.tcfree heap ~thread:0 ~source:Metrics.Src_slice o with
      | Tcfree.Freed _ -> ()
      | Tcfree.Gave_up _ -> Alcotest.fail "tcfree gave up"
  done;
  seen

(* The heap holds no reference to an object it allocated: once the
   program drops a heap object, the host collects it and its payload,
   whether or not the simulated GC ever runs.  A table of objects kept
   for the sweep would keep them all (and promote each one). *)
let dropped_objects_collected config () =
  let heap = Heap.create ~config () in
  let n = 10_000 in
  let seen = alloc_and_drop heap n in
  Gc.full_major ();
  let kept = ref 0 in
  for i = 0 to Weak.length seen - 1 do
    if Weak.check seen i then incr kept
  done;
  Alcotest.(check int) "objects and payloads the host still holds" 0 !kept;
  Alcotest.(check int) "the untouched half is still live" (n / 2 * 64)
    (Heap.live_bytes heap)

let test_dropped_objects_collected_with_gc =
  dropped_objects_collected Heap.default_config

let test_dropped_objects_collected_without_gc =
  dropped_objects_collected { Heap.default_config with Heap.gc_disabled = true }

let test_large_object_dedicated_span () =
  let heap = Heap.create () in
  let obj =
    Heap.alloc_heap heap ~thread:0 ~category:Metrics.Cat_slice
      ~size:(Sizeclass.max_small + 1) ~payload:Heap.No_payload
  in
  match obj.Heap.placement with
  | Heap.On_heap (span, 0) ->
    Alcotest.(check int) "large span class" (-1) span.Mspan.class_idx;
    Alcotest.(check int) "one slot" 1 span.Mspan.nslots;
    Alcotest.(check bool) "multiple pages" true (span.Mspan.npages >= 5)
  | _ -> Alcotest.fail "expected a dedicated span"

let suite =
  [
    Alcotest.test_case "size classes" `Quick test_size_classes;
    Alcotest.test_case "span waste bound" `Quick test_span_waste_bound;
    Alcotest.test_case "span bump and revert" `Quick
      test_span_bump_and_revert;
    Alcotest.test_case "span free-list reuse" `Quick
      test_span_free_list_reuse;
    Alcotest.test_case "GC off: no object kept alive" `Quick
      test_dropped_objects_collected_without_gc;
    Alcotest.test_case "GC on: no object kept alive" `Quick
      test_dropped_objects_collected_with_gc;
    Alcotest.test_case "mcache swaps full spans" `Quick
      test_mcache_swaps_full_spans;
    Alcotest.test_case "mcentral reuses partial spans" `Quick
      test_mcentral_partial_reuse;
    Alcotest.test_case "page accounting" `Quick test_page_accounting;
    Alcotest.test_case "heap alloc and metrics" `Quick
      test_heap_alloc_and_metrics;
    Alcotest.test_case "large objects get dedicated spans" `Quick
      test_large_object_dedicated_span;
  ]
