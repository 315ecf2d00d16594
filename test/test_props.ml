(** Property-based tests (qcheck, registered as alcotest cases).

    The headline property is the paper's §6.8 robustness argument turned
    into a generator-driven check: for random well-typed MiniGo programs,
    compiling with GoFree and running with the poisoning mock tcfree must
    produce exactly the observable output of stock Go — any wrong
    compiler-inserted free trips the poison detector. *)

module Rt = Gofree_runtime

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let run_setting ~config ?(poison = false) ?(gc_disabled = false) src =
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      heap_config =
        {
          Rt.Heap.default_config with
          poison_on_free = poison;
          gc_disabled;
          min_heap = 16 * 1024;  (* tiny heap: force frequent GC *)
          grow_map_free_old = config.Gofree_core.Config.insert_tcfree;
        };
    }
  in
  Gofree_interp.Runner.compile_and_run ~gofree_config:config ~run_config src

let prop_soundness =
  QCheck.Test.make ~count:60 ~name:"random programs: Go == GoFree+poison"
    gen_seed (fun seed ->
      let src = Gen_program.generate seed in
      let go = run_setting ~config:Gofree_core.Config.go src in
      let gf =
        run_setting ~config:Gofree_core.Config.gofree ~poison:true src
      in
      if
        not
          (String.equal go.Gofree_interp.Runner.output
             gf.Gofree_interp.Runner.output)
      then
        QCheck.Test.fail_reportf "outputs differ for seed %d:\n%s\n--- go\n%s--- gofree\n%s"
          seed src go.Gofree_interp.Runner.output
          gf.Gofree_interp.Runner.output;
      true)

let prop_soundness_all_targets =
  QCheck.Test.make ~count:40
    ~name:"random programs: all-targets config is also safe" gen_seed
    (fun seed ->
      let src = Gen_program.generate seed in
      let go = run_setting ~config:Gofree_core.Config.go src in
      let gf =
        run_setting ~config:Gofree_core.Config.all_targets ~poison:true src
      in
      String.equal go.Gofree_interp.Runner.output
        gf.Gofree_interp.Runner.output)

let prop_no_invariant_violations =
  QCheck.Test.make ~count:40
    ~name:"random programs: no heap-to-stack pointers" gen_seed (fun seed ->
      let src = Gen_program.generate seed in
      let gf = run_setting ~config:Gofree_core.Config.gofree src in
      gf.Gofree_interp.Runner.metrics.Rt.Metrics.heap_to_stack_pointers = 0)

let prop_alloc_volume_identical =
  QCheck.Test.make ~count:30
    ~name:"random programs: Go and GoFree allocate identically" gen_seed
    (fun seed ->
      let src = Gen_program.generate seed in
      let go = run_setting ~config:Gofree_core.Config.go src in
      let gf = run_setting ~config:Gofree_core.Config.gofree src in
      go.Gofree_interp.Runner.metrics.Rt.Metrics.alloced_bytes
      = gf.Gofree_interp.Runner.metrics.Rt.Metrics.alloced_bytes)

let prop_gc_off_agrees =
  QCheck.Test.make ~count:20 ~name:"random programs: GC off agrees"
    gen_seed (fun seed ->
      let src = Gen_program.generate seed in
      let go = run_setting ~config:Gofree_core.Config.go src in
      let off =
        run_setting ~config:Gofree_core.Config.go ~gc_disabled:true src
      in
      String.equal go.Gofree_interp.Runner.output
        off.Gofree_interp.Runner.output)

(* ---- allocator invariants ------------------------------------------ *)

let gen_ops =
  (* a script of alloc(size)/free(index) operations *)
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Alloc n -> Printf.sprintf "alloc %d" n
             | `Free i -> Printf.sprintf "free %d" i)
           ops))
    QCheck.Gen.(
      list_size (1 -- 120)
        (oneof
           [
             map (fun n -> `Alloc (1 + (n mod 40000))) (0 -- 100000);
             map (fun i -> `Free i) (0 -- 200);
           ]))

let prop_span_accounting =
  QCheck.Test.make ~count:100 ~name:"span accounting stays consistent"
    gen_ops (fun ops ->
      let heap = Rt.Heap.create () in
      let live = ref [] in
      let expected_live = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Alloc size ->
            let obj =
              Rt.Heap.alloc_heap heap ~thread:0
                ~category:Rt.Metrics.Cat_other ~size
                ~payload:Rt.Heap.No_payload
            in
            live := obj :: !live;
            expected_live := !expected_live + size
          | `Free i ->
            if !live <> [] then begin
              let idx = i mod List.length !live in
              let obj = List.nth !live idx in
              match
                Rt.Tcfree.tcfree heap ~thread:0
                  ~source:Rt.Metrics.Src_slice obj.Rt.Heap.addr
              with
              | Rt.Tcfree.Freed n ->
                expected_live := !expected_live - n;
                live := List.filter (fun o -> o != obj) !live
              | Rt.Tcfree.Gave_up _ -> ()
            end)
        ops;
      let m = heap.Rt.Heap.metrics in
      m.Rt.Metrics.heap_live = !expected_live
      && m.Rt.Metrics.heap_live
         = m.Rt.Metrics.alloced_bytes - m.Rt.Metrics.freed_bytes
      && m.Rt.Metrics.max_heap >= m.Rt.Metrics.heap_live)

let prop_span_slots_never_negative =
  QCheck.Test.make ~count:100 ~name:"span slot counts stay in range"
    gen_ops (fun ops ->
      let heap = Rt.Heap.create () in
      let live = ref [] in
      let spans = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Alloc size ->
            let obj =
              Rt.Heap.alloc_heap heap ~thread:0
                ~category:Rt.Metrics.Cat_other ~size
                ~payload:Rt.Heap.No_payload
            in
            (match obj.Rt.Heap.placement with
            | Rt.Heap.On_heap (span, _) ->
              Hashtbl.replace spans span.Rt.Mspan.span_id span
            | Rt.Heap.On_stack -> ());
            live := obj :: !live
          | `Free i ->
            if !live <> [] then begin
              let idx = i mod List.length !live in
              let obj = List.nth !live idx in
              ignore
                (Rt.Tcfree.tcfree heap ~thread:0
                   ~source:Rt.Metrics.Src_slice obj.Rt.Heap.addr);
              live := List.filter (fun o -> o != obj) !live
            end)
        ops;
      Hashtbl.fold
        (fun _ (span : Rt.Mspan.t) ok ->
          ok && span.Rt.Mspan.allocated >= 0
          && span.Rt.Mspan.allocated <= span.Rt.Mspan.nslots
          && span.Rt.Mspan.free_index <= span.Rt.Mspan.nslots
          && List.for_all (fun s -> s < span.Rt.Mspan.free_index)
               span.Rt.Mspan.free_list)
        spans true)

let prop_sizeclass_roundtrip =
  QCheck.Test.make ~count:500 ~name:"size class covers every small size"
    QCheck.(int_range 1 32768)
    (fun size ->
      match Rt.Sizeclass.class_for_size size with
      | None -> false
      | Some idx ->
        Rt.Sizeclass.class_size idx >= size
        && (idx = 0 || Rt.Sizeclass.class_size (idx - 1) < size))

(* ---- frontend properties ------------------------------------------- *)

let prop_generated_programs_typecheck =
  QCheck.Test.make ~count:100 ~name:"generated programs typecheck"
    gen_seed (fun seed ->
      match Helpers.parse_check (Gen_program.generate seed) with
      | _ -> true
      | exception _ -> false)

let prop_lexer_never_loops =
  QCheck.Test.make ~count:200 ~name:"lexer terminates on junk"
    QCheck.(string_of_size (QCheck.Gen.int_bound 200))
    (fun s ->
      match Minigo.Lexer.tokenize s with
      | _ -> true
      | exception Minigo.Lexer.Error _ -> true)

let to_alcotest = QCheck_alcotest.to_alcotest

let suite =
  List.map to_alcotest
    [
      prop_soundness;
      prop_soundness_all_targets;
      prop_no_invariant_violations;
      prop_alloc_volume_identical;
      prop_gc_off_agrees;
      prop_span_accounting;
      prop_span_slots_never_negative;
      prop_sizeclass_roundtrip;
      prop_generated_programs_typecheck;
      prop_lexer_never_loops;
    ]
