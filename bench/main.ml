(** Evaluation harness: regenerates every table and figure of the paper's
    evaluation section (§6) against the OCaml reproduction.

    Usage:
      dune exec bench/main.exe                    # everything, quick sizes
      dune exec bench/main.exe -- --runs 99       # paper-sized repetitions
      dune exec bench/main.exe -- --only table7   # one experiment
      dune exec bench/main.exe -- --bechamel      # bechamel pass timings

    Experiments: table3, fig10, fig11, table7, table8, table9,
    compile_speed, robustness, ablation, serve, load, telemetry,
    incremental, parallel, precision,
    bench_json.

    [--only bench_json] writes BENCH_gofree.json: per-workload free
    ratio, GC cycles, max heap, wall time and compile-phase timings in
    one machine-readable document.

    [--only precision] prints per-mode free ratios/insertions and writes
    precision_smoke.json, the document CI gates against the committed
    bench/precision_smoke.json. *)

let usage = "bench/main.exe [--runs N] [--scale PCT] [--only NAME] [--bechamel]"

let parse_args () =
  let runs = ref Bench_common.default_options.Bench_common.runs in
  let scale = ref Bench_common.default_options.Bench_common.scale in
  let seed = ref Bench_common.default_options.Bench_common.seed in
  let engine = ref Bench_common.default_options.Bench_common.engine in
  let only = ref [] in
  let bechamel = ref false in
  let set_engine = function
    | "reference" -> engine := Gofree_interp.Interp.Eng_reference
    | "bytecode" -> engine := Gofree_interp.Interp.Eng_bytecode
    | s ->
      raise
        (Arg.Bad ("unknown engine " ^ s ^ " (reference|bytecode)"))
  in
  let spec =
    [
      ("--runs", Arg.Set_int runs, "N repetitions per setting (default 7)");
      ("--scale", Arg.Set_int scale,
       "PCT workload size, percent of default (default 100)");
      ("--seed", Arg.Set_int seed, "N PRNG seed for the workloads");
      ("--engine", Arg.String set_engine,
       "NAME execution engine: reference | bytecode (default)");
      ("--only", Arg.String (fun s -> only := s :: !only),
       "NAME run only this experiment (repeatable)");
      ("--bechamel", Arg.Set bechamel, " run bechamel pass timings");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  ( { Bench_common.runs = !runs; scale = !scale; seed = !seed;
      engine = !engine },
    !only,
    !bechamel )

let run_bechamel () =
  let open Bechamel in
  let tests = Exp_compile_speed.bechamel_tests () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:(Some 500) ()
  in
  let analyze raw =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      (Toolkit.Instance.monotonic_clock) raw
  in
  Bench_common.heading "Bechamel pass timings (ns per run)";
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"" [ test ])
      in
      let ols = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-40s %12.0f ns\n" name est
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        ols)
    tests

let () =
  let options, only, bechamel = parse_args () in
  let want name = only = [] || List.mem name only in
  Printf.printf
    "GoFree reproduction evaluation harness — runs=%d scale=%d%% engine=%s\n"
    options.Bench_common.runs options.Bench_common.scale
    (Bench_common.engine_name options.Bench_common.engine);
  if bechamel then run_bechamel ()
  else begin
    if want "table3" then Exp_table3.run ();
    if want "fig10" then Exp_fig10.run ~options ();
    if want "fig11" then Exp_fig11.run ~options ();
    if want "table7" then ignore (Exp_table7.run ~options ());
    if want "table8" then Exp_table8.run ~options ();
    if want "table9" then Exp_table9.run ~options ();
    if want "compile_speed" then Exp_compile_speed.run ~options ();
    if want "robustness" then Exp_robustness.run ~options ();
    if want "ablation" then Exp_ablation.run ~options ();
    if want "serve" then Exp_serve.run ~options ();
    if want "load" then Exp_load.run ~options ();
    if want "telemetry" then Exp_telemetry.run ~options ();
    if want "incremental" then Exp_incremental.run ~options ();
    if want "parallel" then Exp_parallel.run ~options ();
    if want "precision" then Exp_precision.run ~options ();
    if want "bench_json" then Exp_bench_json.run ~options ()
  end
