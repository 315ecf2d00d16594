(** Evaluation harness: regenerates every table and figure of the paper's
    evaluation section (§6) against the OCaml reproduction.

    Usage:
      dune exec bench/main.exe                    # everything, quick sizes
      dune exec bench/main.exe -- --runs 99       # paper-sized repetitions
      dune exec bench/main.exe -- --only table7   # one experiment

    Experiments: table3, fig10, fig11, table7, table8, table9,
    compile_speed, robustness, ablation, load, parallel, precision,
    bench_json.

    [--only bench_json] writes BENCH_gofree.json: per-workload free
    ratio, GC cycles, max heap in bytes, wall time and compile-phase
    timings in one machine-readable document.

    [--only precision] prints per-mode free ratios/insertions and writes
    precision_smoke.json, the document CI gates against the committed
    bench/precision_smoke.json. *)

let usage = "bench/main.exe [--runs N] [--scale PCT] [--only NAME]"

let parse_args () =
  let runs = ref Bench_common.default_options.Bench_common.runs in
  let scale = ref Bench_common.default_options.Bench_common.scale in
  let seed = ref Bench_common.default_options.Bench_common.seed in
  let engine = ref Bench_common.default_options.Bench_common.engine in
  let only = ref [] in
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
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  ( { Bench_common.runs = !runs; scale = !scale; seed = !seed;
      engine = !engine },
    !only )

let experiments : (string * (Bench_common.options -> unit)) list =
  [
    ("table3", fun _ -> Exp_table3.run ());
    ("fig10", fun options -> Exp_fig10.run ~options ());
    ("fig11", fun options -> Exp_fig11.run ~options ());
    ("table7", fun options -> ignore (Exp_table7.run ~options ()));
    ("table8", fun options -> Exp_table8.run ~options ());
    ("table9", fun options -> Exp_table9.run ~options ());
    ("compile_speed", fun options -> Exp_compile_speed.run ~options ());
    ("robustness", fun options -> Exp_robustness.run ~options ());
    ("ablation", fun options -> Exp_ablation.run ~options ());
    ("load", fun options -> Exp_load.run ~options ());
    ("parallel", fun options -> Exp_parallel.run ~options ());
    ("precision", fun options -> Exp_precision.run ~options ());
    ("bench_json", fun options -> Exp_bench_json.run ~options ());
  ]

let () =
  let options, only = parse_args () in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "bench/main.exe: unknown experiment %s\n" name;
        exit 2
      end)
    only;
  Printf.printf
    "GoFree reproduction evaluation harness — runs=%d scale=%d%% engine=%s\n"
    options.Bench_common.runs options.Bench_common.scale
    (Bench_common.engine_name options.Bench_common.engine);
  List.iter
    (fun (name, run) -> if only = [] || List.mem name only then run options)
    experiments
