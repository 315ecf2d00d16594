(** Shared infrastructure for the evaluation harness: the three run
    settings of §6.4, repeated measurement, and ratio/significance rows.

    Defaults are scaled down from the paper's testbed (99 runs on a
    96-core Xeon) so the full harness finishes in minutes; pass
    [--runs 99 --scale 10] for a paper-sized campaign. *)

module Rt = Gofree_runtime

type setting = Go | Gofree | Go_gcoff

let setting_name = function
  | Go -> "Go"
  | Gofree -> "GoFree"
  | Go_gcoff -> "Go-GCOff"

type options = {
  runs : int;  (** repetitions per (program, setting) *)
  scale : int;  (** workload size multiplier, percent (100 = default) *)
  seed : int;
  engine : Gofree_interp.Interp.engine;
      (** execution engine under measurement; metrics are identical
          across engines, wall time is what differs *)
}

let default_options =
  {
    runs = 7;
    scale = 100;
    seed = 42;
    engine = Gofree_interp.Interp.Eng_bytecode;
  }

let engine_name = function
  | Gofree_interp.Interp.Eng_reference -> "reference"
  | Gofree_interp.Interp.Eng_bytecode -> "bytecode"

type run_result = {
  r_time_ms : float;
  r_gc_time_ms : float;
  r_gcs : float;
  r_alloced : float;
  r_freed : float;
  r_maxheap : float;
  r_metrics : Rt.Metrics.t;
  r_output : string;
}

let run_once ?min_heap ~options ~setting source : run_result =
  (* settle the host OCaml GC so its pauses don't pollute the sample *)
  Gc.major ();
  let gofree_config =
    match setting with
    | Go | Go_gcoff -> Gofree_core.Config.go
    | Gofree -> Gofree_core.Config.gofree
  in
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      heap_config =
        {
          Rt.Heap.default_config with
          gc_disabled = (setting = Go_gcoff);
          grow_map_free_old = (setting = Gofree);
          (* a small first-GC threshold keeps the GC pressure of the
             paper's much larger subjects at our scaled-down sizes *)
          min_heap = Option.value min_heap ~default:(96 * 1024);
        };
      seed = Int64.of_int options.seed;
      engine = options.engine;
    }
  in
  let r =
    Gofree_interp.Runner.compile_and_run ~gofree_config ~run_config source
  in
  let m = r.Gofree_interp.Runner.metrics in
  {
    r_time_ms = Int64.to_float r.Gofree_interp.Runner.wall_ns /. 1e6;
    r_gc_time_ms = Int64.to_float m.Rt.Metrics.gc_time_ns /. 1e6;
    r_gcs = float_of_int m.Rt.Metrics.gc_cycles;
    r_alloced = float_of_int m.Rt.Metrics.alloced_bytes;
    r_freed = float_of_int m.Rt.Metrics.freed_bytes;
    r_maxheap = float_of_int m.Rt.Metrics.max_heap_pages;
    r_metrics = m;
    r_output = r.Gofree_interp.Runner.output;
  }

(** [runs] repetitions; one warmup run is discarded. *)
let run_many ?min_heap ~options ~setting source : run_result array =
  ignore (run_once ?min_heap ~options ~setting source);
  Array.init options.runs (fun _ -> run_once ?min_heap ~options ~setting source)

(** Repetitions of several settings, interleaved round-robin so host
    drift (cache state, allocator fragmentation, thermal) biases no
    setting — the order sensitivity the paper's 99-run design also
    guards against.  One warmup run per setting is discarded. *)
let run_interleaved ?min_heap ~options ~settings source :
    (setting * run_result array) list =
  List.iter
    (fun setting -> ignore (run_once ?min_heap ~options ~setting source))
    settings;
  let acc = List.map (fun s -> (s, ref [])) settings in
  for _ = 1 to options.runs do
    List.iter
      (fun (setting, cell) ->
        cell := run_once ?min_heap ~options ~setting source :: !cell)
      acc
  done;
  List.map (fun (s, cell) -> (s, Array.of_list (List.rev !cell))) acc

let scaled_size ~options (w : Gofree_workloads.Workloads.t) =
  max 10
    (w.Gofree_workloads.Workloads.w_default_size * options.scale / 100)

(** Ratio, its stdev and Welch significance for one metric across two
    sample sets — the triple the paper's Table 7 prints per metric. *)
let ratio_cell ~(treatment : float array) ~(control : float array) =
  let open Gofree_stats in
  let ratio = Stats.ratio ~treatment ~control in
  let stdev = Stats.ratio_stdev ~treatment ~control in
  let test = Ttest.welch treatment control in
  (ratio, stdev, test.Ttest.p_value)

let metric f results = Array.map f results

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n\n" title bar
