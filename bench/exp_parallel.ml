(** Multi-domain scaling: the goroutine fan-out workload under
    [--domains 1/2/4], with wall-time speedup over one domain (the
    default), per-run steal/spawn counts from the scheduler telemetry,
    and the interleaving-independent allocator totals that must not move
    across domain counts.

    The Table 6 proxies have goroutine-free mains, so only the fan-out
    workload exercises the work-stealing scheduler; it is also excluded
    from the committed single-domain baselines, which keeps this section
    additive.  The section records the host's core count, and marks
    every row with more domains than cores as oversubscribed: such a
    row measures contention, not scaling.  Run with
    [dune exec bench/main.exe -- --only parallel]. *)

module W = Gofree_workloads.Workloads
module Json = Gofree_obs.Json
module Reg = Gofree_obs.Registry
module Rt = Gofree_runtime
module Stats = Gofree_stats.Stats
open Bench_common

let domain_counts = [ 1; 2; 4 ]

let host_cores () = Domain.recommended_domain_count ()

let run_domains ~options ~domains source =
  (* settle the host OCaml GC so its pauses don't pollute the sample *)
  Gc.major ();
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      heap_config =
        { Rt.Heap.default_config with min_heap = 96 * 1024 };
      seed = Int64.of_int options.seed;
      engine = options.engine;
      domains;
    }
  in
  Gofree_interp.Runner.compile_and_run ~run_config source

let counter name = Reg.counter_value (Reg.counter Reg.runtime name)

type row = {
  p_domains : int;
  p_wall_ns : float;  (** median *)
  p_gcs : int;
  p_alloced : int;
  p_tcfree_calls : int;
  p_steals : float;  (** mean per run *)
  p_spawns : float;
  p_yields : float;
}

let measure_rows ~options source : row list =
  Reg.acquire_runtime ();
  Fun.protect ~finally:Reg.release_runtime @@ fun () ->
  List.map
    (fun nd ->
      ignore (run_domains ~options ~domains:nd source);
      let steals0 = counter "gofree_sched_steals_total" in
      let spawns0 = counter "gofree_sched_spawns_total" in
      let yields0 = counter "gofree_sched_yields_total" in
      let n = max 1 options.runs in
      let samples =
        Array.init n (fun _ -> run_domains ~options ~domains:nd source)
      in
      let wall =
        Stats.median
          (Array.map
             (fun r -> Int64.to_float r.Gofree_interp.Runner.wall_ns)
             samples)
      in
      let m = samples.(n - 1).Gofree_interp.Runner.metrics in
      let per_run c0 c = float_of_int (c - c0) /. float_of_int n in
      {
        p_domains = nd;
        p_wall_ns = wall;
        p_gcs = m.Rt.Metrics.gc_cycles;
        p_alloced = m.Rt.Metrics.alloced_bytes;
        p_tcfree_calls = m.Rt.Metrics.tcfree_calls;
        p_steals = per_run steals0 (counter "gofree_sched_steals_total");
        p_spawns = per_run spawns0 (counter "gofree_sched_spawns_total");
        p_yields = per_run yields0 (counter "gofree_sched_yields_total");
      })
    domain_counts

let measure ~options () : Json.t =
  let w = W.fanout in
  let size = scaled_size ~options w in
  let source = W.source_of ~size w in
  let rows = measure_rows ~options source in
  let base_wall =
    match rows with r :: _ -> r.p_wall_ns | [] -> 0.0
  in
  let cores = host_cores () in
  Json.Obj
    [
      ("workload", Json.Str w.W.w_name);
      ("size", Json.Int size);
      ("host_cores", Json.Int cores);
      ( "scaling",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("domains", Json.Int r.p_domains);
                   ("oversubscribed", Json.Bool (r.p_domains > cores));
                   ("wall_ns", Json.Float r.p_wall_ns);
                   ( "speedup_vs_1",
                     Json.Float
                       (if r.p_wall_ns > 0.0 then base_wall /. r.p_wall_ns
                        else 0.0) );
                   ("gc_cycles", Json.Int r.p_gcs);
                   ("alloced_bytes", Json.Int r.p_alloced);
                   ("tcfree_calls", Json.Int r.p_tcfree_calls);
                   ("steals_per_run", Json.Float r.p_steals);
                   ("spawns_per_run", Json.Float r.p_spawns);
                   ("yields_per_run", Json.Float r.p_yields);
                 ])
             rows) );
    ]

let run ~options () =
  heading "Multi-domain scaling (fan-out workload, median wall ms)";
  let w = W.fanout in
  let size = scaled_size ~options w in
  let source = W.source_of ~size w in
  let rows = measure_rows ~options source in
  let base_wall =
    match rows with r :: _ -> r.p_wall_ns | [] -> 0.0
  in
  let cores = host_cores () in
  Printf.printf "  host cores: %d\n" cores;
  Printf.printf "  %-8s %12s %9s %8s %10s %10s\n" "domains" "wall"
    "speedup" "GCs" "steals" "spawns";
  List.iter
    (fun r ->
      Printf.printf "  %-8d %10.2fms %7.2fx %8d %10.1f %10.1f%s\n" r.p_domains
        (r.p_wall_ns /. 1e6)
        (if r.p_wall_ns > 0.0 then base_wall /. r.p_wall_ns else 0.0)
        r.p_gcs r.p_steals r.p_spawns
        (if r.p_domains > cores then "  (oversubscribed)" else ""))
    rows;
  (* gate, restated here so a bench run also exercises it: one domain
     runs the same schedule every time *)
  let once () =
    (run_domains ~options ~domains:1 source).Gofree_interp.Runner.output
  in
  if not (String.equal (once ()) (once ())) then
    failwith "--domains 1 output differs between two runs";
  Printf.printf "\n  --domains 1 output identical across runs: yes\n"
