(** Machine-readable benchmark export: one command emits
    [BENCH_gofree.json] with, per workload, the headline runtime metrics
    under Go and GoFree (free ratio, GC cycles, maxheap, wall time) plus
    the compile-phase timings recovered from an in-memory trace capture.

    Run with [dune exec bench/main.exe -- --only bench_json]. *)

module W = Gofree_workloads.Workloads
module Json = Gofree_obs.Json
module Trace = Gofree_obs.Trace
module Stats = Gofree_stats.Stats
open Bench_common

(* Compile once under a live tracer and fold the captured span stream
   into per-phase totals (µs).  Spans of one phase never self-nest, so a
   name-keyed open-timestamp table is enough to pair B with E.  The
   interpreter's lowering pass (bytecode emission, "emit") runs after the
   pipeline so its span lands in the same capture. *)
let compile_phase_timings source : (string * float) list =
  Trace.start ();
  (try
     let compiled = Gofree_core.Pipeline.compile source in
     let program = compiled.Gofree_core.Pipeline.c_program in
     let decisions =
       Gofree_interp.Decisions.of_analysis
         compiled.Gofree_core.Pipeline.c_analysis program
     in
     let layout = Gofree_interp.Layout.of_program program in
     ignore
       (Gofree_interp.Emit.lower
          ~roots:(Gofree_interp.Emit.entry_points program)
          program decisions layout)
   with _ -> ());
  let doc = Trace.stop () in
  let events = Json.get_list "traceEvents" (Json.parse doc) in
  let opens = Hashtbl.create 16 in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let name = Json.get_string "name" e in
      let ts = Json.get_float "ts" e in
      match Json.get_string "ph" e with
      | "B" -> Hashtbl.replace opens name ts
      | "E" -> begin
        match Hashtbl.find_opt opens name with
        | Some t0 ->
          Hashtbl.remove opens name;
          let so_far =
            Option.value (Hashtbl.find_opt totals name) ~default:0.0
          in
          Hashtbl.replace totals name (so_far +. ts -. t0)
        | None -> ()
      end
      | _ -> ())
    events;
  List.map
    (fun phase ->
      (phase, Option.value (Hashtbl.find_opt totals phase) ~default:0.0))
    [ "lex"; "parse"; "typecheck"; "escape"; "instrument"; "emit" ]

let setting_json (results : run_result array) : Json.t =
  let med f = Stats.median (Array.map f results) in
  let last = results.(Array.length results - 1) in
  let m = last.r_metrics in
  Json.Obj
    [
      ("wall_ns", Json.Float (med (fun r -> r.r_time_ms *. 1e6)));
      ("gc_time_ns", Json.Float (med (fun r -> r.r_gc_time_ms *. 1e6)));
      ("gc_cycles", Json.Float (med (fun r -> r.r_gcs)));
      ("maxheap_bytes", Json.Float (med (fun r -> r.r_maxheap)));
      ("alloced_bytes", Json.Float (med (fun r -> r.r_alloced)));
      ("freed_bytes", Json.Float (med (fun r -> r.r_freed)));
      ("free_ratio", Json.Float (Gofree_runtime.Metrics.free_ratio m));
    ]

let run ~options () =
  heading "Machine-readable benchmark export (BENCH_gofree.json)";
  let workloads =
    List.map
      (fun (w : W.t) ->
        let size = scaled_size ~options w in
        let source = W.source_of ~size w in
        Printf.printf "  %-12s size %-7d ... %!" w.W.w_name size;
        let per_setting =
          run_interleaved ~options ~settings:[ Go; Gofree ] source
        in
        let phases = compile_phase_timings source in
        Printf.printf "done\n%!";
        Json.Obj
          [
            ("name", Json.Str w.W.w_name);
            ("size", Json.Int size);
            ( "settings",
              Json.Obj
                (List.map
                   (fun (s, results) ->
                     (setting_name s, setting_json results))
                   per_setting) );
            ( "compile_phases_us",
              Json.Obj
                (List.map (fun (p, us) -> (p, Json.Float us)) phases) );
          ])
      W.all
  in
  let doc =
    Json.Obj
      [
        Gofree_obs.Schema.(field Bench);
        ("runs", Json.Int options.runs);
        ("scale_pct", Json.Int options.scale);
        ("seed", Json.Int options.seed);
        ("engine", Json.Str (engine_name options.engine));
        ("workloads", Json.List workloads);
        ("load", Exp_load.measure ~options ());
        ("precision", Exp_precision.measure ~options ());
        ("parallel", Exp_parallel.measure ~options ());
      ]
  in
  let oc = open_out "BENCH_gofree.json" in
  output_string oc (Json.to_string_pretty doc);
  close_out oc;
  Printf.printf "  wrote BENCH_gofree.json (%d workloads)\n"
    (List.length workloads)
