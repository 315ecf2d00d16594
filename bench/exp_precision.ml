(** Precision-mode evaluation: every workload re-run under each mode of
    the redesigned [Config] precision surface — baseline
    (field-insensitive, scope-exit placement), field-sensitive,
    last-use, and precise (both upgrades) — reporting the free ratio, GC
    cycles and tcfree insertion counts per mode.

    Allocator-visible metrics are deterministic under a fixed seed and
    identical across execution engines, so one run per (workload, mode)
    suffices; wall time is deliberately not reported here (the engine
    experiments own it).

    [measure ~options ()] is the ["precision"] section of
    [BENCH_gofree.json].  [run ~options ()] prints the table and writes
    [precision_smoke.json], the document CI compares against the
    committed [bench/precision_smoke.json] with
    [bench/check_precision.py]. *)

module W = Gofree_workloads.Workloads
module C = Gofree_core.Config
module Json = Gofree_obs.Json
module Rt = Gofree_runtime
open Bench_common

let modes =
  [
    ("baseline", C.gofree);
    ("field-sensitive", C.field_sensitive);
    ("last-use", C.last_use);
    ("precise", C.precise);
  ]

type mode_result = {
  p_free_ratio : float;
  p_gcs : int;
  p_freed_bytes : int;
  p_alloced_bytes : int;
  p_insertions : int;  (** total inserted tcfrees *)
  p_field_insertions : int;  (** of which field-projected ([b.field]) *)
}

(* Same harness as the GoFree setting of {!Bench_common.run_once}
   (grow-time map sweep on, small first-GC threshold), but under an
   arbitrary precision config. *)
let run_mode ~options ~config source : mode_result =
  Gc.major ();
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      heap_config =
        {
          Rt.Heap.default_config with
          grow_map_free_old = true;
          min_heap = 96 * 1024;
        };
      seed = Int64.of_int options.seed;
      engine = options.engine;
    }
  in
  let r =
    Gofree_interp.Runner.compile_and_run ~gofree_config:config ~run_config
      source
  in
  let m = r.Gofree_interp.Runner.metrics in
  let compiled = Gofree_core.Pipeline.compile ~config source in
  let inserted = compiled.Gofree_core.Pipeline.c_inserted in
  let fields =
    List.filter
      (fun i -> i.Gofree_core.Instrument.ins_field <> None)
      inserted
  in
  {
    p_free_ratio = Rt.Metrics.free_ratio m;
    p_gcs = m.Rt.Metrics.gc_cycles;
    p_freed_bytes = m.Rt.Metrics.freed_bytes;
    p_alloced_bytes = m.Rt.Metrics.alloced_bytes;
    p_insertions = List.length inserted;
    p_field_insertions = List.length fields;
  }

let mode_json (r : mode_result) : Json.t =
  Json.Obj
    [
      ("free_ratio", Json.Float r.p_free_ratio);
      ("gc_cycles", Json.Int r.p_gcs);
      ("freed_bytes", Json.Int r.p_freed_bytes);
      ("alloced_bytes", Json.Int r.p_alloced_bytes);
      ("insertions", Json.Int r.p_insertions);
      ("field_insertions", Json.Int r.p_field_insertions);
    ]

let workload_results ~options (w : W.t) :
    int * (string * mode_result) list =
  let size = scaled_size ~options w in
  let source = W.source_of ~size w in
  ( size,
    List.map
      (fun (name, config) -> (name, run_mode ~options ~config source))
      modes )

let workload_json (w : W.t) size (results : (string * mode_result) list) :
    Json.t =
  Json.Obj
    [
      ("name", Json.Str w.W.w_name);
      ("size", Json.Int size);
      ( "modes",
        Json.Obj (List.map (fun (n, r) -> (n, mode_json r)) results) );
    ]

(** The ["precision"] section of [BENCH_gofree.json]. *)
let measure ~options () : Json.t =
  Json.Obj
    [
      ("modes", Json.List (List.map (fun (n, _) -> Json.Str n) modes));
      ( "workloads",
        Json.List
          (List.map
             (fun w ->
               let size, results = workload_results ~options w in
               workload_json w size results)
             W.all) );
    ]

let run ~options () =
  heading "Precision modes (free ratio, GC cycles, insertions per mode)";
  Printf.printf "  %-12s %-16s %10s %6s %6s %6s\n" "workload" "mode"
    "free" "GCs" "ins" "field";
  let workloads =
    List.map
      (fun (w : W.t) ->
        let size, results = workload_results ~options w in
        List.iter
          (fun (name, r) ->
            Printf.printf "  %-12s %-16s %10.3f %6d %6d %6d\n" w.W.w_name
              name r.p_free_ratio r.p_gcs r.p_insertions
              r.p_field_insertions)
          results;
        workload_json w size results)
      W.all
  in
  let doc =
    Json.Obj
      [
        Gofree_obs.Schema.(field Precision);
        ("scale_pct", Json.Int options.scale);
        ("seed", Json.Int options.seed);
        ("modes", Json.List (List.map (fun (n, _) -> Json.Str n) modes));
        ("workloads", Json.List workloads);
      ]
  in
  let oc = open_out "precision_smoke.json" in
  output_string oc (Json.to_string_pretty doc);
  close_out oc;
  Printf.printf "  wrote precision_smoke.json (%d workloads x %d modes)\n"
    (List.length workloads) (List.length modes)
