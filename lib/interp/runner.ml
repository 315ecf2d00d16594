(** Top-level execution of a compiled MiniGo program: sets up the heap,
    scheduler and globals, lowers the program to bytecode (unless the
    config asks for the reference tree-walker), runs [main] (plus all
    goroutines) to completion, performs the final accounting sweep and
    returns the collected output and metrics. *)

open Minigo
module Rt = Gofree_runtime

type result = {
  output : string;
  metrics : Rt.Metrics.t;
  wall_ns : int64;
  steps : int;
  panicked : bool;
  sampler : Rt.Sampler.t option;
      (** the metrics time series, when [sample_every > 0] asked for one *)
}

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

module Reg = Gofree_obs.Registry

(* Counters of the process-global runtime registry (gofree-telemetry-v1)
   that each run folds its totals into once, while something holds
   [Reg.acquire_runtime] — a daemon's telemetry scrape then covers every
   run it served.  The run's own [Metrics] stripes are what count on the
   hot path. *)
let runtime_counters names =
  Array.map (fun (name, help) -> Reg.counter Reg.runtime ~help name) names

let publish counters values =
  if Reg.runtime_enabled () then
    Array.iteri (fun i v -> Reg.add counters.(i) v) values

let vm_counters =
  runtime_counters
    [|
      ( "gofree_vm_ic_hit_total",
        "bytecode-engine inline cache hits (map-key + struct-field)" );
      ( "gofree_vm_ic_miss_total",
        "bytecode-engine inline cache misses (map-key + struct-field)" );
      ( "gofree_sched_steals_total",
        "goroutines migrated between domains by work stealing" );
      ( "gofree_sched_spawns_total",
        "goroutines spawned onto the domain scheduler" );
      ( "gofree_sched_yields_total",
        "goroutine yields on the domain scheduler" );
    |]

(* attempts, frees, give-ups, then give-ups per [Metrics.giveup_names] *)
let tcfree_counters =
  runtime_counters
    (Array.append
       [|
         ("gofree_tcfree_attempts_total", "tcfree calls");
         ("gofree_tcfree_freed_total", "tcfree calls that freed the object");
         ("gofree_tcfree_giveup_total", "tcfree calls that deferred to GC");
       |]
       (Array.map
          (fun name ->
            ( "gofree_tcfree_giveup_" ^ name ^ "_total",
              "tcfree calls that gave up for this reason" ))
          Rt.Metrics.giveup_names))

let publish_tcfree (m : Rt.Metrics.t) =
  let giveups = m.Rt.Metrics.giveups in
  publish tcfree_counters
    (Array.append
       [|
         m.Rt.Metrics.tcfree_calls;
         m.Rt.Metrics.tcfree_success;
         Array.fold_left ( + ) 0 giveups;
       |]
       giveups)

(** Run an instrumented program against explicit static decisions — the
    entry point for linked multi-package builds, whose decisions come
    from per-package caches rather than one whole-program analysis. *)
let run_program ?(config = Interp.default_config)
    ~(decisions : Decisions.t) (program : Tast.program) : result =
  let nd = config.Interp.domains in
  if nd < 1 then invalid_arg "Runner: domains must be at least 1";
  (* One mcache/metric stripe per domain (each domain is one P); more
     than one domain also turns the allocator's internal locking on. *)
  let heap = Rt.Heap.create ~config:config.Interp.heap_config ~nprocs:nd () in
  let layout = Layout.of_program program in
  let main_g =
    { Interp.g_id = 0; g_frames = [||]; g_depth = 0; g_pending = [||];
      g_stk_v = [||]; g_top_v = 0; g_stk_i = [||]; g_top_i = 0 }
  in
  let par = Interp.make_parctx ~nd ~seed:config.Interp.seed in
  let st =
    {
      Interp.program;
      decisions;
      layout;
      heap;
      output = Buffer.create 256;
      globals = Array.make (max 1 layout.Layout.l_nglobals) Interp.Bunbound;
      config;
      dispatch = Interp.call_by_id;
      current = main_g;
      steps = 0;
      unwinding = None;
      ic_hits = 0;
      ic_misses = 0;
      yield_at = 1;
      next_yield = config.Interp.yield_every;
      sampled = 0;
      dom = 0;
      par;
    }
  in
  (* Lower once, before anything executes, so even the global
     initializers' calls run bytecode; only what they and main reach. *)
  (match config.Interp.engine with
  | Interp.Eng_reference -> ()  (* the default dispatch, call_by_id *)
  | Interp.Eng_bytecode ->
    Vm.install st
      (Emit.lower ~roots:(Emit.entry_points program) program decisions
         layout));
  heap.Rt.Heap.trace_payload <- Value.trace_payload;
  heap.Rt.Heap.poison_payload <- Value.poison_payload;
  heap.Rt.Heap.iter_roots <-
    (fun k -> Interp.iter_roots_par par ~globals:st.Interp.globals k);
  if config.Interp.sample_every > 0 then
    heap.Rt.Heap.sampler <-
      Some (Rt.Sampler.create ~every:config.Interp.sample_every ());
  let panicked = ref false in
  let t0 = now_ns () in
  (* Globals are evaluated in a synthetic frame of main's goroutine. *)
  let boot () =
    if Layout.func_id layout "main" = None then
      raise (Interp.Runtime_error "no main function");
    (* initializers only reference globals: the frame needs no slot *)
    let boot_frame = Interp.push_frame st 0 in
    List.iter
      (fun ((v : Tast.var), init) ->
        let value =
          match init with
          | Some e -> Value.copy (Interp.eval st e)
          | None -> Value.zero program.Tast.p_tenv v.Tast.v_ty
        in
        st.Interp.globals.(Layout.slot layout v) <-
          Interp.Bdirect (Value.cell value))
      program.Tast.p_globals;
    Interp.pop_frame st boot_frame 0;
    match Interp.call_function st "main" [||] with
    | _ -> ()
    | exception Interp.Panic v ->
      Buffer.add_string st.Interp.output
        ("panic: " ^ Interp.show st v ^ "\n");
      panicked := true
  in
  (* tcfree runs only inside [Par.run]: its counts go to the registry
     however the run ends, a raised [Value.Corruption] included *)
  Fun.protect
    ~finally:(fun () -> publish_tcfree (Rt.Heap.merged_metrics heap))
    (fun () ->
      match Par.run par st boot with
      | () -> ()
      | exception Interp.Panic v ->
        (* a goroutine's unrecovered panic aborts the program, like Go *)
        Buffer.add_string st.Interp.output
          ("panic: " ^ Interp.show st v ^ "\n");
        panicked := true);
  let t1 = now_ns () in
  (* Each goroutine ran on its own state copy; finished goroutines
     folded their counters into the context, any survivors of an aborted
     run are still registered. *)
  let total_steps, total_ic_hits, total_ic_misses =
    List.fold_left
      (fun (s, h, m) ((_ : Interp.goroutine), (gst : Interp.state)) ->
        (s + gst.Interp.steps, h + gst.Interp.ic_hits,
         m + gst.Interp.ic_misses))
      (par.Interp.p_steps_done, par.Interp.p_ic_hits, par.Interp.p_ic_misses)
      par.Interp.p_regs
  in
  (* Final accounting sweep: everything still live is attributed to GC
     reclamation for the Table 8 denominators, without counting an extra
     cycle.  All domains have been joined by now, so the heap is
     quiescent. *)
  par.Interp.p_regs <- [];
  heap.Rt.Heap.iter_roots <- (fun _ -> ());
  let saved_cycles = heap.Rt.Heap.metrics.Rt.Metrics.gc_cycles in
  let saved_time = heap.Rt.Heap.metrics.Rt.Metrics.gc_time_ns in
  Rt.Gc_collector.collect heap;
  heap.Rt.Heap.metrics.Rt.Metrics.gc_cycles <- saved_cycles;
  heap.Rt.Heap.metrics.Rt.Metrics.gc_time_ns <- saved_time;
  heap.Rt.Heap.metrics.Rt.Metrics.max_heap_pages <-
    Rt.Pageheap.max_used_bytes heap.Rt.Heap.pages;
  publish vm_counters
    [|
      total_ic_hits;
      total_ic_misses;
      par.Interp.p_steals;
      par.Interp.p_spawns;
      par.Interp.p_yields;
    |];
  {
    output = Buffer.contents st.Interp.output;
    metrics = Rt.Heap.merged_metrics heap;
    wall_ns = Int64.sub t1 t0;
    steps = total_steps;
    panicked = !panicked;
    sampler = heap.Rt.Heap.sampler;
  }

(** Run a compiled program.  Raises {!Value.Corruption} if poison mode
    detects a wrong explicit free, and {!Interp.Runtime_error} on
    interpreter-level failures. *)
let run ?(config = Interp.default_config)
    (compiled : Gofree_core.Pipeline.compiled) : result =
  let program = compiled.Gofree_core.Pipeline.c_program in
  let decisions =
    Decisions.of_analysis compiled.Gofree_core.Pipeline.c_analysis program
  in
  run_program ~config ~decisions program

(** Convenience: compile under [gofree_config] and run.  The runtime's
    map-growth freeing follows the compile-time setting unless the caller
    supplies an explicit [run_config]. *)
let compile_and_run ?(gofree_config = Gofree_core.Config.gofree)
    ?run_config (source : string) : result =
  let compiled = Gofree_core.Pipeline.compile ~config:gofree_config source in
  let config =
    match run_config with
    | Some c -> c
    | None ->
      {
        Interp.default_config with
        heap_config =
          {
            Rt.Heap.default_config with
            grow_map_free_old = gofree_config.Gofree_core.Config.insert_tcfree;
          };
      }
  in
  run ~config compiled
