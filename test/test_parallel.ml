(** The domain scheduler ([--domains N]).

    The gate at the default single domain: two runs of the same program
    are byte-identical — same output, same step count, same metrics
    JSON (modulo the one wall-clock field) — across every Table 6
    workload, the goroutine fan-out workload and both engines.
    Multi-domain runs are nondeterministically interleaved, so they are
    held to conservation invariants instead: every allocation is
    accounted for by exactly one of tcfree / GC / still-live, outputs
    are a line permutation of the single-domain run, and the
    work-stealing scheduler actually moves goroutines.  Arguments of
    spawned goroutines that have not started yet are GC roots at every
    domain count, and the sampler's step clock is run-wide. *)

module Rt = Gofree_runtime
module W = Gofree_workloads.Workloads
module Reg = Gofree_obs.Registry
module Wsq = Gofree_sched.Wsq

let engines =
  [
    ("reference", Gofree_interp.Interp.Eng_reference);
    ("bytecode", Gofree_interp.Interp.Eng_bytecode);
  ]

let run_mode ~engine ~domains ?(seed = 42) ?(sample_every = 0) src =
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      heap_config =
        {
          Rt.Heap.default_config with
          min_heap = 96 * 1024;  (* small heap: force real GC activity *)
        };
      engine;
      domains;
      seed = Int64.of_int seed;
      sample_every;
    }
  in
  Gofree_interp.Runner.compile_and_run ~run_config src

let metrics_fingerprint (m : Rt.Metrics.t) : string =
  m.Rt.Metrics.gc_time_ns <- 0L;
  Gofree_obs.Json.to_string_pretty (Rt.Metrics.to_json m)

(* ---------------------------------------------------------------- *)
(* The gate: two --domains 1 runs are identical, byte for byte        *)
(* ---------------------------------------------------------------- *)

let check_identity ~name ~engine src =
  let seq = run_mode ~engine ~domains:1 src in
  let par = run_mode ~engine ~domains:1 src in
  Alcotest.(check string)
    (name ^ ": output")
    seq.Gofree_interp.Runner.output par.Gofree_interp.Runner.output;
  Alcotest.(check int)
    (name ^ ": steps")
    seq.Gofree_interp.Runner.steps par.Gofree_interp.Runner.steps;
  Alcotest.(check bool)
    (name ^ ": panicked")
    seq.Gofree_interp.Runner.panicked par.Gofree_interp.Runner.panicked;
  Alcotest.(check string)
    (name ^ ": metrics")
    (metrics_fingerprint seq.Gofree_interp.Runner.metrics)
    (metrics_fingerprint par.Gofree_interp.Runner.metrics)

let test_identity_workloads () =
  List.iter
    (fun w ->
      List.iter
        (fun (ename, engine) ->
          check_identity
            ~name:(w.W.w_name ^ "/" ^ ename)
            ~engine (W.source_of w))
        engines)
    W.all

let test_identity_fanout () =
  (* goroutine-bearing program: the single-domain interleaving is
     deterministic — slice order, goroutine ids and all *)
  let src = W.source_of W.fanout in
  List.iter
    (fun (ename, engine) ->
      check_identity ~name:("fanout/" ^ ename) ~engine src)
    engines

(* ---------------------------------------------------------------- *)
(* Multi-domain invariants                                           *)
(* ---------------------------------------------------------------- *)

let sorted_lines s =
  String.split_on_char '\n' s |> List.sort compare |> String.concat "\n"

let sum = Array.fold_left ( + ) 0

let test_multi_domain_conservation () =
  let src = W.source_of W.fanout in
  let seq = run_mode ~engine:Gofree_interp.Interp.Eng_bytecode ~domains:1 src
  and par = run_mode ~engine:Gofree_interp.Interp.Eng_bytecode ~domains:4 src in
  let sm = seq.Gofree_interp.Runner.metrics
  and pm = par.Gofree_interp.Runner.metrics in
  (* same program, different interleaving: outputs are permutations *)
  Alcotest.(check string)
    "output is a line permutation of one domain"
    (sorted_lines seq.Gofree_interp.Runner.output)
    (sorted_lines par.Gofree_interp.Runner.output);
  (* allocation volume is interleaving-independent *)
  Alcotest.(check int)
    "heap alloc count" (sum sm.Rt.Metrics.heap_allocs)
    (sum pm.Rt.Metrics.heap_allocs);
  Alcotest.(check int)
    "alloced bytes" sm.Rt.Metrics.alloced_bytes pm.Rt.Metrics.alloced_bytes;
  Alcotest.(check int)
    "tcfree call count" sm.Rt.Metrics.tcfree_calls pm.Rt.Metrics.tcfree_calls;
  (* conservation: the final sweep freed everything still live *)
  (match Rt.Metrics.check_conservation ~live_objects:0 pm with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("conservation violated: " ^ msg));
  Alcotest.(check int)
    "no heap-to-stack pointers" 0 pm.Rt.Metrics.heap_to_stack_pointers;
  Alcotest.(check bool) "ran some GC" true (pm.Rt.Metrics.gc_cycles > 0)

(* Goroutines spawned with freshly allocated arguments, then enough
   allocation in main to force GC cycles before any of them starts: the
   queued arguments must survive as roots. *)
let src_pending_args =
  {|
var a []int
var b []int
var c []int
var d []int
var e []int
var f []int

func mk(n int, v int) []int {
  s := make([]int, n)
  for i := 0; i < n; i++ {
    s[i] = v * (i + 1)
  }
  return s
}

func use(s []int, g int) {
  t := 0
  for i := 0; i < len(s); i++ {
    t = t + s[i]
  }
  println(g, t)
}

func main() {
  for g := 0; g < 4; g++ {
    go use(mk(8, g+1), g)
  }
  a = make([]int, 200000)
  b = make([]int, 200000)
  c = make([]int, 200000)
  d = make([]int, 200000)
  e = make([]int, 200000)
  f = make([]int, 200000)
  println("main done")
}
|}

let test_pending_args_rooted () =
  let run ~config ~engine ~domains ~poison =
    let run_config =
      {
        Gofree_interp.Interp.default_config with
        heap_config =
          {
            Rt.Heap.default_config with
            poison_on_free = poison;
            grow_map_free_old = config.Gofree_core.Config.insert_tcfree;
          };
        engine;
        domains;
      }
    in
    (Gofree_interp.Runner.compile_and_run ~gofree_config:config ~run_config
       src_pending_args)
      .Gofree_interp.Runner.output
  in
  let expected =
    sorted_lines
      (run ~config:Gofree_core.Config.go
         ~engine:Gofree_interp.Interp.Eng_reference ~domains:1 ~poison:false)
  in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (ename, engine) ->
          List.iter
            (fun domains ->
              let label =
                Printf.sprintf "%s/%s/domains %d" cname ename domains
              in
              match run ~config ~engine ~domains ~poison:true with
              | out ->
                Alcotest.(check string) label expected (sorted_lines out)
              | exception Gofree_interp.Value.Corruption msg ->
                Alcotest.fail (label ^ ": poison read: " ^ msg))
            [ 1; 2 ])
        engines)
    [ ("gofree", Gofree_core.Config.gofree); ("go", Gofree_core.Config.go) ]

(* Goroutines on two domains write and read the same maps with no
   synchronisation, deleting, growing and ranging over them: int, bool,
   string, struct and pointer keys and values.  The program is racy, so
   its output is not checked; the runtime is.  A writer holding a stale
   count can give a bucket smaller columns than another writer just did,
   and a growth can count entries that are gone or new by the time it
   moves them, so every bucket access must stay inside its array and
   raise nothing.  Under the poison heap a racing read of buckets that
   another domain's growth just freed is a real read of freed memory,
   and the only other way out allowed. *)
let src_racy_maps =
  {|
type Pt struct {
  x int
  y int
}

var ints map[int]int
var names map[string]int
var pts map[string]Pt
var ptrs map[int]*Pt
var flags map[bool]int

func hammer(id int, iters int) {
  acc := 0
  for i := 0; i < iters; i++ {
    k := (i*7 + id) % 600
    ints[k] = i
    acc = acc + ints[(k*13)%600]
    names["n"+itoa(k%200)] = i
    acc = acc + names["n"+itoa((k*3)%200)]
    pts["p"+itoa(k)] = Pt{x: i, y: id}
    acc = acc + pts["p"+itoa((k*11)%600)].x
    ptrs[k] = &Pt{x: k, y: i}
    flags[i%2 == 0] = flags[i%3 == 0] + 1
    if i%53 == 0 {
      delete(ints, k)
      delete(names, "n"+itoa(k%200))
      delete(ptrs, k)
    }
    if i%211 == 0 {
      for key := range ptrs {
        acc = acc + key%3
      }
    }
  }
  println("done", id, acc > -1)
}

func main() {
  ints = make(map[int]int)
  names = make(map[string]int)
  pts = make(map[string]Pt)
  ptrs = make(map[int]*Pt)
  flags = make(map[bool]int)
  for g := 0; g < 5; g++ {
    go hammer(g, 1500)
  }
  hammer(99, 1500)
  println("main done")
}
|}

let test_racy_maps () =
  List.iter
    (fun (ename, engine) ->
      List.iter
        (fun poison ->
          let run_config =
            {
              Gofree_interp.Interp.default_config with
              heap_config =
                { Rt.Heap.default_config with poison_on_free = poison };
              engine;
              domains = 2;
            }
          in
          let label = ename ^ if poison then " poison" else "" in
          match
            Gofree_interp.Runner.compile_and_run ~run_config src_racy_maps
          with
          | r ->
            Alcotest.(check bool) (label ^ ": ran to the end") true
              (List.mem "main done"
                 (String.split_on_char '\n' r.Gofree_interp.Runner.output))
          | exception Gofree_interp.Value.Corruption _ when poison -> ())
        [ false; true ])
    engines

let sampled_steps (r : Gofree_interp.Runner.result) =
  match r.Gofree_interp.Runner.sampler with
  | None -> Alcotest.fail "no sampler attached"
  | Some s -> List.map (fun sm -> sm.Rt.Sampler.sm_step) (Rt.Sampler.samples s)

let test_sampler_run_wide_clock () =
  (* One step clock for the whole run: at one domain the series is
     strictly increasing, on the cadence, and has one sample per
     [every] steps of the run's total; at two domains the recording
     order may interleave, but the set of steps is the same. *)
  let src = W.source_of W.fanout and every = 500 in
  List.iter
    (fun domains ->
      let r =
        run_mode ~engine:Gofree_interp.Interp.Eng_bytecode ~domains
          ~sample_every:every src
      in
      let steps = sampled_steps r in
      let total = r.Gofree_interp.Runner.steps in
      let label what = Printf.sprintf "domains %d: %s" domains what in
      if domains = 1 then
        ignore
          (List.fold_left
             (fun prev st ->
               Alcotest.(check bool) (label "strictly increasing") true
                 (st > prev);
               st)
             0 steps);
      List.iter
        (fun st -> Alcotest.(check int) (label "on the cadence") 0 (st mod every))
        steps;
      Alcotest.(check int) (label "one sample per every steps") (total / every)
        (List.length steps);
      Alcotest.(check (list int))
        (label "steps every..total")
        (List.init (total / every) (fun i -> (i + 1) * every))
        (List.sort compare steps))
    [ 1; 2 ]

let sched_counter name =
  Reg.counter_value (Reg.counter Reg.runtime name)

let test_work_stealing_observable () =
  (* With telemetry on, a 4-domain fan-out run must publish nonzero
     steal/spawn/yield counters.  Stealing depends on timing, so allow
     a few attempts before declaring the scheduler inert. *)
  Reg.acquire_runtime ();
  Fun.protect ~finally:Reg.release_runtime @@ fun () ->
  let src = W.source_of ~size:12 W.fanout in
  let steals0 = sched_counter "gofree_sched_steals_total" in
  let spawns0 = sched_counter "gofree_sched_spawns_total" in
  let rec attempt n =
    let _ =
      run_mode ~engine:Gofree_interp.Interp.Eng_bytecode ~domains:4
        ~seed:(100 + n) src
    in
    if sched_counter "gofree_sched_steals_total" > steals0 then ()
    else if n < 5 then attempt (n + 1)
    else Alcotest.fail "no goroutine was ever stolen across 6 runs"
  in
  attempt 0;
  Alcotest.(check bool)
    "spawns published" true
    (sched_counter "gofree_sched_spawns_total" > spawns0);
  Alcotest.(check bool)
    "yields published" true
    (sched_counter "gofree_sched_yields_total" > 0)

(* ---------------------------------------------------------------- *)
(* Concurrency primitives                                            *)
(* ---------------------------------------------------------------- *)

let test_wsq_concurrent () =
  (* 4 domains hammer one deque pair: producers push, a thief steals
     halves; every pushed item must be popped exactly once. *)
  let own = Wsq.create () and thief = Wsq.create () in
  let n_per = 5_000 and producers = 2 in
  let seen = Atomic.make 0 in
  let drain q =
    let rec go () =
      match Wsq.pop q with
      | Some _ ->
        Atomic.incr seen;
        go ()
      | None -> ()
    in
    go ()
  in
  let doms =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to n_per do
              Wsq.push own ((p * n_per) + i)
            done))
  in
  let stealer =
    Domain.spawn (fun () ->
        for _ = 1 to 200 do
          ignore (Wsq.steal_half ~victim:own ~into:thief);
          drain thief
        done)
  in
  Array.iter Domain.join doms;
  Domain.join stealer;
  drain own;
  ignore (Wsq.steal_half ~victim:own ~into:thief);
  drain thief;
  drain own;
  Alcotest.(check int)
    "all pushed items popped exactly once" (producers * n_per)
    (Atomic.get seen)

let test_metrics_striping () =
  (* Per-domain stripes written in parallel must merge into exact sums
     — this is the satellite replacing plain [int ref] counters. *)
  let shards = Array.init 4 (fun _ -> Rt.Metrics.create ()) in
  let per = 10_000 in
  let doms =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Rt.Metrics.count_alloc shards.(d) ~category:Rt.Metrics.Cat_slice
                ~heap:true ~bytes:8;
              Rt.Metrics.count_giveup shards.(d) Rt.Metrics.Ownership_changed
            done))
  in
  Array.iter Domain.join doms;
  let m = Rt.Metrics.merged shards in
  Alcotest.(check int) "alloc count" (4 * per) (sum m.Rt.Metrics.heap_allocs);
  Alcotest.(check int) "alloc bytes" (4 * per * 8) m.Rt.Metrics.alloced_bytes;
  Alcotest.(check int)
    "giveup count" (4 * per)
    m.Rt.Metrics.giveups.(Rt.Metrics.giveup_index
                            Rt.Metrics.Ownership_changed)

let test_sampler_locked () =
  (* Satellite: the sampler ring is mutex-guarded, so concurrent
     recorders from several domains never corrupt it. *)
  let s = Rt.Sampler.create ~every:1 () in
  let m = Rt.Metrics.create () in
  let doms =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 1000 do
              Rt.Sampler.record s ~step:((d * 1000) + i) ~span_bytes:0 m
            done))
  in
  Array.iter Domain.join doms;
  Alcotest.(check bool)
    "ring holds samples" true
    (List.length (Rt.Sampler.samples s) > 0)

(* ---------------------------------------------------------------- *)
(* The golden corpus at two domains                                   *)
(* ---------------------------------------------------------------- *)

(* Programs of the golden corpus whose goroutines print: their lines
   interleave in any order, so they compare as sorted lines.  None
   does; every program waits for its goroutines and prints from [main]
   only, so each must print its [.out] exactly. *)
let golden_goroutines_print : string list = []

let test_golden_two_domains () =
  List.iter
    (fun path ->
      let name = Filename.remove_extension (Filename.basename path) in
      let expected =
        Test_disasm.read_file (Filename.remove_extension path ^ ".out")
      in
      let canon =
        if List.mem name golden_goroutines_print then sorted_lines
        else Fun.id
      in
      let c =
        match Gofree_api.compile_string (Test_disasm.read_file path) with
        | Ok c -> c
        | Error e -> Alcotest.fail (Gofree_api.error_message e)
      in
      List.iter
        (fun poison ->
          let what =
            Printf.sprintf "%s --domains 2%s" name
              (if poison then " --poison" else "")
          in
          let options =
            { Gofree_api.default_run_options with domains = 2; poison }
          in
          match Gofree_api.run_compilation ~options c with
          | Ok o ->
            Alcotest.(check string) what (canon expected)
              (canon o.Gofree_api.output)
          | Error e ->
            Alcotest.failf "%s: %s" what (Gofree_api.error_message e))
        [ false; true ])
    (Test_disasm.golden_programs ())

let suite =
  [
    Alcotest.test_case "domains=1 identical: six workloads x two engines"
      `Slow test_identity_workloads;
    Alcotest.test_case "domains=1 identical: goroutine fan-out" `Slow
      test_identity_fanout;
    Alcotest.test_case "domains=4 conservation invariants" `Quick
      test_multi_domain_conservation;
    Alcotest.test_case "work stealing moves goroutines" `Quick
      test_work_stealing_observable;
    Alcotest.test_case "pending goroutine arguments are GC roots" `Quick
      test_pending_args_rooted;
    Alcotest.test_case "racy map writers stay memory-safe" `Quick
      test_racy_maps;
    Alcotest.test_case "sampler steps on one run-wide clock" `Quick
      test_sampler_run_wide_clock;
    Alcotest.test_case "wsq: concurrent push/pop/steal conserve items"
      `Quick test_wsq_concurrent;
    Alcotest.test_case "metrics stripes merge to exact sums" `Quick
      test_metrics_striping;
    Alcotest.test_case "sampler ring safe under concurrent recorders"
      `Quick test_sampler_locked;
    Alcotest.test_case "golden corpus at --domains 2, plain and poison"
      `Quick test_golden_two_domains;
  ]
