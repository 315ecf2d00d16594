(** Concurrency example: goroutines allocating from per-P mcaches, with
    the tcfree ownership checks of §5 visibly exercised.

    Each worker builds per-request scratch buffers.  The program runs on
    two domains (two Ps), and idle domains steal goroutines from busy
    ones, so some tcfree calls find their mspan owned by a different P
    (or swapped into mcentral) and give up — exactly the best-effort
    behaviour the paper designs for: the GC picks up whatever tcfree
    declines.  The counts vary from run to run with the interleaving.

    Run with:  dune exec examples/goroutines.exe *)

module Rt = Gofree_runtime

let program =
  {|
var processed map[int]int

func handle(worker int, requests int) {
  total := 0
  for r := 0; r < requests; r++ {
    scratch := make([]int, 100+rand(200))
    for i := 0; i < len(scratch); i++ {
      scratch[i] = worker*1000 + r + i
    }
    total += scratch[0] + scratch[len(scratch)-1]
  }
  processed[worker] = total
}

func main() {
  processed = make(map[int]int)
  for w := 0; w < 6; w++ {
    go handle(w, 400)
  }
}
|}

let () =
  let run config =
    let run_config =
      {
        Gofree_interp.Interp.default_config with
        domains = 2;
        heap_config =
          {
            Rt.Heap.default_config with
            grow_map_free_old = config.Gofree_core.Config.insert_tcfree;
          };
      }
    in
    Gofree_interp.Runner.compile_and_run ~gofree_config:config ~run_config
      program
  in
  let go = run Gofree_core.Config.go in
  let gofree = run Gofree_core.Config.gofree in
  Printf.printf "deterministic outputs agree: %b\n"
    (String.equal go.Gofree_interp.Runner.output
       gofree.Gofree_interp.Runner.output);
  let m = gofree.Gofree_interp.Runner.metrics in
  let g = m.Rt.Metrics.giveups in
  Printf.printf "tcfree calls %d, freed %d (%.1f%% of bytes)\n"
    m.Rt.Metrics.tcfree_calls m.Rt.Metrics.tcfree_success
    (100.0 *. Rt.Metrics.free_ratio m);
  Printf.printf
    "give-ups from concurrency: ownership-changed %d, span-swapped %d, \
     gc-running %d\n"
    g.(1) g.(2) g.(0);
  Printf.printf "GC cycles %d -> %d, maxheap %s -> %s\n"
    go.Gofree_interp.Runner.metrics.Rt.Metrics.gc_cycles
    m.Rt.Metrics.gc_cycles
    (Gofree_stats.Table.bytes
       go.Gofree_interp.Runner.metrics.Rt.Metrics.max_heap)
    (Gofree_stats.Table.bytes m.Rt.Metrics.max_heap)
