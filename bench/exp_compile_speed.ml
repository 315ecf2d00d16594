(** §6.7 compilation speed: analyzing a large synthetic package with the
    stock Go analysis versus the GoFree analysis, repeated [runs] times —
    the paper finds no significant difference (p = 0.496).

    Also prints a scaling curve against the O(N^3) connection-graph
    baseline, the complexity argument of §3.2 / Table 3. *)

open Bench_common
module Stats = Gofree_stats.Stats
module Ttest = Gofree_stats.Ttest
module Table = Gofree_stats.Table

let now_ms () = Unix.gettimeofday () *. 1000.0

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (now_ms () -. t0, r)

let analyze_with mode program =
  Gofree_escape.Analysis.analyze ~mode program

(* Full compilation under each configuration: parse, typecheck, escape
   analysis, instrumentation — the paper compares end-to-end compile
   times, where the analysis is only one pass among several. *)
let compile_full config source =
  Gofree_core.Pipeline.compile ~config source

let run ~options () =
  heading
    "Compilation speed (paper 6.7): Go analysis vs GoFree analysis on a \
     large package";
  let source = Gofree_workloads.Progen.package ~funcs:60 ~stmts:24 () in
  let program = Gofree_core.Pipeline.parse_and_check source in
  let loc = List.length (String.split_on_char '\n' source) in
  let sample config =
    Array.init (max 5 options.runs) (fun _ ->
        fst (time_ms (fun () -> compile_full config source)))
  in
  ignore (sample Gofree_core.Config.go);
  let go_times = sample Gofree_core.Config.go in
  let gofree_times = sample Gofree_core.Config.gofree in
  let t = Ttest.welch go_times gofree_times in
  Printf.printf
    "package: %d lines, %d functions (full compile: parse + typecheck + \
     analysis + instrumentation)\n\
     Go compile      %.2f ± %.2f ms\n\
     GoFree compile  %.2f ± %.2f ms\n\
     Welch p-value = %s → %s (paper: p = 0.496, insignificant)\n"
    loc
    (List.length program.Minigo.Tast.p_funcs)
    (Stats.mean go_times) (Stats.stdev go_times)
    (Stats.mean gofree_times) (Stats.stdev gofree_times)
    (Table.pvalue t.Ttest.p_value)
    (if t.Ttest.significant then "significant difference"
     else "no significant difference");

  heading
    "Scaling on one growing function: O(N^2) escape analyses vs the \
     O(N^3) connection graph";
  let table =
    Table.create
      ~aligns:[ Table.Right; Right; Right; Right ]
      [ "statements"; "Go ms"; "GoFree ms"; "ConnGraph ms" ]
  in
  List.iter
    (fun stmts ->
      let source = Gofree_workloads.Progen.big_function ~stmts () in
      let program = Gofree_core.Pipeline.parse_and_check source in
      let best f =
        let t1, _ = time_ms f in
        let t2, _ = time_ms f in
        min t1 t2
      in
      let go_ms =
        best (fun () ->
            analyze_with Gofree_escape.Propagate.Go_base program)
      in
      let gf_ms =
        best (fun () -> analyze_with Gofree_escape.Propagate.Gofree program)
      in
      let cg_ms =
        best (fun () ->
            List.iter
              (fun f -> ignore (Gofree_baselines.Conn_graph.analyze f))
              program.Minigo.Tast.p_funcs)
      in
      Table.add_row table
        [
          string_of_int stmts;
          Printf.sprintf "%.1f" go_ms;
          Printf.sprintf "%.1f" gf_ms;
          Printf.sprintf "%.1f" cg_ms;
        ])
    [ 100; 200; 400; 800 ];
  print_string (Table.render table);
  print_endline
    "\nDoubling the function should roughly 4x the O(N^2) analyses and \
     8x the connection graph."
