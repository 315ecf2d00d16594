(** Differential tests for function-granular incremental analysis: a
    warm rebuild after editing one function must re-solve only that
    function's analysis unit (call-graph SCC) and still produce results
    byte-identical to a cold build of the edited tree — tcfree
    insertions, program output and the runtime metrics JSON.  Also the
    iterative-Tarjan stress tests (10k-deep chains must not overflow
    the stack) and the unit-record store round-trips. *)

open Minigo
module B = Gofree_build
module E = Gofree_escape

(* ---------------------------------------------------------------- *)
(* Temporary package trees                                           *)
(* ---------------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let tree_counter = ref 0

let write_file path src =
  let oc = open_out_bin path in
  output_string oc src;
  close_out oc

(** Create a fresh directory holding [files] (relative path → source). *)
let make_tree files =
  incr tree_counter;
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-incr-test-%d-%d" (Unix.getpid ())
         !tree_counter)
  in
  mkdir_p root;
  List.iter
    (fun (rel, src) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      write_file path src)
    files;
  root

(* The same three-package program as examples/multipkg: util (4 funcs,
   one private) ← data (2 funcs) ← main. *)

let util_src =
  {|package util

func Sum(xs []int) int {
	s := 0
	for i := range xs {
		s = s + xs[i]
	}
	return s
}

func MakeRange(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

func scale(x int, k int) int {
	return x * k
}

func Scale(xs []int, k int) []int {
	ys := make([]int, len(xs))
	for i := range xs {
		ys[i] = scale(xs[i], k)
	}
	return ys
}
|}

let data_src =
  {|package data

import "util"

type Point struct {
	X int
	Y int
}

func Centroid(ps []Point) Point {
	n := len(ps)
	if n == 0 {
		return Point{}
	}
	sx := 0
	sy := 0
	for i := range ps {
		sx = sx + ps[i].X
		sy = sy + ps[i].Y
	}
	return Point{X: sx / n, Y: sy / n}
}

func Grid(n int) []Point {
	xs := util.MakeRange(n)
	ps := make([]Point, n)
	total := util.Sum(xs)
	for i := range ps {
		ps[i] = Point{X: xs[i], Y: total}
	}
	return ps
}
|}

let main_src =
  {|package main

import (
	"util"
	"data"
)

func main() {
	xs := util.MakeRange(16)
	ys := util.Scale(xs, 3)
	total := util.Sum(ys)
	ps := data.Grid(8)
	c := data.Centroid(ps)
	println("total", total)
	println("centroid", c.X, c.Y)
}
|}

let tree_files =
  [
    ("util/util.go", util_src);
    ("data/data.go", data_src);
    ("main.go", main_src);
  ]

(* ---------------------------------------------------------------- *)
(* Source edits                                                      *)
(* ---------------------------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** Insert a semantics-preserving pad statement at the top of [fname]'s
    body.  The typed body changes (new unit content key) but the
    function's summary — and so every dependent's key — does not. *)
let edit_func src fname =
  let needle = "func " ^ fname ^ "(" in
  let rec go acc = function
    | [] -> Alcotest.failf "edit_func: no function %s" fname
    | l :: rest when starts_with ~prefix:needle l ->
      List.rev_append acc (l :: "\tpad9 := 0" :: "\tpad9 = pad9" :: rest)
    | l :: rest -> go (l :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' src))

let copy_edit files rel fname =
  List.map
    (fun (r, s) -> if r = rel then (r, edit_func s fname) else (r, s))
    files

(* ---------------------------------------------------------------- *)
(* Build fingerprints: the byte-identity oracle                      *)
(* ---------------------------------------------------------------- *)

let kind_str = function
  | Tast.Free_slice -> "slice"
  | Tast.Free_map -> "map"
  | Tast.Free_obj -> "obj"

let decisions_of (r : B.Driver.result) =
  {
    Gofree_interp.Decisions.site_heap = r.B.Driver.b_site_heap;
    var_boxed = r.B.Driver.b_var_boxed;
  }

(** Everything the build promises: every insertion with its absolute
    variable id, the program's output, and the runtime metrics JSON.
    Two builds with equal fingerprints are observationally identical. *)
let fingerprint (r : B.Driver.result) =
  let insertions =
    List.sort compare
      (List.map
         (fun { Gofree_core.Instrument.ins_func; ins_var; ins_field;
                ins_kind } ->
           Printf.sprintf "%s/%d%s/%s/%s" ins_func ins_var.Tast.v_id
             (match ins_field with
             | Some (idx, fname) -> Printf.sprintf ".%d:%s" idx fname
             | None -> "")
             ins_var.Tast.v_name (kind_str ins_kind))
         r.B.Driver.b_inserted)
  in
  let run =
    Gofree_interp.Runner.run_program ~decisions:(decisions_of r)
      r.B.Driver.b_program
  in
  String.concat "\n" insertions
  ^ "\n---\n" ^ run.Gofree_interp.Runner.output ^ "\n---\n"
  ^ Gofree_obs.Json.to_string
      (Gofree_runtime.Metrics.to_json run.Gofree_interp.Runner.metrics)

let unit_counts (r : B.Driver.result) =
  ( r.B.Driver.b_stats.B.Driver.bs_unit_hits,
    r.B.Driver.b_stats.B.Driver.bs_unit_misses )

(* ---------------------------------------------------------------- *)
(* Differential per-function edits of the three-package tree         *)
(* ---------------------------------------------------------------- *)

(** Cold-build the tree, edit one function in place, rebuild warm, and
    compare against a from-scratch cold build of the edited tree: the
    results must be byte-identical and only the edited function's unit
    re-solved ([exp_hits] units replayed from the cache). *)
let check_one_edit ?unit_cache ~rel ~fname ~exp_hits
    ~exp_misses () =
  let root = make_tree tree_files in
  ignore (B.Driver.build root);
  let edited = copy_edit tree_files rel fname in
  write_file (Filename.concat root rel) (List.assoc rel edited);
  let warm = B.Driver.build ?unit_cache root in
  let cold = B.Driver.build (make_tree edited) in
  Alcotest.(check string)
    (fname ^ ": warm rebuild byte-identical to cold")
    (fingerprint cold) (fingerprint warm);
  Alcotest.(check (pair int int))
    (fname ^ ": expected units replayed/re-solved")
    (exp_hits, exp_misses) (unit_counts warm)

(* Each function of the tree: editing util re-analyzes all 3 packages
   (transitive keys) but re-solves 1 of 7 units; editing data leaves
   util's package entry warm (3 units seen); editing main touches only
   its own single unit. *)
let edit_cases =
  [
    ("util/util.go", "Sum", 6);
    ("util/util.go", "MakeRange", 6);
    ("util/util.go", "scale", 6);
    ("util/util.go", "Scale", 6);
    ("data/data.go", "Centroid", 2);
    ("data/data.go", "Grid", 2);
    ("main.go", "main", 0);
  ]

let test_every_function_edit () =
  List.iter
    (fun (rel, fname, exp_hits) ->
      check_one_edit ~rel ~fname ~exp_hits ~exp_misses:1 ())
    edit_cases

(* The build's trace, which perfbench's layer split reads: one
   [wave N] span per dependency wave, on the main track.  A cold build
   nests one [analyze:<pkg>] span per package; a warm one analyzes
   nothing and marks every package a cache hit. *)
let test_build_trace_spans () =
  let module Json = Gofree_obs.Json in
  let module Trace = Gofree_obs.Trace in
  let root = make_tree tree_files in
  let traced () =
    Trace.start ();
    let r = B.Driver.build root in
    let events = Json.get_list "traceEvents" (Json.parse (Trace.stop ())) in
    (r.B.Driver.b_stats, events)
  in
  let named ph prefix events =
    List.filter_map
      (fun e ->
        let name = Json.get_string "name" e in
        if Json.get_string "ph" e = ph && String.starts_with ~prefix name
        then Some name
        else None)
      events
  in
  let check_build label (st : B.Driver.stats) events ~analyzed =
    let pkgs = st.B.Driver.bs_pkgs in
    let nwaves =
      1 + List.fold_left (fun m r -> max m r.B.Driver.pr_wave) 0 pkgs
    in
    Alcotest.(check (list string)) (label ^ ": one span per wave")
      (List.init nwaves (Printf.sprintf "wave %d"))
      (named "B" "wave " events);
    Alcotest.(check (list string)) (label ^ ": analyze spans")
      (if analyzed then List.map (fun r -> "analyze:" ^ r.B.Driver.pr_name) pkgs
       else [])
      (named "B" "analyze:" events);
    Alcotest.(check int) (label ^ ": cache hit instants")
      (if analyzed then 0 else List.length pkgs)
      (List.length (named "i" "cache hit" events));
    List.iter
      (fun e ->
        if Json.get_string "ph" e <> "M" then
          Alcotest.(check int)
            (label ^ ": " ^ Json.get_string "name" e ^ " on the main track")
            Trace.tid_main (Json.get_int "tid" e))
      events
  in
  let cold, cold_events = traced () in
  check_build "cold" cold cold_events ~analyzed:true;
  let warm, warm_events = traced () in
  check_build "warm" warm warm_events ~analyzed:false

let test_no_unit_cache_fallback () =
  (* with unit caching disabled the same edit degrades to package-level
     incrementality: every unit of every re-analyzed package re-solves,
     and the bytes still match *)
  check_one_edit ~unit_cache:B.Driver.no_unit_cache ~rel:"util/util.go"
    ~fname:"Sum" ~exp_hits:0 ~exp_misses:7 ()

let test_formatting_only_edit_replays_everything () =
  (* changed bytes invalidate every package key, but no typed body
     changed, so no unit re-solves *)
  let root = make_tree tree_files in
  let cold = B.Driver.build root in
  write_file (Filename.concat root "util/util.go") (util_src ^ "\n");
  let warm = B.Driver.build root in
  Alcotest.(check string)
    "formatting-only rebuild byte-identical" (fingerprint cold)
    (fingerprint warm);
  Alcotest.(check (pair int int))
    "every unit replayed, none re-solved" (7, 0) (unit_counts warm)

(* ---------------------------------------------------------------- *)
(* Random mutation differential                                      *)
(* ---------------------------------------------------------------- *)

(** Plain function names of a generated whole-program source. *)
let func_names src =
  List.filter_map
    (fun line ->
      if starts_with ~prefix:"func " line then
        match String.index_opt line '(' with
        | Some i ->
          let name = String.trim (String.sub line 5 (i - 5)) in
          if name <> "" && not (String.contains name ' ') then Some name
          else None
        | None -> None
      else None)
    (String.split_on_char '\n' src)

let test_random_mutations () =
  (* 20 generated programs, each mutated in one pseudo-randomly chosen
     function: the warm rebuild re-solves exactly that function's SCC
     unit and matches the cold build of the mutant byte for byte *)
  for seed = 0 to 19 do
    let src = Gofree_workloads.Randprog.generate seed in
    let names = func_names src in
    let fname = List.nth names (seed * 7 mod List.length names) in
    let root = make_tree [ ("main.go", src) ] in
    ignore (B.Driver.build root);
    let mutant = edit_func src fname in
    write_file (Filename.concat root "main.go") mutant;
    let warm = B.Driver.build root in
    let cold = B.Driver.build (make_tree [ ("main.go", mutant) ]) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d (%s): warm == cold" seed fname)
      (fingerprint cold) (fingerprint warm);
    Alcotest.(check int)
      (Printf.sprintf "seed %d (%s): one unit re-solved" seed fname)
      1
      (snd (unit_counts warm))
  done

(* ---------------------------------------------------------------- *)
(* Iterative Tarjan: pathological call-graph shapes                  *)
(* ---------------------------------------------------------------- *)

let chain_src n =
  let b = Buffer.create (n * 40) in
  for i = 0 to n - 1 do
    if i < n - 1 then
      Buffer.add_string b
        (Printf.sprintf "func f%d() int { return f%d() }\n" i (i + 1))
    else Buffer.add_string b (Printf.sprintf "func f%d() int { return 1 }\n" i)
  done;
  Buffer.add_string b "func main() { println(f0()) }\n";
  Buffer.contents b

let cycle_src n =
  let b = Buffer.create (n * 50) in
  for i = 0 to n - 1 do
    Buffer.add_string b
      (Printf.sprintf "func f%d(d int) int { if d <= 0 { return 0 }\nreturn f%d(d - 1) }\n"
         i ((i + 1) mod n))
  done;
  Buffer.add_string b "func main() { println(f0(3)) }\n";
  Buffer.contents b

let test_deep_chain_condenses () =
  (* a 10k-deep call chain would overflow the OCaml stack under a
     recursive Tarjan; the explicit-stack version must digest it *)
  let n = 10_000 in
  let tp = Typecheck.check (Parser.parse (chain_src n)) in
  let cg = E.Callgraph.build tp.Tast.p_funcs in
  Alcotest.(check int)
    "one unit per function" (n + 1)
    (Array.length cg.E.Callgraph.cg_units);
  Array.iter
    (fun u ->
      List.iter
        (fun c ->
          match Hashtbl.find_opt cg.E.Callgraph.cg_unit_of c with
          | Some d when d >= u.E.Callgraph.u_id ->
            Alcotest.failf "unit %d depends forward on %d"
              u.E.Callgraph.u_id d
          | _ -> ())
        u.E.Callgraph.u_callees)
    cg.E.Callgraph.cg_units;
  (* reverse topological: the leaf first, main last *)
  Alcotest.(check int) "leaf is unit 0" 0
    (Hashtbl.find cg.E.Callgraph.cg_unit_of (Printf.sprintf "f%d" (n - 1)));
  Alcotest.(check int) "chain head below main" (n - 1)
    (Hashtbl.find cg.E.Callgraph.cg_unit_of "f0");
  Alcotest.(check int) "main is last" n
    (Hashtbl.find cg.E.Callgraph.cg_unit_of "main")

let test_deep_cycle_is_one_unit () =
  let n = 10_000 in
  let tp = Typecheck.check (Parser.parse (cycle_src n)) in
  let cg = E.Callgraph.build tp.Tast.p_funcs in
  Alcotest.(check int) "cycle + main" 2
    (Array.length cg.E.Callgraph.cg_units);
  Alcotest.(check int) "the SCC holds every function" n
    (List.length cg.E.Callgraph.cg_units.(0).E.Callgraph.u_funcs)

let test_deep_chain_analysis () =
  (* the solver walks a 2k-deep unit chain bottom-up: one unit and one
     summary per function, the leaf solved first *)
  let n = 2_000 in
  let tp = Typecheck.check (Parser.parse (chain_src n)) in
  let a = E.Analysis.analyze tp in
  Alcotest.(check (list int)) "one unit per function, in solve order"
    (List.init (n + 1) Fun.id)
    (List.map (fun ur -> ur.E.Analysis.ur_id) a.E.Analysis.units);
  Alcotest.(check (list string)) "leaf solved first"
    [ Printf.sprintf "f%d" (n - 1) ]
    (List.hd a.E.Analysis.units).E.Analysis.ur_funcs;
  Alcotest.(check (list string)) "one summary per function"
    (List.sort compare
       (List.map (fun (f : Tast.func) -> f.Tast.f_name) tp.Tast.p_funcs))
    (List.sort compare
       (Hashtbl.fold (fun name _ acc -> name :: acc) a.E.Analysis.summaries
          []))

(* ---------------------------------------------------------------- *)
(* Unit-record store round-trips                                     *)
(* ---------------------------------------------------------------- *)

let sample_summary =
  {
    E.Summary.s_name = "util.MakeRange";
    s_nparams = 1;
    s_flows =
      [ { E.Summary.pf_param = 0; pf_target = `Heap; pf_derefs = 1 } ];
    s_contents =
      [|
        {
          E.Summary.ct_heap_alloc = true;
          ct_incomplete = false;
          ret_incomplete = false;
        };
      |];
    s_fields = [];
  }

let sample_units =
  [
    {
      B.Store.u_key = "0123456789abcdef0123456789abcdef";
      u_funcs = [ "util.MakeRange" ];
      u_summaries = [ sample_summary ];
      u_frees = [ ("util.MakeRange", 1, -1, Tast.Free_slice) ];
      u_sites = [ ("util.MakeRange", 0, true) ];
      u_boxed = [ ("util.MakeRange", 2) ];
    };
    {
      (* a no-IPA record: no summaries is a valid stored shape *)
      B.Store.u_key = "fedcba9876543210fedcba9876543210";
      u_funcs = [ "util.scale"; "util.Scale" ];
      u_summaries = [];
      u_frees = [];
      u_sites = [ ("util.Scale", 0, false) ];
      u_boxed = [];
    };
  ]

let test_unit_store_roundtrip () =
  match B.Store.units_of_string (B.Store.units_to_string sample_units) with
  | Error e -> Alcotest.failf "unit round-trip failed: %s" e
  | Ok us ->
    Alcotest.(check bool) "unit round-trip identity" true (us = sample_units)

let test_unit_store_save_load () =
  let dir = Filename.concat (make_tree []) "cache" in
  B.Store.save_units ~dir ~pkg:"util" sample_units;
  (match B.Store.load_units ~dir ~pkg:"util" () with
  | Some us ->
    Alcotest.(check bool) "load returns the saved records" true
      (us = sample_units)
  | None -> Alcotest.fail "saved unit records did not load");
  Alcotest.(check bool) "absent package misses" true
    (B.Store.load_units ~dir ~pkg:"nosuch" () = None);
  write_file
    (B.Store.units_path ~dir ~pkg:"util")
    "(format ancient-units-v0)\n";
  Alcotest.(check bool) "stale format misses" true
    (B.Store.load_units ~dir ~pkg:"util" () = None)

let test_unit_key_sensitivity () =
  let tp, _, _ = Typecheck.check_package (Parser.parse_file util_src) in
  let cg = E.Callgraph.build tp.Tast.p_funcs in
  let scale_unit =
    cg.E.Callgraph.cg_units.(Hashtbl.find cg.E.Callgraph.cg_unit_of
                               "util.Scale")
  in
  Alcotest.(check (list string))
    "Scale's summary inputs" [ "util.scale" ]
    scale_unit.E.Callgraph.u_callees;
  let key ~config_sig ~summary =
    E.Callgraph.unit_key ~config_sig ~mode_sig:"m"
      ~callee_summary:(fun _ -> summary)
      scale_unit
  in
  let base = key ~config_sig:"c" ~summary:None in
  Alcotest.(check string)
    "keys are deterministic" base
    (key ~config_sig:"c" ~summary:None);
  Alcotest.(check bool) "callee summary content feeds the key" true
    (base <> key ~config_sig:"c" ~summary:(Some "tag"));
  Alcotest.(check bool) "config signature feeds the key" true
    (base <> key ~config_sig:"c2" ~summary:None)

(* ---------------------------------------------------------------- *)
(* Typed package records: warm frontend == cold frontend             *)
(* ---------------------------------------------------------------- *)

(* A generated multi-package tree, rendered from a small model so an
   edit can change one package's body, interface, signature or id
   counts and keep the tree well-typed.  Package [i] imports a few
   lower-numbered packages and reads their globals and calls their
   functions; main imports every package. *)

type model_pkg = {
  m_deps : int list;
  mutable m_scale : int;  (** a constant in [Mk]'s body *)
  mutable m_extra : bool;  (** [Mk] takes a second parameter *)
  mutable m_pads : int;  (** extra locals and allocation sites in [Sum] *)
  mutable m_exports : int;  (** extra exported globals and structs *)
}

let model_tree seed n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun i ->
      let deps =
        List.sort_uniq compare
          (List.init (min i 2) (fun _ -> Random.State.int st i))
      in
      { m_deps = deps; m_scale = 1 + Random.State.int st 5;
        m_extra = false; m_pads = 0; m_exports = 0 })

let pkg_name i = Printf.sprintf "p%d" i

let pkg_file i = Printf.sprintf "p%d/p%d.go" i i

(* A call of package [i]'s [Mk], qualified with [qual]. *)
let mk_call pkgs ?(qual = "") i n =
  Printf.sprintf "%sMk%d(%s%s)" qual i n
    (if pkgs.(i).m_extra then ", 1" else "")

let model_package pkgs i =
  let m = pkgs.(i) in
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "package p%d\n\n" i;
  if m.m_deps <> [] then begin
    add "import (\n";
    List.iter (fun d -> add "  \"p%d\"\n" d) m.m_deps;
    add ")\n\n"
  end;
  add "type S%d struct {\n  A int\n  B []int\n}\n\n" i;
  add "var G%d int = %d\n" i (i + 3);
  for k = 0 to m.m_exports - 1 do
    if k mod 2 = 0 then add "var X%d_%d int = %d\n" i k k
    else add "type T%d_%d struct {\n  V int\n}\n" i k
  done;
  add "\nfunc Mk%d(n int%s) []int {\n" i
    (if m.m_extra then ", extra int" else "");
  add "  xs := make([]int, n)\n  for j := range xs {\n";
  add "    xs[j] = j * %d%s\n  }\n  return xs\n}\n\n" m.m_scale
    (if m.m_extra then " + extra" else "");
  add "func Sum%d(n int) int {\n  s := 0\n  xs := %s\n" i
    (mk_call pkgs i "n");
  add "  for j := range xs {\n    s = s + xs[j]\n  }\n";
  add "  q := &S%d{A: n, B: xs}\n  s = s + q.A + len(q.B)\n" i;
  for k = 0 to m.m_pads - 1 do
    add "  pad%d := make([]int, %d)\n  s = s + len(pad%d)\n" k (k + 2) k
  done;
  List.iter
    (fun d ->
      let qual = pkg_name d ^ "." in
      add "  ys%d := %s\n" d (mk_call pkgs ~qual d "2");
      add "  s = s + len(ys%d) + p%d.G%d + p%d.Sum%d(1)\n" d d d d d)
    m.m_deps;
  add "  return s + G%d\n}\n" i;
  Buffer.contents b

let model_main pkgs =
  let b = Buffer.create 512 in
  Buffer.add_string b "package main\n\nimport (\n";
  Array.iteri (fun i _ -> Printf.bprintf b "  \"p%d\"\n" i) pkgs;
  Buffer.add_string b ")\n\nfunc main() {\n";
  Array.iteri
    (fun i _ ->
      Printf.bprintf b "  println(\"p%d\", p%d.Sum%d(4), p%d.G%d)\n" i i i
        i i)
    pkgs;
  Buffer.add_string b "}\n";
  Buffer.contents b

let model_files pkgs =
  ("main.go", model_main pkgs)
  :: List.init (Array.length pkgs) (fun i ->
         (pkg_file i, model_package pkgs i))

let write_files root files =
  List.iter
    (fun (rel, src) -> write_file (Filename.concat root rel) src)
    files

(* The metrics document minus [gc_time_ns], the one wall-clock field. *)
let rec without_gc_time (j : Gofree_obs.Json.t) : Gofree_obs.Json.t =
  match j with
  | Gofree_obs.Json.Obj fields ->
    Gofree_obs.Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "gc_time_ns" then None else Some (k, without_gc_time v))
         fields)
  | Gofree_obs.Json.List xs ->
    Gofree_obs.Json.List (List.map without_gc_time xs)
  | j -> j

(** The build's inserted frees, its instrumented source, and the output
    and metrics (without [gc_time_ns]) of a run on each engine. *)
let full_fingerprint (r : B.Driver.result) =
  let insertions =
    List.map
      (fun { Gofree_core.Instrument.ins_func; ins_var; ins_field;
             ins_kind } ->
        Printf.sprintf "%s/%d%s/%s/%s" ins_func ins_var.Tast.v_id
          (match ins_field with
          | Some (idx, fname) -> Printf.sprintf ".%d:%s" idx fname
          | None -> "")
          ins_var.Tast.v_name (kind_str ins_kind))
      r.B.Driver.b_inserted
  in
  let run engine =
    let run =
      Gofree_interp.Runner.run_program
        ~config:{ Gofree_interp.Interp.default_config with engine }
        ~decisions:(decisions_of r) r.B.Driver.b_program
    in
    run.Gofree_interp.Runner.output ^ "\n"
    ^ Gofree_obs.Json.to_string
        (without_gc_time
           (Gofree_runtime.Metrics.to_json run.Gofree_interp.Runner.metrics))
  in
  String.concat "\n" insertions
  ^ "\n---\n"
  ^ Pretty.program_to_string r.B.Driver.b_program
  ^ "\n---\n" ^ run Gofree_interp.Interp.Eng_reference ^ "\n---\n"
  ^ run Gofree_interp.Interp.Eng_bytecode

(* A cold build into a cache of its own, so it never refreshes the
   cache the warm builds read. *)
let cold_build root =
  B.Driver.build ~force:true
    ~cache_dir:(Filename.concat (make_tree []) "cold-cache")
    root

(* A warm build's run lowers only what main and the global initialisers
   reach (the [emit] span's [lowered] of [functions]): lib.Build and
   lib.fill only through lib's initialiser, lib.Unused, lib.unusedHelper
   and main.orphan never.  Output and metrics stay those of a cold build
   on both engines. *)
let test_warm_build_lowers_reachable () =
  let module Json = Gofree_obs.Json in
  let module Trace = Gofree_obs.Trace in
  let root =
    make_tree
      [
        ( "lib/lib.go",
          {|package lib

var Table []int = Build(4)

func fill(i int) int {
	return i * 3
}

func Build(n int) []int {
	s := make([]int, 0, 1)
	for i := 0; i < n; i++ {
		s = append(s, fill(i))
	}
	return s
}

func Used(x int) int {
	return x + Table[1]
}

func Unused(n int) []int {
	return make([]int, n)
}

func unusedHelper() int {
	return len(Unused(3))
}
|} );
        ( "main.go",
          {|package main

import "lib"

func orphan() {
	println("never")
}

func main() {
	println(lib.Used(2))
}
|} );
      ]
  in
  ignore (B.Driver.build root);
  let warm = B.Driver.build root in
  Alcotest.(check string) "warm == cold" (full_fingerprint (cold_build root))
    (full_fingerprint warm);
  Trace.start ();
  let run =
    Gofree_interp.Runner.run_program ~decisions:(decisions_of warm)
      warm.B.Driver.b_program
  in
  let events = Json.get_list "traceEvents" (Json.parse (Trace.stop ())) in
  Alcotest.(check string) "output" "5\n" run.Gofree_interp.Runner.output;
  match
    List.filter
      (fun e -> Json.get_string "name" e = "emit" && Json.get_string "ph" e = "E")
      events
  with
  | [ e ] ->
    let args = Json.get "args" e in
    Alcotest.(check (pair int int)) "lowered of functions" (4, 7)
      (Json.get_int "lowered" args, Json.get_int "functions" args)
  | es -> Alcotest.failf "%d emit spans, want 1" (List.length es)

let typechecked (r : B.Driver.result) =
  List.filter_map
    (fun (p : B.Driver.pkg_report) ->
      if p.B.Driver.pr_typed then None else Some p.B.Driver.pr_name)
    r.B.Driver.b_stats.B.Driver.bs_pkgs
  |> List.sort compare

let importers pkgs i =
  List.filter_map
    (fun j -> if List.mem i pkgs.(j).m_deps then Some (pkg_name j) else None)
    (List.init (Array.length pkgs) Fun.id)

let test_typed_records_seeded_edits () =
  (* 24 seeded edits of four kinds; after each, the warm build (typed
     records for unchanged packages, relocated onto new id bases) is
     byte-identical to a cold --force build, and re-typechecks exactly
     the edited package plus the importers of a changed interface *)
  let pkgs = model_tree 31 6 in
  let root = make_tree (model_files pkgs) in
  ignore (B.Driver.build root);
  let st = Random.State.make [| 7 |] in
  for step = 0 to 23 do
    let i = Random.State.int st (Array.length pkgs) in
    let m = pkgs.(i) in
    let kind, changes_iface =
      match step mod 4 with
      | 0 ->
        m.m_scale <- m.m_scale + 1;
        ("body", false)
      | 1 ->
        m.m_exports <- m.m_exports + 1;
        ("export", true)
      | 2 ->
        m.m_extra <- not m.m_extra;
        ("signature", true)
      | _ ->
        (* one more local and allocation site: every later package's
           id bases shift, and their records relocate *)
        m.m_pads <- m.m_pads + 1;
        ("counts", false)
    in
    write_files root (model_files pkgs);
    let warm = B.Driver.build root in
    let cold = cold_build root in
    let what = Printf.sprintf "edit %d (%s of p%d)" step kind i in
    Alcotest.(check string)
      (what ^ ": warm == cold")
      (full_fingerprint cold) (full_fingerprint warm);
    let expected =
      if changes_iface then
        List.sort_uniq compare ("main" :: pkg_name i :: importers pkgs i)
      else [ pkg_name i ]
    in
    Alcotest.(check (list string))
      (what ^ ": re-typechecked") expected (typechecked warm);
    Alcotest.(check int)
      (what ^ ": frontend hits")
      (Array.length pkgs + 1 - List.length expected)
      warm.B.Driver.b_stats.B.Driver.bs_frontend_hits
  done;
  (* typed records do not depend on the configuration: another precision
     mode re-analyzes every package but typechecks none *)
  let config =
    { Gofree_core.Config.gofree with
      Gofree_core.Config.precision = Gofree_core.Config.precise_precision }
  in
  let precise = B.Driver.build ~config root in
  Alcotest.(check (pair int int))
    "--precision precise: typed hits, analysis misses"
    (Array.length pkgs + 1, 0)
    ( precise.B.Driver.b_stats.B.Driver.bs_frontend_hits,
      precise.B.Driver.b_stats.B.Driver.bs_hits )

(* The imported globals a package's typed record names, with ids
   relative to their packages' bases. *)
let imported_globals bases (imports : Typecheck.pkg_iface list) =
  List.concat_map
    (fun (i : Typecheck.pkg_iface) ->
      let base = Hashtbl.find bases i.Typecheck.pi_pkg in
      List.map
        (fun (_, (v : Tast.var)) ->
          (i.Typecheck.pi_pkg, v.Tast.v_id - base, v))
        i.Typecheck.pi_globals)
    imports

let test_relocation_property () =
  (* for every package of the model tree: checking at base b equals
     checking at base 0 and relocating to b, directly and through the
     typed-record codec *)
  let pkgs = model_tree 5 6 in
  pkgs.(3).m_pads <- 2;
  pkgs.(4).m_exports <- 3;
  let files = model_files pkgs in
  let order =
    List.init (Array.length pkgs) (fun i -> (pkg_name i, pkg_file i))
    @ [ ("main", "main.go") ]
  in
  let ifaces = Hashtbl.create 8 and bases = Hashtbl.create 8 in
  let next = ref (0, 0, 0) in
  List.iteri
    (fun k (name, rel) ->
      let file = Parser.parse_file (List.assoc rel files) in
      let imports =
        List.sort_uniq compare
          (List.map
             (fun (i : Ast.import_decl) -> Ast.import_base i.Ast.imp_path)
             file.Ast.file_imports)
        |> List.map (Hashtbl.find ifaces)
      in
      (* gaps between packages: relocation must not assume dense bases *)
      let v0, s0, a0 = !next in
      let bv = v0 + (7 * k) and bs = s0 + (3 * k) and ba = a0 + k in
      let direct, iface_b, c_b =
        Typecheck.check_package ~imports ~first_var:bv ~first_scope:bs
          ~first_site:ba file
      in
      let at0, iface0, c0 = Typecheck.check_package ~imports file in
      let bytes =
        B.Typed.encode
          { B.Typed.th_source = ""; th_clause = name; th_imports = [];
            th_deps = []; th_iface = "" }
          { B.Typed.tb_program = at0; tb_iface = iface0; tb_counters = c0;
            tb_imported = imported_globals bases imports }
      in
      Tast.relocate at0 ~var:bv ~scope:bs ~site:ba;
      Alcotest.(check bool)
        (name ^ ": relocated == checked at base")
        true
        (at0 = direct && iface0 = iface_b);
      Alcotest.(check (list int))
        (name ^ ": counters")
        [ c_b.Typecheck.c_next_var; c_b.Typecheck.c_next_scope;
          c_b.Typecheck.c_next_site ]
        [ bv + c0.Typecheck.c_next_var; bs + c0.Typecheck.c_next_scope;
          ba + c0.Typecheck.c_next_site ];
      (match
         Result.bind
           (B.Typed.decode_header bytes ~off:0 ~len:(String.length bytes))
           (fun (_, body) ->
             B.Typed.decode_body body)
       with
      | Error m -> Alcotest.failf "%s: record did not decode: %s" name m
      | Ok b ->
        List.iter
          (fun (d, rel, (v : Tast.var)) ->
            v.Tast.v_id <- Hashtbl.find bases d + rel)
          b.B.Typed.tb_imported;
        Tast.relocate b.B.Typed.tb_program ~var:bv ~scope:bs ~site:ba;
        Alcotest.(check bool)
          (name ^ ": decoded and relocated == checked at base")
          true
          (b.B.Typed.tb_program = direct && b.B.Typed.tb_iface = iface_b));
      Hashtbl.replace ifaces name iface_b;
      Hashtbl.replace bases name bv;
      next :=
        ( c_b.Typecheck.c_next_var,
          c_b.Typecheck.c_next_scope,
          c_b.Typecheck.c_next_site ))
    order

let build_error ?cache_dir ?(force = false) root =
  match B.Driver.build ?cache_dir ~force root with
  | _ -> "no error"
  | exception (B.Driver.Error m | B.Loader.Error m) -> m

(* [src] with its first line (the package clause) replaced. *)
let with_head head src =
  head ^ String.sub src (String.index src '\n')
    (String.length src - String.index src '\n')

let test_error_parity () =
  (* an error introduced after a warm build reads exactly as it does in
     a cold build of the same tree *)
  let cases =
    [
      ( "clause mismatch",
        "found package px, expected package p1",
        fun pkgs ->
          [ (pkg_file 1, with_head "package px" (model_package pkgs 1)) ] );
      ( "unresolved import",
        "imports \"nosuch\", which is not in the build tree",
        fun pkgs ->
          [ ( pkg_file 2,
              with_head "package p2\n\nimport \"nosuch\""
                (model_package pkgs 2) ) ] );
      ( "upstream signature break",
        ": type error at ",
        fun pkgs ->
          (* Mk0 takes a second parameter; only p0's own call follows *)
          pkgs.(0).m_extra <- true;
          let src = model_package pkgs 0 in
          pkgs.(0).m_extra <- false;
          [ (pkg_file 0, src) ] );
    ]
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun (what, fragment, edit) ->
      let pkgs = model_tree 31 6 in
      let root = make_tree (model_files pkgs) in
      ignore (B.Driver.build root);
      write_files root (edit pkgs);
      let warm = build_error root in
      let cold =
        build_error ~force:true
          ~cache_dir:(Filename.concat (make_tree []) "cold-cache")
          root
      in
      if not (contains ~sub:fragment warm) then
        Alcotest.failf "%s: unexpected error %S" what warm;
      Alcotest.(check string) (what ^ ": warm error == cold error") cold warm)
    cases

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* Flip one bit of the last "main" in the file (the package name, in
   every record kind), so the damaged record still decodes: only its
   digest tells it apart. *)
let flip_bit path =
  let b = Bytes.of_string (read_all path) in
  let rec last i =
    if i < 0 then Alcotest.failf "%s: no \"main\"" path
    else if Bytes.sub_string b i 4 = "main" then i
    else last (i - 1)
  in
  let i = last (Bytes.length b - 4) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  write_file path (Bytes.to_string b)

let truncate_half path =
  let s = read_all path in
  write_file path (String.sub s 0 (String.length s / 2))

(* A format of another kind: only the format name on the first line
   differs, so the body still matches its digest. *)
let foreign_format path =
  let s = read_all path in
  let nl = String.index s '\n' in
  let rest =
    match String.index_opt (String.sub s 0 nl) ' ' with
    | Some sp -> String.sub s sp (String.length s - sp)
    | None -> String.sub s nl (String.length s - nl)
  in
  write_file path ("gofree-old-v0" ^ rest)

(* The same kind at an older format version, [v0]: the version on the
   first line is all that differs. *)
let older_version path =
  let s = read_all path in
  let v =
    let rec at i = if String.sub s i 2 = "-v" then i + 2 else at (i + 1) in
    at 0
  in
  let rec stop i = if s.[i] = ' ' || s.[i] = '\n' then i else stop (i + 1) in
  let e = stop v in
  write_file path (String.sub s 0 v ^ "0" ^ String.sub s e (String.length s - e))

let test_corrupt_records_are_misses () =
  (* each record kind, truncated, bit-flipped and in a foreign format:
     the record misses, is counted once, and the build is byte-identical
     to a cold one; the next build finds the cache healed.  At an older
     format version of its own kind the record is a plain miss, not
     counted. *)
  List.iter
    (fun (kind, path_of) ->
      List.iter
        (fun (fault, damage, counted) ->
          let pkgs = model_tree 31 6 in
          let root = make_tree (model_files pkgs) in
          ignore (B.Driver.build root);
          (* a body edit upstream: main keeps its typed record but misses
             its analysis entry, so its unit records are read too *)
          pkgs.(0).m_scale <- pkgs.(0).m_scale + 1;
          write_files root (model_files pkgs);
          damage (path_of (Filename.concat root ".gofree-cache"));
          let what = Printf.sprintf "%s %s" fault kind in
          let warm = B.Driver.build root in
          let cold = cold_build root in
          Alcotest.(check string)
            (what ^ ": warm == cold")
            (full_fingerprint cold) (full_fingerprint warm);
          Alcotest.(check int)
            (what ^ ": counted") counted
            warm.B.Driver.b_stats.B.Driver.bs_corrupt;
          Alcotest.(check int)
            (what ^ ": healed") 0
            (B.Driver.build root).B.Driver.b_stats.B.Driver.bs_corrupt)
        [
          ("truncated", truncate_half, 1);
          ("bit-flipped", flip_bit, 1);
          ("foreign-format", foreign_format, 1);
          ("older-version", older_version, 0);
        ])
    [
      (".sum", fun dir -> B.Store.entry_path ~dir ~pkg:"main");
      (".units", fun dir -> B.Store.units_path ~dir ~pkg:"main");
      ("typed", fun dir -> B.Store.typed_path ~dir);
    ]

let test_unchanged_units_not_rewritten () =
  (* a body edit of a leaf package re-analyzes every transitive
     dependent (their .sum keys fold in the leaf's), but all their units
     hit: their .units files keep their key sets and are not rewritten
     (a rewrite renames a fresh file into place: a new inode) *)
  let pkgs = model_tree 31 6 in
  let root = make_tree (model_files pkgs) in
  ignore (B.Driver.build root);
  let dir = Filename.concat root ".gofree-cache" in
  let inode pkg = (Unix.stat (B.Store.units_path ~dir ~pkg)).Unix.st_ino in
  let names = "main" :: List.init (Array.length pkgs) pkg_name in
  let before = List.map inode names in
  pkgs.(0).m_scale <- pkgs.(0).m_scale + 1;
  write_files root (model_files pkgs);
  let warm = B.Driver.build root in
  let reanalyzed =
    List.filter_map
      (fun (p : B.Driver.pkg_report) ->
        if p.B.Driver.pr_cached then None else Some p.B.Driver.pr_name)
      warm.B.Driver.b_stats.B.Driver.bs_pkgs
  in
  Alcotest.(check bool) "the leaf and its dependents re-analyzed" true
    (List.mem "p0" reanalyzed && List.mem "main" reanalyzed);
  List.iter2
    (fun name ino ->
      Alcotest.(check bool)
        (Printf.sprintf "%s.units %s" name
           (if name = "p0" then "rewritten (a unit re-solved)"
            else "not rewritten"))
        (name = "p0") (inode name <> ino))
    names before;
  Alcotest.(check string) "warm == cold"
    (full_fingerprint (cold_build root))
    (full_fingerprint warm)

let suite =
  [
    Alcotest.test_case "every function edit re-solves one unit" `Quick
      test_every_function_edit;
    Alcotest.test_case "build trace: wave and analyze spans" `Quick
      test_build_trace_spans;
    Alcotest.test_case "package-level fallback without unit cache" `Quick
      test_no_unit_cache_fallback;
    Alcotest.test_case "formatting-only edit replays every unit" `Quick
      test_formatting_only_edit_replays_everything;
    Alcotest.test_case "20 random mutations: warm == cold" `Quick
      test_random_mutations;
    Alcotest.test_case "10k-deep chain condenses iteratively" `Quick
      test_deep_chain_condenses;
    Alcotest.test_case "10k cycle is one unit" `Quick
      test_deep_cycle_is_one_unit;
    Alcotest.test_case "deep chain: one summary per function" `Quick
      test_deep_chain_analysis;
    Alcotest.test_case "unit store round-trip" `Quick
      test_unit_store_roundtrip;
    Alcotest.test_case "unit store save/load/corrupt" `Quick
      test_unit_store_save_load;
    Alcotest.test_case "unit key sensitivity" `Quick
      test_unit_key_sensitivity;
    Alcotest.test_case "typed records: 24 seeded edits, warm == cold" `Quick
      test_typed_records_seeded_edits;
    Alcotest.test_case "relocation: base 0 + relocate == base b" `Quick
      test_relocation_property;
    Alcotest.test_case "typed records: error parity" `Quick
      test_error_parity;
    Alcotest.test_case "unchanged .units files are not rewritten" `Quick
      test_unchanged_units_not_rewritten;
    Alcotest.test_case "corrupt records are counted misses" `Quick
      test_corrupt_records_are_misses;
    Alcotest.test_case "warm build lowers only reachable functions" `Quick
      test_warm_build_lowers_reachable;
  ]
