(** Tests for the multi-package build subsystem: package/import syntax,
    export rules, the summary store, cache behavior, and — the headline
    acceptance check — that a multi-package build inserts exactly the
    tcfree calls a whole-program single-file compile would (paper §4.4:
    stored tags lose no precision). *)

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

(** Create a fresh directory holding [files] (relative path → source). *)
let make_tree files =
  incr tree_counter;
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-build-test-%d-%d" (Unix.getpid ())
         !tree_counter)
  in
  mkdir_p root;
  List.iter
    (fun (rel, src) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      let oc = open_out_bin path in
      output_string oc src;
      close_out oc)
    files;
  root

(* ---------------------------------------------------------------- *)
(* The reference three-package program and its single-file twin      *)
(* ---------------------------------------------------------------- *)

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

(* The same program as one whole-program source: declarations
   concatenated in dependency order (util, data, main), qualifiers
   dropped.  This is the reference the multi-package build must match. *)
let single_src =
  {|
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
	xs := MakeRange(n)
	ps := make([]Point, n)
	total := Sum(xs)
	for i := range ps {
		ps[i] = Point{X: xs[i], Y: total}
	}
	return ps
}

func main() {
	xs := MakeRange(16)
	ys := Scale(xs, 3)
	total := Sum(ys)
	ps := Grid(8)
	c := Centroid(ps)
	println("total", total)
	println("centroid", c.X, c.Y)
}
|}

(** [contains s sub] — plain substring test, keeps error-message checks
    robust to wording around the key phrase. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------------------------------------------------------------- *)
(* Insertion-site comparison helpers                                 *)
(* ---------------------------------------------------------------- *)

(** Strip a ["pkg."] qualifier so multi-package names compare against
    their single-file twins. *)
let strip name =
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let kind_str = function
  | Tast.Free_slice -> "slice"
  | Tast.Free_map -> "map"
  | Tast.Free_obj -> "obj"

let inserted_triples inserted =
  List.sort compare
    (List.map
       (fun { Gofree_core.Instrument.ins_func; ins_var; ins_field;
              ins_kind } ->
         ( strip ins_func,
           (strip ins_var.Tast.v_name
           ^
           match ins_field with
           | Some (_, fname) -> "." ^ fname
           | None -> ""),
           kind_str ins_kind ))
       inserted)

let triple3 = Alcotest.(triple string string string)

let decisions_of (r : B.Driver.result) =
  {
    Gofree_interp.Decisions.site_heap = r.B.Driver.b_site_heap;
    var_boxed = r.B.Driver.b_var_boxed;
  }

(* ---------------------------------------------------------------- *)
(* Frontend: package / import syntax and export rules                *)
(* ---------------------------------------------------------------- *)

let test_parse_package_imports () =
  let file =
    Parser.parse_file
      "package main\nimport (\n\t\"util\"\n\t\"lib/extra\"\n)\nfunc main() {}\n"
  in
  Alcotest.(check string) "package clause" "main" file.Ast.file_package;
  Alcotest.(check (list (pair string string)))
    "import paths and aliases"
    [ ("util", "util"); ("lib/extra", "extra") ]
    (List.map
       (fun i -> (i.Ast.imp_path, i.Ast.imp_alias))
       file.Ast.file_imports)

let test_parse_import_alias () =
  let file =
    Parser.parse_file
      "package data\nimport u \"util\"\nfunc F() int { return u.G() }\n"
  in
  Alcotest.(check (list (pair string string)))
    "aliased import"
    [ ("util", "u") ]
    (List.map
       (fun i -> (i.Ast.imp_path, i.Ast.imp_alias))
       file.Ast.file_imports)

let test_parse_discards_package_in_whole_program_mode () =
  (* the classic entry point still accepts package/import headers *)
  let prog = Parser.parse "package main\nfunc main() { println(1) }\n" in
  Alcotest.(check int) "one decl" 1 (List.length prog)

let check_type_error ~substring src_of_pkg =
  match src_of_pkg () with
  | _ -> Alcotest.failf "expected a type error mentioning %S" substring
  | exception Typecheck.Error (msg, _) ->
    if not (contains msg substring) then
      Alcotest.failf "error %S does not mention %S" msg substring

let util_iface () =
  let _, iface, _ = Typecheck.check_package (Parser.parse_file util_src) in
  iface

let test_unexported_rejected () =
  let iface = util_iface () in
  check_type_error ~substring:"not exported" (fun () ->
      Typecheck.check_package ~imports:[ iface ]
        (Parser.parse_file
           "package main\nimport \"util\"\nfunc main() { println(util.scale(2, 3)) }\n"))

let test_unknown_package_rejected () =
  (* an import whose interface is not supplied: the package-level
     analogue of "undefined: util" *)
  check_type_error ~substring:"cannot find package" (fun () ->
      Typecheck.check_package
        (Parser.parse_file
           "package main\nimport \"util\"\nfunc main() { println(util.Sum(nil)) }\n"))

(* ---------------------------------------------------------------- *)
(* Equivalence: multi-package build == single-file whole program     *)
(* ---------------------------------------------------------------- *)

let test_equivalence_with_single_file () =
  let root = make_tree tree_files in
  let r = B.Driver.build root in
  let single = Helpers.compile single_src in
  Alcotest.(check (list triple3))
    "same tcfree insertion sites"
    (List.sort compare (Helpers.inserted_vars single))
    (inserted_triples r.B.Driver.b_inserted);
  let rm =
    Gofree_interp.Runner.run_program ~decisions:(decisions_of r)
      r.B.Driver.b_program
  in
  let rs = Gofree_interp.Runner.run single in
  Alcotest.(check string)
    "same program output" rs.Gofree_interp.Runner.output
    rm.Gofree_interp.Runner.output;
  let ms = rs.Gofree_interp.Runner.metrics
  and mm = rm.Gofree_interp.Runner.metrics in
  Alcotest.(check int)
    "same allocated bytes" ms.Gofree_runtime.Metrics.alloced_bytes
    mm.Gofree_runtime.Metrics.alloced_bytes;
  Alcotest.(check int)
    "same freed bytes" ms.Gofree_runtime.Metrics.freed_bytes
    mm.Gofree_runtime.Metrics.freed_bytes;
  Alcotest.(check int)
    "same tcfree calls" ms.Gofree_runtime.Metrics.tcfree_calls
    mm.Gofree_runtime.Metrics.tcfree_calls;
  Alcotest.(check bool)
    "frees actually happened" true
    (mm.Gofree_runtime.Metrics.freed_bytes > 0)

(* ---------------------------------------------------------------- *)
(* Incrementality: warm cache, replay, transitive invalidation       *)
(* ---------------------------------------------------------------- *)

let test_warm_cache_skips_analysis () =
  let root = make_tree tree_files in
  let r1 = B.Driver.build root in
  Alcotest.(check int)
    "cold build analyzes everything" 3
    r1.B.Driver.b_stats.B.Driver.bs_misses;
  let r2 = B.Driver.build root in
  Alcotest.(check int)
    "warm build hits every package" 3 r2.B.Driver.b_stats.B.Driver.bs_hits;
  Alcotest.(check int)
    "warm build analyzes nothing" 0 r2.B.Driver.b_stats.B.Driver.bs_misses;
  List.iter
    (fun pr ->
      Alcotest.(check bool)
        (pr.B.Driver.pr_name ^ " served from cache")
        true pr.B.Driver.pr_cached)
    r2.B.Driver.b_stats.B.Driver.bs_pkgs;
  (* the replayed (cache-hit) program is the same program *)
  Alcotest.(check (list triple3))
    "replay reproduces the insertions"
    (inserted_triples r1.B.Driver.b_inserted)
    (inserted_triples r2.B.Driver.b_inserted);
  let run r =
    (Gofree_interp.Runner.run_program ~decisions:(decisions_of r)
       r.B.Driver.b_program)
      .Gofree_interp.Runner.output
  in
  Alcotest.(check string) "replay runs identically" (run r1) (run r2)

let test_change_invalidates_transitively () =
  let root = make_tree tree_files in
  ignore (B.Driver.build root);
  (* touch the leaf package: every dependent must re-analyze *)
  let util_path = Filename.concat root "util/util.go" in
  let oc = open_out_gen [ Open_append ] 0o644 util_path in
  output_string oc "\nfunc Extra() int { return 7 }\n";
  close_out oc;
  let r = B.Driver.build root in
  Alcotest.(check int)
    "leaf change re-analyzes the whole chain" 3
    r.B.Driver.b_stats.B.Driver.bs_misses;
  (* now touch only the middle package: the leaf stays cached *)
  let data_path = Filename.concat root "data/data.go" in
  let oc = open_out_gen [ Open_append ] 0o644 data_path in
  output_string oc "\nfunc Unused() int { return 9 }\n";
  close_out oc;
  let r = B.Driver.build root in
  let cached =
    List.filter_map
      (fun pr ->
        if pr.B.Driver.pr_cached then Some pr.B.Driver.pr_name else None)
      r.B.Driver.b_stats.B.Driver.bs_pkgs
  in
  Alcotest.(check (list string))
    "only the untouched leaf is cached" [ "util" ] cached

let test_force_ignores_cache () =
  let root = make_tree tree_files in
  ignore (B.Driver.build root);
  let r = B.Driver.build ~force:true root in
  Alcotest.(check int)
    "force re-analyzes everything" 3 r.B.Driver.b_stats.B.Driver.bs_misses

(* ---------------------------------------------------------------- *)
(* Conservative fallback without a summary                           *)
(* ---------------------------------------------------------------- *)

let fallback_main_src =
  {|package main

import "util"

func main() {
	xs := util.MakeRange(16)
	println(util.Sum(xs))
}
|}

let test_missing_summary_is_conservative () =
  let tp_u, iface_u, c_u =
    Typecheck.check_package (Parser.parse_file util_src)
  in
  let cu = Gofree_core.Pipeline.compile_program tp_u in
  let util_summaries =
    List.filter_map
      (fun (f : Tast.func) ->
        Hashtbl.find_opt
          cu.Gofree_core.Pipeline.c_analysis.E.Analysis.summaries
          f.Tast.f_name)
      tp_u.Tast.p_funcs
  in
  let tp_m, _, _ =
    Typecheck.check_package ~imports:[ iface_u ]
      ~first_var:c_u.Typecheck.c_next_var
      ~first_scope:c_u.Typecheck.c_next_scope
      ~first_site:c_u.Typecheck.c_next_site
      (Parser.parse_file fallback_main_src)
  in
  let with_sums =
    Gofree_core.Pipeline.compile_program ~imported:util_summaries tp_m
  in
  let without_sums = Gofree_core.Pipeline.compile_program tp_m in
  let frees c =
    inserted_triples c.Gofree_core.Pipeline.c_inserted
    |> List.filter (fun (f, _, _) -> f = "main")
  in
  Alcotest.(check (list triple3))
    "with the callee summary, main frees the returned slice"
    [ ("main", "xs", "slice") ]
    (frees with_sums);
  Alcotest.(check (list triple3))
    "without it, the default tag forbids freeing" [] (frees without_sums)

(* ---------------------------------------------------------------- *)
(* Loader and graph errors                                           *)
(* ---------------------------------------------------------------- *)

let expect_build_error ~substring root =
  match B.Driver.build root with
  | _ -> Alcotest.failf "expected a build error mentioning %S" substring
  | exception (B.Driver.Error msg | B.Loader.Error msg) ->
    if not (contains msg substring) then
      Alcotest.failf "error %S does not mention %S" msg substring

let test_import_cycle_rejected () =
  let root =
    make_tree
      [
        ("a/a.go", "package a\nimport \"b\"\nfunc A() int { return b.B() }\n");
        ("b/b.go", "package b\nimport \"a\"\nfunc B() int { return a.A() }\n");
        ("main.go", "package main\nimport \"a\"\nfunc main() { println(a.A()) }\n");
      ]
  in
  expect_build_error ~substring:"import cycle" root

let test_unresolved_import_rejected () =
  let root =
    make_tree
      [ ("main.go", "package main\nimport \"nosuch\"\nfunc main() {}\n") ]
  in
  expect_build_error ~substring:"nosuch" root

let test_missing_main_rejected () =
  let root = make_tree [ ("util/util.go", util_src) ] in
  expect_build_error ~substring:"main" root

(* ---------------------------------------------------------------- *)
(* Summary store: golden file format and round-trips                 *)
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

let sample_entry =
  {
    B.Store.e_pkg = "util";
    e_key = "0123456789abcdef";
    e_nvars = 5;
    e_nsites = 2;
    e_summaries = [ sample_summary ];
    e_frees = [ ("util.MakeRange", 3, -1, Tast.Free_slice) ];
    e_site_heap = [ true; false ];
    e_var_boxed = [ 1; 3 ];
  }

(* The entry's {!Gofree_escape.Codec} encoding, field by field:
   varints are zigzagged (n is written as 2n, -1 as 1), and a string's
   first occurrence is its index, length and bytes, a later one its
   index alone. *)
let golden_entry_bytes =
  String.concat ""
    [
      "\000\008util";  (* package: string #0, 4 bytes *)
      "\002\0320123456789abcdef";  (* key: string #1, 16 bytes *)
      "\010";  (* nvars 5 *)
      "\004";  (* nsites 2 *)
      "\002";  (* one summary *)
      "\004\028util.MakeRange";  (* its name: string #2, 14 bytes *)
      "\002";  (* nparams 1 *)
      "\002\000\002\002";  (* one flow: param 0 to the heap, 1 deref *)
      "\002\002\000\000";  (* one content tag: heap alloc, complete *)
      "\000";  (* no field facts *)
      "\002\004\006\001\000";
      (* one free: string #2, var 3, whole variable (-1), slice *)
      "\004\002\000";  (* two site decisions: heap, stack *)
      "\004\002\006";  (* boxed vars 1 and 3 *)
    ]

let test_store_golden () =
  Alcotest.(check string)
    "serialized entry matches the golden bytes" golden_entry_bytes
    (B.Store.to_string sample_entry);
  (* the file is the sealed form of those bytes *)
  let dir = Filename.concat (make_tree []) "cache" in
  B.Store.save ~dir sample_entry;
  Alcotest.(check string)
    "the stored file: format, body digest, body"
    (Printf.sprintf "gofree-sum-v3 %s\n%s"
       (Digest.to_hex (Digest.string golden_entry_bytes))
       golden_entry_bytes)
    (In_channel.with_open_bin (B.Store.entry_path ~dir ~pkg:"util")
       In_channel.input_all)

let test_store_roundtrip () =
  match B.Store.of_string (B.Store.to_string sample_entry) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok e ->
    Alcotest.(check bool) "round-trip identity" true (e = sample_entry)

(* Entries and unit records of random shape, with test_summary's
   summaries and names, decode to themselves. *)
let prop_store_records_roundtrip =
  let open QCheck.Gen in
  let name = Test_summary.name_gen in
  let free =
    map4
      (fun f rel fidx k -> (f, rel, fidx, k))
      name (0 -- 5000) (-1 -- 6)
      (oneofl [ Tast.Free_slice; Tast.Free_map; Tast.Free_obj ])
  in
  let summaries = list_size (0 -- 4) Test_summary.summary_gen in
  let entry =
    let* e_pkg = name and* e_key = name in
    let* e_nvars = 0 -- 100_000 and* e_nsites = 0 -- 100_000 in
    let* e_summaries = summaries and* e_frees = list_size (0 -- 6) free in
    let* e_site_heap = list_size (0 -- 40) bool
    and* e_var_boxed = list_size (0 -- 8) (0 -- 100_000) in
    return
      { B.Store.e_pkg; e_key; e_nvars; e_nsites; e_summaries; e_frees;
        e_site_heap; e_var_boxed }
  in
  let unit_record =
    let* u_key = name and* u_funcs = list_size (1 -- 4) name in
    let* u_summaries = summaries and* u_frees = list_size (0 -- 6) free in
    let* u_sites =
      list_size (0 -- 8) (map3 (fun f rel h -> (f, rel, h)) name (0 -- 300) bool)
    and* u_boxed = list_size (0 -- 4) (pair name (0 -- 300)) in
    return { B.Store.u_key; u_funcs; u_summaries; u_frees; u_sites; u_boxed }
  in
  QCheck.Test.make ~count:300 ~name:"store records round-trip"
    (QCheck.make (pair entry (list_size (0 -- 5) unit_record)))
    (fun (e, us) ->
      B.Store.of_string (B.Store.to_string e) = Ok e
      && B.Store.units_of_string (B.Store.units_to_string us) = Ok us)

let test_store_save_load () =
  let root = make_tree [] in
  let dir = Filename.concat root "cache" in
  B.Store.save ~dir sample_entry;
  (match B.Store.load ~dir ~pkg:"util" () with
  | Some e ->
    Alcotest.(check bool) "load returns the saved entry" true
      (e = sample_entry)
  | None -> Alcotest.fail "saved entry did not load");
  Alcotest.(check bool) "absent package misses" true
    (B.Store.load ~dir ~pkg:"nosuch" () = None);
  (* a stale or corrupt file is just a miss, never an error *)
  let oc = open_out (B.Store.entry_path ~dir ~pkg:"util") in
  output_string oc "(format ancient-v0)\n(package util)\n";
  close_out oc;
  Alcotest.(check bool) "stale format misses" true
    (B.Store.load ~dir ~pkg:"util" () = None)

(* Two writers saving the same package at once (two daemon workers, or
   the daemon and the CLI) each go through their own temp file, so a
   reader racing them always loads one whole entry, and no temp file is
   left behind. *)
let test_store_concurrent_saves () =
  let root = make_tree [] in
  let dir = Filename.concat root "cache" in
  let other = { sample_entry with B.Store.e_key = "fedcba9876543210" } in
  B.Store.save ~dir sample_entry;
  let writing = Atomic.make 2 in
  let writer e =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr writing)
          (fun () ->
            for _ = 1 to 200 do
              B.Store.save ~dir e
            done))
  in
  let w1 = writer sample_entry and w2 = writer other in
  let loads = ref 0 and bad = ref 0 in
  let check () =
    incr loads;
    match B.Store.load ~dir ~pkg:"util" () with
    | Some e when e = sample_entry || e = other -> ()
    | _ -> incr bad
  in
  while Atomic.get writing > 0 do
    check ()
  done;
  Domain.join w1;
  Domain.join w2;
  check ();
  Alcotest.(check int)
    (Printf.sprintf "loads that did not parse (of %d)" !loads)
    0 !bad;
  Alcotest.(check (list string))
    "no temp file left" [ "util.sum" ]
    (Array.to_list (Sys.readdir dir))

let test_stored_summary_survives_store () =
  (* a summary produced by real analysis, through the store and back *)
  let root = make_tree tree_files in
  let r = B.Driver.build root in
  ignore r;
  let dir = Filename.concat root ".gofree-cache" in
  match B.Store.load ~dir ~pkg:"util" () with
  | None -> Alcotest.fail "build did not persist util's entry"
  | Some e ->
    let mk =
      List.find
        (fun s -> s.E.Summary.s_name = "util.MakeRange")
        e.B.Store.e_summaries
    in
    Alcotest.(check bool)
      "stored MakeRange returns a fresh heap allocation" true
      mk.E.Summary.s_contents.(0).E.Summary.ct_heap_alloc;
    match E.Codec.decode E.Summary.read (E.Summary.encode mk) with
    | Ok s -> Alcotest.(check bool) "summary record round-trip" true (s = mk)
    | Error err -> Alcotest.failf "summary did not decode: %s" err

let suite =
  [
    Alcotest.test_case "parse package and imports" `Quick
      test_parse_package_imports;
    Alcotest.test_case "parse aliased import" `Quick
      test_parse_import_alias;
    Alcotest.test_case "whole-program parse ignores header" `Quick
      test_parse_discards_package_in_whole_program_mode;
    Alcotest.test_case "unexported reference rejected" `Quick
      test_unexported_rejected;
    Alcotest.test_case "unknown package rejected" `Quick
      test_unknown_package_rejected;
    Alcotest.test_case "multi-package == single-file insertions" `Quick
      test_equivalence_with_single_file;
    Alcotest.test_case "warm cache skips analysis" `Quick
      test_warm_cache_skips_analysis;
    Alcotest.test_case "change invalidates transitively" `Quick
      test_change_invalidates_transitively;
    Alcotest.test_case "force ignores cache" `Quick test_force_ignores_cache;
    Alcotest.test_case "missing summary is conservative" `Quick
      test_missing_summary_is_conservative;
    Alcotest.test_case "import cycle rejected" `Quick
      test_import_cycle_rejected;
    Alcotest.test_case "unresolved import rejected" `Quick
      test_unresolved_import_rejected;
    Alcotest.test_case "missing main rejected" `Quick
      test_missing_main_rejected;
    Alcotest.test_case "store golden file" `Quick test_store_golden;
    Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
    QCheck_alcotest.to_alcotest prop_store_records_roundtrip;
    Alcotest.test_case "store save/load/miss" `Quick test_store_save_load;
    Alcotest.test_case "store concurrent saves" `Quick
      test_store_concurrent_saves;
    Alcotest.test_case "stored summary survives the store" `Quick
      test_stored_summary_survives_store;
  ]
