(** Incremental-build latency: cold vs package-warm vs unit-warm.

    For the six paper workloads (as one-package trees) and the
    three-package multipkg example, measure the driver's rebuild latency
    after a one-function edit at each cache level:
    - {b cold}: [~force:true], both cache levels ignored;
    - {b package-warm}: the edit invalidates the package entry and, with
      the unit cache disabled ({!Gofree_build.Driver.no_unit_cache}),
      every unit of the package re-solves — the pre-unit-cache behavior;
    - {b unit-warm}: the same edit with the function-granular cache on —
      only the edited function's SCC unit re-solves.

    Run with [dune exec bench/main.exe -- --only incremental]; the same
    measurements land in [BENCH_gofree.json] under ["incremental"]. *)

module W = Gofree_workloads.Workloads
module B = Gofree_build
module Json = Gofree_obs.Json
open Bench_common

(* ---------------------------------------------------------------- *)
(* Temporary trees                                                   *)
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

let make_tree files =
  incr tree_counter;
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-bench-incr-%d-%d" (Unix.getpid ())
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

(* ---------------------------------------------------------------- *)
(* The one-function edit                                             *)
(* ---------------------------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** Pad [fname]'s body with a no-op statement: the typed body (and so
    the unit key) changes, the summary does not. *)
let pad_func src fname =
  let needle = "func " ^ fname ^ "(" in
  let rec go acc = function
    | [] -> failwith ("pad_func: no function " ^ fname)
    | l :: rest when starts_with ~prefix:needle l ->
      List.rev_append acc (l :: "\tpad9 := 0" :: "\tpad9 = pad9" :: rest)
    | l :: rest -> go (l :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' src))

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

(** A function near the middle of the source — an arbitrary but
    deterministic edit target. *)
let edit_target src =
  let names = func_names src in
  List.nth names (List.length names / 2)

(* ---------------------------------------------------------------- *)
(* Timed builds                                                      *)
(* ---------------------------------------------------------------- *)

let timed_build ?unit_cache ?(force = false) root =
  Gc.major ();
  let t0 = Unix.gettimeofday () in
  let r = B.Driver.build ?unit_cache ~force root in
  ((Unix.gettimeofday () -. t0) *. 1000.0, r)

let median_ms samples = Gofree_stats.Stats.median (Array.of_list samples)

(** One subject: [files] is the tree, [edit] the (file, function) to
    pad-toggle between warm builds. *)
type subject = { sub_name : string; files : (string * string) list;
                 edit : string * string }

let subject_of_workload ~options (w : W.t) =
  let source = W.source_of ~size:(scaled_size ~options w) w in
  {
    sub_name = w.W.w_name;
    files = [ ("main.go", source) ];
    edit = ("main.go", edit_target source);
  }

(* the examples/multipkg tree, inlined so the harness does not depend
   on the working directory *)
let multipkg_subject =
  {
    sub_name = "multipkg";
    files =
      [
        ( "util/util.go",
          "package util\n\n\
           func Sum(xs []int) int {\n\ts := 0\n\tfor i := range xs {\n\
           \t\ts = s + xs[i]\n\t}\n\treturn s\n}\n\n\
           func MakeRange(n int) []int {\n\txs := make([]int, n)\n\
           \tfor i := range xs {\n\t\txs[i] = i\n\t}\n\treturn xs\n}\n\n\
           func scale(x int, k int) int {\n\treturn x * k\n}\n\n\
           func Scale(xs []int, k int) []int {\n\
           \tys := make([]int, len(xs))\n\tfor i := range xs {\n\
           \t\tys[i] = scale(xs[i], k)\n\t}\n\treturn ys\n}\n" );
        ( "data/data.go",
          "package data\n\nimport \"util\"\n\n\
           type Point struct {\n\tX int\n\tY int\n}\n\n\
           func Centroid(ps []Point) Point {\n\tn := len(ps)\n\
           \tif n == 0 {\n\t\treturn Point{}\n\t}\n\tsx := 0\n\tsy := 0\n\
           \tfor i := range ps {\n\t\tsx = sx + ps[i].X\n\
           \t\tsy = sy + ps[i].Y\n\t}\n\
           \treturn Point{X: sx / n, Y: sy / n}\n}\n\n\
           func Grid(n int) []Point {\n\txs := util.MakeRange(n)\n\
           \tps := make([]Point, n)\n\ttotal := util.Sum(xs)\n\
           \tfor i := range ps {\n\t\tps[i] = Point{X: xs[i], Y: total}\n\
           \t}\n\treturn ps\n}\n" );
        ( "main.go",
          "package main\n\nimport (\n\t\"util\"\n\t\"data\"\n)\n\n\
           func main() {\n\txs := util.MakeRange(16)\n\
           \tys := util.Scale(xs, 3)\n\ttotal := util.Sum(ys)\n\
           \tps := data.Grid(8)\n\tc := data.Centroid(ps)\n\
           \tprintln(\"total\", total)\n\
           \tprintln(\"centroid\", c.X, c.Y)\n}\n" );
      ];
    edit = ("util/util.go", "Sum");
  }

(** Measure one subject.  Warm builds toggle the pad edit on and off:
    each rebuild sees exactly one changed function, and because the
    unit-record set is replaced per commit, every toggle re-solves
    exactly one unit when the unit cache is on. *)
let measure_subject ~options sub =
  let root = make_tree sub.files in
  let rel, fname = sub.edit in
  let orig = List.assoc rel sub.files in
  let padded = pad_func orig fname in
  let path = Filename.concat root rel in
  let cold_samples = ref [] and units = ref 0 in
  for _ = 0 to options.runs do
    let ms, r = timed_build ~force:true root in
    units := r.B.Driver.b_stats.B.Driver.bs_unit_misses;
    cold_samples := ms :: !cold_samples
  done;
  let toggled = ref false in
  let toggle () =
    toggled := not !toggled;
    write_file path (if !toggled then padded else orig)
  in
  let warm ?unit_cache () =
    ignore (B.Driver.build ?unit_cache root);
    let samples = ref [] and resolved = ref 0 in
    for _ = 0 to options.runs do
      toggle ();
      let ms, r = timed_build ?unit_cache root in
      resolved := r.B.Driver.b_stats.B.Driver.bs_unit_misses;
      samples := ms :: !samples
    done;
    (median_ms !samples, !resolved)
  in
  let unit_ms, unit_resolved = warm () in
  let pkg_ms, pkg_resolved = warm ~unit_cache:B.Driver.no_unit_cache () in
  (* drop the warmup sample taken before the loop counted from 0 *)
  let cold_ms = median_ms (List.tl !cold_samples) in
  Printf.printf
    "  %-10s units %-3d cold %8.2f ms   pkg-warm %8.2f ms (%d units)   \
     unit-warm %8.2f ms (%d unit)\n\
     %!"
    sub.sub_name !units cold_ms pkg_ms pkg_resolved unit_ms unit_resolved;
  ( sub.sub_name,
    Json.Obj
      [
        ("units", Json.Int !units);
        ("cold_ms", Json.Float cold_ms);
        ("pkg_warm_ms", Json.Float pkg_ms);
        ("pkg_warm_units_resolved", Json.Int pkg_resolved);
        ("unit_warm_ms", Json.Float unit_ms);
        ("unit_warm_units_resolved", Json.Int unit_resolved);
      ] )

(** [n] independent slice-heavy functions: one package whose call graph
    is a wide DAG of [n + 1] units. *)
let wide_src ?(stmts = 24) n =
  let b = Buffer.create (n * 600) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "func w%d(n int) int {\n" i);
    Buffer.add_string b "\ta0 := make([]int, n)\n";
    for j = 1 to stmts do
      Buffer.add_string b
        (Printf.sprintf "\ta%d := append(a%d, %d)\n" j (j - 1) j)
    done;
    Buffer.add_string b
      (Printf.sprintf
         "\ts := 0\n\tfor i := range a%d {\n\t\ts = s + a%d[i]\n\t}\n" stmts
         stmts);
    Buffer.add_string b "\treturn s\n}\n"
  done;
  Buffer.add_string b "func main() {\n\ttotal := 0\n";
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "\ttotal = total + w%d(8)\n" i)
  done;
  Buffer.add_string b "\tprintln(total)\n}\n";
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Entry points                                                      *)
(* ---------------------------------------------------------------- *)

(** The measurements as the ["incremental"] JSON object. *)
let measure ~options () : Json.t =
  (* wide64: the 64-function DAG — large enough that re-solving one
     unit instead of 65 dominates the cache's fixed I/O cost *)
  let wide64 =
    let src = wide_src 64 in
    { sub_name = "wide64"; files = [ ("main.go", src) ]; edit = ("main.go", "w32") }
  in
  let subjects =
    List.map (subject_of_workload ~options) W.all
    @ [ multipkg_subject; wide64 ]
  in
  let rows = List.map (measure_subject ~options) subjects in
  Json.Obj [ ("subjects", Json.Obj rows) ]

let run ~options () =
  heading "Incremental rebuild latency (cold / package-warm / unit-warm)";
  ignore (measure ~options ())
