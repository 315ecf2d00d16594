(** Observability tests: trace-event stream well-formedness, metrics
    JSON round-trip, ring/sampler bookkeeping, build-stats JSON, and the
    [--explain] freeing diagnostics. *)

module Obs = Gofree_obs
module Json = Obs.Json
module Trace = Obs.Trace
module Rt = Gofree_runtime

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\n\xe2\x9c\x93");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj [] ]);
      ]
  in
  let round s = Json.to_string (Json.parse s) in
  Alcotest.(check string)
    "compact round-trip" (Json.to_string doc)
    (round (Json.to_string doc));
  Alcotest.(check string)
    "pretty parses back to same doc" (Json.to_string doc)
    (Json.to_string (Json.parse (Json.to_string_pretty doc)));
  match Json.parse "1 2" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted"

(* ---------- trace stream ---------- *)

let trace_src =
  {|
package main

func work(n int) int {
	xs := make([]int, n)
	s := 0
	for i := range xs {
		xs[i] = i
		s = s + xs[i]
	}
	return s
}

func main() {
	println(work(64))
}
|}

(** Capture a trace around a compile+run and check the stream invariants
    every consumer (Perfetto, the bench exporter) relies on: valid JSON,
    timestamps monotone in emission order, every [B] matched by an [E] on
    the same track, and the pipeline phases present. *)
let test_trace_stream () =
  Trace.start ();
  ignore (Helpers.run trace_src);
  let doc = Json.parse (Trace.stop ()) in
  let events = Json.get_list "traceEvents" doc in
  Alcotest.(check bool) "nonempty" true (List.length events > 0);
  let last_ts = ref neg_infinity in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let names = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let ph = Json.get_string "ph" e in
      let tid = Json.get_int "tid" e in
      Hashtbl.replace names (Json.get_string "name" e) ();
      if ph <> "M" then begin
        let ts = Json.get_float "ts" e in
        Alcotest.(check bool) "ts monotone" true (ts >= !last_ts);
        last_ts := ts
      end;
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match ph with
      | "B" -> Hashtbl.replace stacks tid (Json.get_string "name" e :: stack)
      | "E" -> begin
        match stack with
        | top :: rest ->
          Alcotest.(check string) "E closes innermost B" top
            (Json.get_string "name" e);
          Hashtbl.replace stacks tid rest
        | [] -> Alcotest.fail "E without open B"
      end
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid stack ->
      Alcotest.(check int)
        (Printf.sprintf "tid %d spans all closed" tid)
        0 (List.length stack))
    stacks;
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " span present") true
        (Hashtbl.mem names phase))
    [ "lex"; "parse"; "typecheck"; "escape"; "instrument"; "run g0" ]

(** A goroutine program traced at [--domains 2]: every goroutine gets
    its own track, and on each track the [run gN] slice spans nest
    properly and all close, even when a goroutine is stolen between
    slices. *)
let test_trace_goroutine_tracks () =
  let src = Gofree_workloads.Workloads.(source_of ~size:4 fanout) in
  let run_config = { Gofree_interp.Interp.default_config with domains = 2 } in
  Trace.start ();
  ignore (Helpers.run ~run_config src);
  let doc = Json.parse (Trace.stop ()) in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 16 in
  let slices = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let tid = Json.get_int "tid" e in
      if tid >= Trace.tid_fiber 0 && tid < Trace.tid_reader 0 then begin
        let name = Json.get_string "name" e in
        let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
        match Json.get_string "ph" e with
        | "B" ->
          Alcotest.(check string) "slice named after its track"
            (Printf.sprintf "run g%d" (tid - Trace.tid_fiber 0))
            name;
          Hashtbl.replace slices tid ();
          Hashtbl.replace stacks tid (name :: stack)
        | "E" -> begin
          match stack with
          | top :: rest ->
            Alcotest.(check string) "E closes innermost B" top name;
            Hashtbl.replace stacks tid rest
          | [] -> Alcotest.fail (Printf.sprintf "tid %d: E without open B" tid)
        end
        | _ -> ()
      end)
    (Json.get_list "traceEvents" doc);
  Hashtbl.iter
    (fun tid stack ->
      Alcotest.(check int)
        (Printf.sprintf "tid %d spans all closed" tid)
        0 (List.length stack))
    stacks;
  Alcotest.(check bool) "main and several goroutines traced" true
    (Hashtbl.mem slices (Trace.tid_fiber 0) && Hashtbl.length slices > 2)

(** A program that collects, traced at [--domains 2]: every [gc cycle]
    span on the runtime track holds exactly one [mark] span followed by
    one [sweep] span, as at one domain. *)
let test_trace_gc_phases_two_domains () =
  let src =
    {|
package main

var keep [][]int

func churn(id int, n int) int {
	s := 0
	for i := 0; i < n; i++ {
		xs := make([]int, 256)
		xs[0] = id + i
		keep = append(keep, xs)
		if len(keep) > 8 {
			keep = keep[1:]
		}
		s = s + xs[0]
	}
	return s
}

func main() {
	for g := 0; g < 3; g++ {
		go churn(g, 200)
	}
	println(churn(9, 200))
}
|}
  in
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      domains = 2;
      heap_config = { Rt.Heap.default_config with min_heap = 32 * 1024 };
    }
  in
  Trace.start ();
  let _, m = Helpers.run ~config:Gofree_core.Config.go ~run_config src in
  let doc = Json.parse (Trace.stop ()) in
  Alcotest.(check bool) "the program collects" true (m.Rt.Metrics.gc_cycles > 0);
  (* the B/E sequence of the runtime track, in emission order *)
  let spans =
    List.filter_map
      (fun e ->
        match Json.get_string "ph" e with
        | ("B" | "E") as ph when Json.get_int "tid" e = Trace.tid_runtime ->
          Some (ph, Json.get_string "name" e)
        | _ -> None)
      (Json.get_list "traceEvents" doc)
  in
  let rec check cycles = function
    | [] -> cycles
    | ("B", "gc cycle") :: ("B", "mark") :: ("E", "mark") :: ("B", "sweep")
      :: ("E", "sweep") :: ("E", "gc cycle") :: rest ->
      check (cycles + 1) rest
    | (ph, name) :: _ ->
      Alcotest.failf "runtime track: unexpected %s %S outside a \
                      gc cycle > mark, sweep nesting" ph name
  in
  (* the runner's final accounting sweep traces one more, uncounted *)
  Alcotest.(check int) "one gc cycle span per cycle, plus the final sweep"
    (m.Rt.Metrics.gc_cycles + 1) (check 0 spans)

let test_trace_disabled () =
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  (* emissions while disabled must be no-ops, and stop yields "{}" *)
  Trace.instant ~tid:Trace.tid_main "ignored";
  Alcotest.(check string) "stop without start" "{}" (Trace.stop ())

(* ---------- metrics JSON ---------- *)

let test_metrics_roundtrip () =
  let _, m = Helpers.run trace_src in
  Alcotest.(check bool) "something was freed" true (m.Rt.Metrics.freed_bytes > 0);
  let j = Rt.Metrics.to_json m in
  let m' = Rt.Metrics.of_json (Json.parse (Json.to_string j)) in
  Alcotest.(check string) "round-trip preserves every counter"
    (Json.to_string j)
    (Json.to_string (Rt.Metrics.to_json m'));
  Alcotest.(check string) "schema" "gofree-metrics-v1"
    (Json.get_string "schema" j)

(* ---------- ring + sampler ---------- *)

let test_ring_wraparound () =
  let r = Obs.Ring.create ~capacity:4 in
  Alcotest.(check int) "empty length" 0 (Obs.Ring.length r);
  for i = 1 to 10 do
    Obs.Ring.push r i
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Ring.length r);
  Alcotest.(check int) "pushes counted" 10 (Obs.Ring.pushed r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 7; 8; 9; 10 ]
    (Obs.Ring.to_list r);
  Obs.Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Obs.Ring.length r);
  Alcotest.(check int) "clear resets pushed" 0 (Obs.Ring.pushed r)

let test_sampler () =
  let s = Rt.Sampler.create ~capacity:3 ~every:5 () in
  Alcotest.(check int) "fresh clock: a full period to go" 5
    (Rt.Sampler.until_due s);
  Alcotest.(check int) "advance returns the clock" 7 (Rt.Sampler.advance s 7);
  Alcotest.(check int) "off-cadence: steps to the next multiple" 3
    (Rt.Sampler.until_due s);
  ignore (Rt.Sampler.advance s 3 : int);
  Alcotest.(check int) "at a multiple: a full period again" 5
    (Rt.Sampler.until_due s);
  let m = Rt.Metrics.create () in
  for step = 1 to 5 do
    m.Rt.Metrics.heap_live <- step * 100;
    Rt.Sampler.record s ~step:(step * 5) ~span_bytes:8192 m
  done;
  let samples = Rt.Sampler.samples s in
  Alcotest.(check int) "ring keeps capacity" 3 (List.length samples);
  Alcotest.(check (list int)) "oldest first, newest retained"
    [ 15; 20; 25 ]
    (List.map (fun sm -> sm.Rt.Sampler.sm_step) samples);
  let j = Rt.Sampler.to_json s in
  Alcotest.(check string) "schema" "gofree-samples-v1"
    (Json.get_string "schema" j);
  Alcotest.(check int) "dropped = pushed - kept" 2 (Json.get_int "dropped" j);
  Alcotest.(check int) "samples serialized" 3
    (List.length (Json.get_list "samples" j));
  Alcotest.(check int) "heap_live of newest" 500
    (Json.get_int "heap_live" (List.nth (Json.get_list "samples" j) 2))

(** End to end: a run with [sample_every] set produces a time series. *)
let test_sampler_in_run () =
  let run_config =
    { Gofree_interp.Interp.default_config with sample_every = 50 }
  in
  let r =
    Gofree_interp.Runner.compile_and_run
      ~gofree_config:Gofree_core.Config.gofree ~run_config trace_src
  in
  match r.Gofree_interp.Runner.sampler with
  | None -> Alcotest.fail "no sampler attached"
  | Some s ->
    Alcotest.(check bool) "samples recorded" true
      (List.length (Rt.Sampler.samples s) > 0);
    let steps = List.map (fun sm -> sm.Rt.Sampler.sm_step) (Rt.Sampler.samples s) in
    List.iter
      (fun st -> Alcotest.(check int) "steps on cadence" 0 (st mod 50))
      steps

(* ---------- build stats JSON ---------- *)

let test_stats_json () =
  let open Gofree_build.Driver in
  let stats =
    {
      bs_pkgs =
        [
          {
            pr_name = "util";
            pr_wave = 0;
            pr_typed = false;
            pr_cached = false;
            pr_ms = 1.25;
            pr_nfuncs = 3;
            pr_nsummaries = 2;
            pr_units = 3;
            pr_unit_hits = 2;
          };
          {
            pr_name = "main";
            pr_wave = 1;
            pr_typed = true;
            pr_cached = true;
            pr_ms = 0.0;
            pr_nfuncs = 1;
            pr_nsummaries = 0;
            pr_units = 0;
            pr_unit_hits = 0;
          };
        ];
      bs_hits = 1;
      bs_misses = 1;
      bs_unit_hits = 2;
      bs_unit_misses = 1;
      bs_frontend_hits = 1;
      bs_frontend_misses = 1;
      bs_corrupt = 0;
      bs_total_ms = 3.5;
    }
  in
  let j = Json.parse (Json.to_string (stats_to_json stats)) in
  Alcotest.(check string) "schema" "gofree-build-stats-v1"
    (Json.get_string "schema" j);
  Alcotest.(check int) "hits" 1 (Json.get_int "cache_hits" j);
  Alcotest.(check int) "frontend hits" 1 (Json.get_int "frontend_hits" j);
  Alcotest.(check int) "corrupt records" 0 (Json.get_int "corrupt_records" j);
  let pkgs = Json.get_list "packages" j in
  Alcotest.(check int) "both packages" 2 (List.length pkgs);
  Alcotest.(check bool) "cached flag survives" true
    (match Json.member "cached" (List.nth pkgs 1) with
    | Some (Json.Bool b) -> b
    | _ -> false)

(* ---------- --explain diagnostics ---------- *)

let explain_src =
  {|
package main

var g []int

func localSum(n int) int {
	xs := make([]int, n)
	s := 0
	for i := range xs {
		xs[i] = i
		s = s + xs[i]
	}
	return s
}

func escaping(n int) []int {
	ys := make([]int, n)
	ys[0] = n
	return ys
}

func stored(n int) {
	zs := make([]int, n)
	zs[0] = n
	g = zs
}

func keeper(n int) int {
	var keep []int
	for i := 0; i < n; i++ {
		tmp := make([]int, 3)
		tmp[0] = i
		keep = tmp
	}
	return keep[0]
}

func indirect(n int) int {
	s := make([]int, n)
	ps := &s
	t := make([]int, n)
	t[0] = 7
	*ps = t
	x := s[0]
	return x
}

func main() {
	println(localSum(8))
	println(len(escaping(4)))
	stored(4)
	println(keeper(3))
	println(indirect(5))
}
|}

let test_explain () =
  let open Gofree_core in
  let c = Helpers.compile explain_src in
  let sites =
    Report.explain c.Pipeline.c_analysis c.Pipeline.c_inserted
      c.Pipeline.c_config c.Pipeline.c_program
  in
  Alcotest.(check int) "every site classified" 6 (List.length sites);
  let in_func f =
    List.find (fun e -> e.Report.ex_site.Minigo.Tast.site_func = f) sites
  in
  let blocking f =
    match (in_func f).Report.ex_blocking with
    | Some b -> Report.blocking_str b
    | None -> "none"
  in
  (* freed: the one inserted tcfree covers localSum's slice *)
  Alcotest.(check (option string)) "localSum freed" (Some "xs")
    (in_func "localSum").Report.ex_freed_by;
  Alcotest.(check string) "return value escapes" "escapes to caller"
    (blocking "escaping");
  Alcotest.(check string) "global store escapes" "escapes to global/heap store"
    (blocking "stored");
  Alcotest.(check string) "loop-carried holder blocks insertion"
    "insertion unsafe (trailing use)" (blocking "keeper");
  (* the indirect function has two sites: the overwritten slice is
     incomplete, the replacement escapes through *ps *)
  let indirect_sites =
    List.filter
      (fun e -> e.Report.ex_site.Minigo.Tast.site_func = "indirect")
      sites
  in
  Alcotest.(check int) "two sites in indirect" 2 (List.length indirect_sites);
  Alcotest.(check bool) "indirect store makes a site incomplete" true
    (List.exists
       (fun e -> e.Report.ex_blocking = Some Report.Incomplete_store)
       indirect_sites);
  (* all heap sites, none stack-allocated in this program *)
  List.iter
    (fun e -> Alcotest.(check bool) "heap site" true e.Report.ex_heap)
    sites;
  (* JSON export parses and covers every site *)
  let j = Json.parse (Json.to_string (Report.explain_to_json sites)) in
  Alcotest.(check string) "schema" "gofree-explain-v1"
    (Json.get_string "schema" j);
  Alcotest.(check int) "all sites exported" 6
    (List.length (Json.get_list "sites" j))

(** Totality: every unfreed heap site of arbitrary generated programs
    gets some blocking diagnosis (explain never raises, freed+blocked
    covers all sites). *)
let test_explain_total () =
  List.iter
    (fun src ->
      let open Gofree_core in
      let c = Helpers.compile src in
      let sites =
        Report.explain c.Pipeline.c_analysis c.Pipeline.c_inserted
          c.Pipeline.c_config c.Pipeline.c_program
      in
      List.iter
        (fun e ->
          let diagnosed =
            (not e.Report.ex_heap)
            || e.Report.ex_freed_by <> None
            || e.Report.ex_blocking <> None
          in
          Alcotest.(check bool) "heap site freed or diagnosed" true diagnosed)
        sites)
    [ trace_src; explain_src ]

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "trace stream invariants" `Quick test_trace_stream;
    Alcotest.test_case "trace goroutine tracks" `Quick
      test_trace_goroutine_tracks;
    Alcotest.test_case "trace gc phases at two domains" `Quick
      test_trace_gc_phases_two_domains;
    Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
    Alcotest.test_case "metrics json round-trip" `Quick test_metrics_roundtrip;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "sampler" `Quick test_sampler;
    Alcotest.test_case "sampler in a run" `Quick test_sampler_in_run;
    Alcotest.test_case "build stats json" `Quick test_stats_json;
    Alcotest.test_case "explain diagnostics" `Quick test_explain;
    Alcotest.test_case "explain is total" `Quick test_explain_total;
  ]
