(** The {!Gofree_api} facade and the {!Gofree_obs.Schema} registry.

    The facade is the only surface [bin/gofreec.ml] is allowed to touch,
    so these tests pin its behaviour against the underlying pipeline:
    same insertions, same outputs, same error discipline. *)

module Json = Gofree_obs.Json
module Schema = Gofree_obs.Schema

let src_free =
  {|
func localSum(n int) int {
	xs := make([]int, n)
	s := 0
	for i := range xs {
		xs[i] = i
		s = s + xs[i]
	}
	return s
}

func main() {
	println(localSum(64))
}
|}

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %s" (Gofree_api.error_message e)

(* ---- facade vs pipeline ---- *)

let test_insertions_match_pipeline () =
  let c = ok (Gofree_api.compile_string src_free) in
  let via_api =
    List.map
      (fun i ->
        ( i.Gofree_api.ins_function,
          i.Gofree_api.ins_variable,
          Gofree_api.free_kind_name i.Gofree_api.ins_kind ))
      (Gofree_api.insertions c)
  in
  let direct =
    Helpers.inserted_vars (Gofree_core.Pipeline.compile src_free)
  in
  Alcotest.(check (list (triple string string string)))
    "facade reports the pipeline's insertions" direct via_api

let test_run_matches_interpreter () =
  let outcome = ok (Gofree_api.run_string src_free) in
  let expected = Helpers.output src_free in
  Alcotest.(check string) "facade run output" expected
    outcome.Gofree_api.output;
  Alcotest.(check bool) "no panic" false outcome.Gofree_api.panicked

let test_presets () =
  let module P = Gofree_api.Preset in
  let module C = Gofree_core.Config in
  (* the four v1 wire names resolve to the configurations they always
     named *)
  List.iter
    (fun (name, expected) ->
      match P.of_name name with
      | None -> Alcotest.failf "v1 preset %S not resolvable" name
      | Some p ->
        Alcotest.(check string)
          (name ^ " resolves")
          (C.signature (P.to_config expected))
          (C.signature (P.to_config p)))
    [
      ("gofree", P.default);
      ("go", P.stock_go);
      ("all-targets", P.(with_targets C.All_pointers default));
      ("no-ipa", P.(with_ipa false default));
    ];
  (* --go really disables insertion *)
  let c =
    ok
      (Gofree_api.compile_string
         ~config:Gofree_api.Preset.(to_config stock_go)
         src_free)
  in
  Alcotest.(check int) "stock Go inserts nothing" 0
    (List.length (Gofree_api.insertions c))

(* ---- Preset builder and the config <-> JSON codec ---- *)

let test_preset_builders () =
  let module P = Gofree_api.Preset in
  let module C = Gofree_core.Config in
  (* every named preset resolves and its name round-trips *)
  List.iter
    (fun (name, cfg) ->
      match P.of_name name with
      | None -> Alcotest.failf "preset %S not resolvable" name
      | Some p ->
        Alcotest.(check string)
          (name ^ " resolves to itself")
          (C.signature (P.to_config p))
          (C.signature cfg))
    P.named;
  Alcotest.(check bool) "unknown preset rejected" true
    (P.of_name "nope" = None);
  (* combinators compose left to right over the default *)
  let built =
    P.(
      default |> with_targets C.All_pointers
      |> with_field_sensitivity true
      |> with_placement C.Last_use |> to_config)
  in
  Alcotest.(check bool) "with_targets applied" true
    (built.C.targets = C.All_pointers);
  Alcotest.(check bool) "with_field_sensitivity applied" true
    built.C.precision.C.field_sensitive;
  Alcotest.(check bool) "with_placement applied" true
    (built.C.precision.C.placement = C.Last_use);
  (* precise = field-sensitive + last-use *)
  Alcotest.(check bool) "precise == field-sensitive + last-use" true
    (C.precise_precision
    = { C.field_sensitive = true; C.placement = C.Last_use })

let test_config_json_roundtrip () =
  let module P = Gofree_api.Preset in
  let module C = Gofree_core.Config in
  List.iter
    (fun (name, cfg) ->
      match Gofree_api.config_of_json (Gofree_api.config_to_json cfg) with
      | Ok cfg' ->
        Alcotest.(check string)
          (name ^ " config json round-trips")
          (C.signature cfg) (C.signature cfg')
      | Error m -> Alcotest.failf "%s: %s" name m)
    P.named;
  (* partial objects default to the paper's configuration *)
  (match
     Gofree_api.config_of_json
       (Json.Obj
          [ ( "precision",
              Json.Obj [ ("field_sensitive", Json.Bool true) ] ) ])
   with
  | Ok c ->
    Alcotest.(check string) "partial config defaults"
      (C.signature P.(to_config (with_field_sensitivity true default)))
      (C.signature c)
  | Error m -> Alcotest.failf "partial config rejected: %s" m);
  (* unknown fields are schema errors, not silently dropped *)
  (match Gofree_api.config_of_json (Json.Obj [ ("bogus", Json.Bool true) ])
   with
  | Ok _ -> Alcotest.fail "unknown config field accepted"
  | Error _ -> ());
  match
    Gofree_api.config_of_json
      (Json.Obj
         [ ("precision", Json.Obj [ ("placement", Json.Str "sometime") ]) ])
  with
  | Ok _ -> Alcotest.fail "unknown placement accepted"
  | Error _ -> ()

let test_error_discipline () =
  (match Gofree_api.compile_string "func main( {}" with
  | Ok _ -> Alcotest.fail "garbage compiled"
  | Error e ->
    Alcotest.(check int) "compile errors exit 1" 1
      (Gofree_api.error_exit_code e));
  match
    Gofree_api.run_string
      "func main() {\n\tvar xs []int\n\tprintln(xs[3])\n}\n"
  with
  | Ok o ->
    (* out-of-range is a panic, reported in the outcome, not an error *)
    Alcotest.(check bool) "index panic reported" true o.Gofree_api.panicked
  | Error e ->
    Alcotest.(check int) "runtime errors exit 2" 2
      (Gofree_api.error_exit_code e)

(* The retired closure engine is a command-line error from [gofreec]
   itself (cmdliner's enum), not a silent fallback; the same invocation
   with a known engine runs. *)
let test_cli_rejects_closure_engine () =
  let exe = Filename.concat (Filename.concat ".." "bin") "gofreec.exe" in
  let src = Filename.temp_file "gofree-engine" ".go" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      Out_channel.with_open_bin src (fun oc -> output_string oc src_free);
      let run engine =
        Sys.command
          (Printf.sprintf "%s run %s --engine %s > %s 2>&1"
             (Filename.quote exe) (Filename.quote src) engine Filename.null)
      in
      Alcotest.(check int) "--engine bytecode exits 0" 0 (run "bytecode");
      Alcotest.(check bool) "--engine closure exits non-zero" true
        (run "closure" <> 0))

(* A [break] or [continue] outside a loop and the address of a map
   element are type errors on the command line (exit 1, one
   [gofreec: type error] line), never an uncaught exception (exit 125). *)
let test_cli_type_errors () =
  let exe = Filename.concat (Filename.concat ".." "bin") "gofreec.exe" in
  let src = Filename.temp_file "gofree-typeerr" ".go" in
  let err = Filename.temp_file "gofree-typeerr" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; err ])
    (fun () ->
      List.iter
        (fun (what, body, at, message) ->
          Out_channel.with_open_bin src (fun oc ->
              output_string oc ("func main() {\n  println(1)\n" ^ body ^ "\n}\n"));
          List.iter
            (fun engine ->
              let code =
                Sys.command
                  (Printf.sprintf "%s run %s --engine %s > %s 2> %s"
                     (Filename.quote exe) (Filename.quote src) engine
                     Filename.null (Filename.quote err))
              in
              let label = what ^ " (" ^ engine ^ ")" in
              Alcotest.(check int) (label ^ ": exit code") 1 code;
              Alcotest.(check string) (label ^ ": message")
                ("gofreec: type error at " ^ at ^ ": " ^ message ^ "\n")
                (In_channel.with_open_bin err In_channel.input_all))
            [ "reference"; "bytecode" ])
        [
          ("break", "  break", "3:3", "break is not in a loop");
          ("continue", "  continue", "3:3", "continue is not in a loop");
          ( "&m[k]",
            "  m := make(map[int]int)\n  p := &m[1]\n  println(*p)",
            "4:8", "cannot take address of map element" );
        ])

(* [--domains] above the host's core count prints one warning line on
   stderr and changes nothing else: same exit code, same output.  At the
   core count there is no warning. *)
let test_cli_warns_oversubscribed_domains () =
  let exe = Filename.concat (Filename.concat ".." "bin") "gofreec.exe" in
  let src = Filename.temp_file "gofree-domains" ".go" in
  let out = Filename.temp_file "gofree-domains" ".out" in
  let err = Filename.temp_file "gofree-domains" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; out; err ])
    (fun () ->
      Out_channel.with_open_bin src (fun oc -> output_string oc src_free);
      let run domains =
        let code =
          Sys.command
            (Printf.sprintf "%s run %s --domains %d > %s 2> %s"
               (Filename.quote exe) (Filename.quote src) domains
               (Filename.quote out) (Filename.quote err))
        in
        let read f = In_channel.with_open_bin f In_channel.input_all in
        (code, read out, read err)
      in
      let cores = Domain.recommended_domain_count () in
      let code_ok, out_ok, err_ok = run cores in
      let code_over, out_over, err_over = run (cores + 1) in
      Alcotest.(check int) "exits 0 at the core count" 0 code_ok;
      Alcotest.(check string) "no warning at the core count" "" err_ok;
      Alcotest.(check int) "same exit code above it" code_ok code_over;
      Alcotest.(check string) "same output above it" out_ok out_over;
      match String.split_on_char '\n' err_over with
      | [ line; "" ] ->
        Alcotest.(check bool) "one warning line naming --domains" true
          (String.starts_with ~prefix:"gofreec: warning: --domains" line)
      | _ -> Alcotest.failf "expected one warning line, got %S" err_over)

(* ---- content keys ---- *)

let test_source_key () =
  let config = Gofree_api.Preset.(to_config default) in
  let k1 = Gofree_api.source_key ~config src_free in
  Alcotest.(check string) "key is deterministic" k1
    (Gofree_api.source_key ~config src_free);
  Alcotest.(check bool) "key covers the source" true
    (k1 <> Gofree_api.source_key ~config (src_free ^ "\n// edit\n"));
  Alcotest.(check bool) "key covers the config" true
    (k1
    <> Gofree_api.source_key
         ~config:Gofree_api.Preset.(to_config stock_go)
         src_free)

(* ---- schema registry ---- *)

let all_schemas =
  [ Schema.Metrics; Schema.Samples; Schema.Build_stats; Schema.Explain;
    Schema.Bench; Schema.Rpc; Schema.Load; Schema.Telemetry;
    Schema.Precision ]

(* Exhaustive by construction: adding a [Schema.t] constructor breaks
   this match, which forces [all_schemas] (and the registry list it is
   checked against) to keep up. *)
let constructor_index : Schema.t -> int = function
  | Schema.Metrics -> 0
  | Schema.Samples -> 1
  | Schema.Build_stats -> 2
  | Schema.Explain -> 3
  | Schema.Bench -> 4
  | Schema.Rpc -> 5
  | Schema.Load -> 6
  | Schema.Telemetry -> 7
  | Schema.Precision -> 8

let test_schema_tags () =
  let indexes = List.sort_uniq compare (List.map constructor_index all_schemas) in
  Alcotest.(check (list int))
    "all_schemas lists every constructor once"
    (List.init (List.length all_schemas) Fun.id)
    indexes;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Schema.tag s ^ " round-trips")
        true
        (Schema.of_tag (Schema.tag s) = Some s))
    all_schemas;
  (* every tag is distinct, and the local list tracks the registry *)
  Alcotest.(check int) "registry covered" (List.length Schema.all)
    (List.length all_schemas);
  let tags = List.sort_uniq compare (List.map Schema.tag all_schemas) in
  Alcotest.(check int) "all tags distinct" (List.length all_schemas)
    (List.length tags)

let check_msg s j =
  match Schema.check s j with
  | Ok () -> Alcotest.fail "bad document accepted"
  | Error m -> m

let test_schema_check () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Schema.tag s ^ " accepts itself")
        true
        (Schema.check s (Json.Obj [ Schema.field s ]) = Ok ()))
    all_schemas;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let m = check_msg Schema.Metrics (Json.Obj [ ("x", Json.Int 1) ]) in
  Alcotest.(check bool) "missing tag names the expectation" true
    (contains "gofree-metrics-v1" m);
  let m =
    check_msg Schema.Metrics
      (Json.Obj [ ("schema", Json.Str "gofree-samples-v1") ])
  in
  Alcotest.(check bool) "wrong family names both tags" true
    (contains "gofree-samples-v1" m && contains "gofree-metrics-v1" m);
  let m =
    check_msg Schema.Metrics
      (Json.Obj [ ("schema", Json.Str "gofree-metrics-v9") ])
  in
  Alcotest.(check bool) "version mismatch mentions version" true
    (contains "version" m)

let test_schema_guards_parsers () =
  (* of_json refuses a samples document where metrics are expected *)
  let m = Gofree_api.run_string src_free in
  let doc =
    match m with
    | Ok o -> Json.get "metrics" o.Gofree_api.metrics_json
    | Error _ -> Alcotest.fail "run failed"
  in
  (* the real document parses back *)
  ignore (Gofree_runtime.Metrics.of_json doc);
  match
    Gofree_runtime.Metrics.of_json
      (Json.Obj [ ("schema", Json.Str "gofree-samples-v1") ])
  with
  | _ -> Alcotest.fail "wrong-schema document parsed"
  | exception Json.Parse_error _ -> ()

(* The daemon answers explain requests for one cached compilation on
   several worker domains at once.  Explaining walks the escape graphs,
   whose walks keep their state in the graph; concurrent explains must
   still each give the sequential answer. *)
let test_concurrent_explain () =
  let module W = Gofree_workloads.Workloads in
  let json = match W.find "json" with Some w -> w | None -> assert false in
  let c =
    match Gofree_api.compile_string (W.source_of ~size:20 json) with
    | Ok c -> c
    | Error e -> Alcotest.fail (Gofree_api.error_message e)
  in
  let explained () =
    Gofree_obs.Json.to_string
      (Gofree_api.explain_to_json (Gofree_api.explain c))
  in
  let expected = explained () in
  let worker () =
    let differing = ref 0 in
    for _ = 1 to 100 do
      if explained () <> expected then incr differing
    done;
    !differing
  in
  let others = List.init 2 (fun _ -> Domain.spawn worker) in
  let here = worker () in
  let differing = List.fold_left (fun n d -> n + Domain.join d) here others in
  Alcotest.(check int) "explains that differ from the sequential one" 0
    differing

(* ---- oracle parity on the benchmark programs ------------------------ *)

(* The checks perfbench makes of every proxy run, in process: at one
   seed, the bytecode engine's output, plain and under the poison heap,
   equals the oracle's — the reference walker on the stock-Go preset,
   which inserts no frees — and each run's metrics keep perfbench's
   accounting identities.  Seed 7 is fixed; a second seed is drawn per
   run, so a layout fault that shows only at some seeds gets a chance
   at every run, and a failure names the seed to replay with
   [gofreec run --seed]. *)
let test_oracle_parity () =
  let drawn =
    1 + Random.State.int (Random.State.make_self_init ()) 0x3FFFFFFF
  in
  let compile config path =
    match
      Gofree_api.compile_string ~config (Test_disasm.read_file path)
    with
    | Ok c -> c
    | Error e -> Alcotest.fail (Gofree_api.error_message e)
  in
  let run c ~seed ~engine ~poison what =
    let options =
      { Gofree_api.default_run_options with seed; engine; poison }
    in
    match Gofree_api.run_compilation ~options c with
    | Ok o -> o
    | Error e -> Alcotest.failf "%s: %s" what (Gofree_api.error_message e)
  in
  List.iter
    (fun path ->
      let name = Filename.remove_extension (Filename.basename path) in
      (* goroutines may print in any order *)
      let canon out =
        if name = "fanout" then
          String.concat "\n"
            (List.sort compare (String.split_on_char '\n' out))
        else out
      in
      let gofree = compile Gofree_core.Config.gofree path in
      let go = compile Gofree_core.Config.go path in
      List.iter
        (fun seed ->
          let what mode = Printf.sprintf "%s --seed %d%s" name seed mode in
          let oracle =
            run go ~seed ~engine:Gofree_api.Eng_reference ~poison:false
              (what " --go --engine reference")
          in
          List.iter
            (fun (mode, poison) ->
              let w = what mode in
              let o =
                run gofree ~seed ~engine:Gofree_api.Eng_bytecode ~poison w
              in
              Alcotest.(check string) (w ^ ": output")
                (canon oracle.Gofree_api.output) (canon o.Gofree_api.output);
              let m = o.Gofree_api.metrics in
              let module M = Gofree_runtime.Metrics in
              let sum = Array.fold_left ( + ) 0 in
              let tcfreed = sum m.M.tcfreed_objects in
              Alcotest.(check int) (w ^ ": calls = successes + give-ups")
                m.M.tcfree_calls (m.M.tcfree_success + sum m.M.giveups);
              Alcotest.(check int) (w ^ ": successes = tcfreed")
                m.M.tcfree_success tcfreed;
              Alcotest.(check int) (w ^ ": poison reads") 0 m.M.poison_reads;
              if tcfreed + sum m.M.gc_freed_objects > sum m.M.heap_allocs then
                Alcotest.failf "%s: more heap objects freed than allocated" w)
            [ ("", false); (" --poison", true) ])
        [ 7; drawn ])
    Test_disasm.perfbench_programs

let suite =
  [
    Alcotest.test_case "insertions match pipeline" `Quick
      test_insertions_match_pipeline;
    Alcotest.test_case "concurrent explains agree" `Quick
      test_concurrent_explain;
    Alcotest.test_case "run matches interpreter" `Quick
      test_run_matches_interpreter;
    Alcotest.test_case "presets" `Quick test_presets;
    Alcotest.test_case "preset builders" `Quick test_preset_builders;
    Alcotest.test_case "config json round-trip" `Quick
      test_config_json_roundtrip;
    Alcotest.test_case "error discipline" `Quick test_error_discipline;
    Alcotest.test_case "cli rejects --engine closure" `Quick
      test_cli_rejects_closure_engine;
    Alcotest.test_case "cli type errors exit 1, not 125" `Quick
      test_cli_type_errors;
    Alcotest.test_case "cli warns when --domains exceeds the cores" `Quick
      test_cli_warns_oversubscribed_domains;
    Alcotest.test_case "source key" `Quick test_source_key;
    Alcotest.test_case "schema tags" `Quick test_schema_tags;
    Alcotest.test_case "schema check diagnostics" `Quick test_schema_check;
    Alcotest.test_case "schema guards parsers" `Quick
      test_schema_guards_parsers;
    Alcotest.test_case "oracle parity on the benchmark programs" `Quick
      test_oracle_parity;
  ]
