(** Tests for call-graph ordering and summary extraction: the compressed
    parameter tags of §4.4 must carry the right flows and dereference
    weights. *)

open Gofree_escape
open Minigo

let analysis_of src =
  let compiled = Helpers.compile src in
  compiled.Gofree_core.Pipeline.c_analysis

let summary analysis name = Hashtbl.find analysis.Analysis.summaries name

let flows_to_return s ~param ~ret =
  List.filter_map
    (fun { Summary.pf_param; pf_target; pf_derefs } ->
      match pf_target with
      | `Return j when pf_param = param && j = ret -> Some pf_derefs
      | _ -> None)
    s.Summary.s_flows

let flows_to_heap s ~param =
  List.filter_map
    (fun { Summary.pf_param; pf_target; pf_derefs } ->
      match pf_target with
      | `Heap when pf_param = param -> Some pf_derefs
      | _ -> None)
    s.Summary.s_flows

let test_callees () =
  let program =
    Helpers.parse_check
      {|
func a() { b()
  c() }
func b() { c() }
func c() {}
func d() { go a()
  defer b() }
func main() { d() }
|}
  in
  let f name = Tast.find_func program name |> Option.get in
  Alcotest.(check (list string)) "a calls b,c" [ "b"; "c" ]
    (List.sort compare (Analysis.callees_of (f "a")));
  Alcotest.(check (list string)) "d calls a,b (go/defer)" [ "a"; "b" ]
    (List.sort compare (Analysis.callees_of (f "d")))

let test_scc_order () =
  let program =
    Helpers.parse_check
      {|
func leaf() int { return 1 }
func mid() int { return leaf() + 1 }
func top() int { return mid() + leaf() }
func main() { println(top()) }
|}
  in
  let order =
    List.map
      (fun comp -> List.map (fun (f : Tast.func) -> f.Tast.f_name) comp)
      (Analysis.scc_order program.Tast.p_funcs)
  in
  (* callees come strictly before callers *)
  let pos name =
    let rec go i = function
      | [] -> -1
      | comp :: rest -> if List.mem name comp then i else go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "leaf before mid" true (pos "leaf" < pos "mid");
  Alcotest.(check bool) "mid before top" true (pos "mid" < pos "top");
  Alcotest.(check bool) "top before main" true (pos "top" < pos "main")

let test_scc_cycle_grouped () =
  let program =
    Helpers.parse_check
      {|
func ping(n int) int {
  if n <= 0 { return 0 }
  return pong(n - 1)
}
func pong(n int) int {
  if n <= 0 { return 1 }
  return ping(n - 1)
}
func main() { println(ping(5)) }
|}
  in
  let comps = Analysis.scc_order program.Tast.p_funcs in
  let cycle =
    List.find
      (fun comp ->
        List.exists (fun (f : Tast.func) -> f.Tast.f_name = "ping") comp)
      comps
  in
  Alcotest.(check int) "ping and pong share a component" 2
    (List.length cycle)

let test_identity_summary () =
  let analysis =
    analysis_of
      {|
func id(s []int) []int { return s }
func main() {
  x := make([]int, 3)
  y := id(x)
  y[0] = 1
  println(x[0])
}
|}
  in
  let s = summary analysis "id" in
  (* the parameter's value flows to the return with 0 dereferences *)
  Alcotest.(check (list int)) "param0 -> return0 at derefs 0" [ 0 ]
    (flows_to_return s ~param:0 ~ret:0);
  Alcotest.(check (list int)) "param0 does not flow to heap" []
    (flows_to_heap s ~param:0)

let test_deref_summary () =
  let analysis =
    analysis_of
      {|
func load(p *[]int) []int { return *p }
func main() {
  x := make([]int, 3)
  y := load(&x)
  y[0] = 1
  println(x[0])
}
|}
  in
  let s = summary analysis "load" in
  Alcotest.(check (list int)) "param0 -> return0 at derefs 1" [ 1 ]
    (flows_to_return s ~param:0 ~ret:0)

let test_leak_summary () =
  let analysis =
    analysis_of
      {|
var sink []int
func leak(s []int) {
  sink = s
}
func main() {
  x := make([]int, 3)
  leak(x)
  println(len(sink))
}
|}
  in
  let s = summary analysis "leak" in
  Alcotest.(check bool) "param0 flows to heap" true
    (flows_to_heap s ~param:0 <> [])

let test_pure_reader_summary () =
  let analysis =
    analysis_of
      {|
func total(s []int) int {
  t := 0
  for i := 0; i < len(s); i++ {
    t += s[i]
  }
  return t
}
func main() {
  x := make([]int, 3)
  println(total(x))
}
|}
  in
  let s = summary analysis "total" in
  Alcotest.(check (list int)) "no heap flow" [] (flows_to_heap s ~param:0);
  Alcotest.(check bool) "int return has no heap content" false
    s.Summary.s_contents.(0).Summary.ct_heap_alloc

let test_second_return_only () =
  (* a function that is a factory for result 0 but a pass-through for
     result 1 — the per-value tagging of §4.6.3 *)
  let analysis =
    analysis_of
      {|
func mixed(s []int) ([]int, []int) {
  fresh := make([]int, 2)
  return fresh, s
}
func main() {
  base := make([]int, 3)
  a, b := mixed(base)
  a[0] = 1
  b[0] = 2
  println(base[0])
}
|}
  in
  let s = summary analysis "mixed" in
  Alcotest.(check bool) "result 0 is a fresh heap allocation" true
    s.Summary.s_contents.(0).Summary.ct_heap_alloc;
  Alcotest.(check (list int)) "param flows only to result 1" [ 0 ]
    (flows_to_return s ~param:0 ~ret:1);
  Alcotest.(check (list int)) "param does not flow to result 0" []
    (flows_to_return s ~param:0 ~ret:0)

let test_default_summary_shape () =
  let s = Summary.default ~name:"unknown" ~nparams:2 ~nresults:2 in
  Alcotest.(check int) "two flows" 2 (List.length s.Summary.s_flows);
  List.iter
    (fun f ->
      match f.Summary.pf_target with
      | `Heap -> ()
      | _ -> Alcotest.fail "default flows must target the heap")
    s.Summary.s_flows;
  Array.iter
    (fun ct ->
      Alcotest.(check bool) "conservative contents" true
        (ct.Summary.ct_heap_alloc && ct.Summary.ct_incomplete))
    s.Summary.s_contents

(* ---------------------------------------------------------------- *)
(* Serialization (§4.4 separate compilation): record round-trips      *)
(* ---------------------------------------------------------------- *)

let name_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      (* plain and qualified identifiers *)
      map2
        (fun a b -> Printf.sprintf "%s.%s" a b)
        (string_size ~gen:(char_range 'a' 'z') (1 -- 8))
        (string_size ~gen:(char_range 'A' 'Z') (1 -- 8));
      string_size ~gen:(char_range 'a' 'z') (1 -- 12);
      (* hostile names: quotes, delimiters, bytes past 0x7f *)
      return "has space";
      return "quo\"te\\slash";
      return "parens()\nand;comment";
      return "\000\255";
    ]

let summary_gen : Summary.t QCheck.Gen.t =
  let open QCheck.Gen in
  let target_gen =
    oneof
      [
        return `Heap;
        return `Defer;
        map (fun i -> `Return i) (0 -- 3);
        map2 (fun i f -> `Param_field (i, f)) (0 -- 3) (0 -- 5);
      ]
  in
  let flow_gen =
    map3
      (fun p t d -> { Summary.pf_param = p; pf_target = t; pf_derefs = d })
      (0 -- 3) target_gen (0 -- 4)
  in
  let content_gen =
    map3
      (fun h i r ->
        { Summary.ct_heap_alloc = h; ct_incomplete = i; ret_incomplete = r })
      bool bool bool
  in
  let field_gen =
    map3
      (fun (p, f) h (ci, si) ->
        { Summary.ff_param = p; ff_field = f; ff_heap = h;
          ff_content_incomplete = ci; ff_slot_incomplete = si })
      (pair (0 -- 3) (0 -- 5)) bool (pair bool bool)
  in
  map3
    (fun name (nparams, flows) (contents, fields) ->
      {
        Summary.s_name = name;
        s_nparams = nparams;
        s_flows = flows;
        s_contents = Array.of_list contents;
        s_fields = fields;
      })
    name_gen
    (pair (0 -- 4) (list_size (0 -- 6) flow_gen))
    (pair (list_size (0 -- 3) content_gen) (list_size (0 -- 2) field_gen))

let summary_arb =
  QCheck.make ~print:(Format.asprintf "%a" Summary.pp) summary_gen

let prop_summary_roundtrip =
  QCheck.Test.make ~count:500 ~name:"summary record round-trip identity"
    summary_arb (fun s ->
      match Codec.decode Summary.read (Summary.encode s) with
      | Ok s' -> s' = s
      | Error e -> QCheck.Test.fail_reportf "did not decode: %s" e)

let test_default_roundtrip () =
  let s = Summary.default ~name:"unknown.Fn" ~nparams:3 ~nresults:2 in
  match Codec.decode Summary.read (Summary.encode s) with
  | Ok s' ->
    Alcotest.(check bool) "default survives serialization" true (s' = s)
  | Error e -> Alcotest.failf "default did not decode: %s" e

let test_golden_summary_bytes () =
  let s =
    {
      Summary.s_name = "util.MakeRange";
      s_nparams = 1;
      s_flows =
        [ { Summary.pf_param = 0; pf_target = `Return 0; pf_derefs = 2 } ];
      s_contents =
        [|
          {
            Summary.ct_heap_alloc = true;
            ct_incomplete = false;
            ret_incomplete = false;
          };
        |];
      s_fields = [];
    }
  in
  (* name (string 0, 14 bytes), 1 param, one flow 0 -> return 0 with
     2 derefs, one content tag (true, false, false), no field facts;
     ints are zigzag varints *)
  Alcotest.(check string)
    "golden summary record"
    "\000\028util.MakeRange\002\002\000\000\000\004\002\002\000\000\000"
    (Summary.encode s);
  (* the unit keys digest these bytes: a changed tag changes them *)
  Alcotest.(check bool)
    "a changed weight changes the bytes" false
    (Summary.encode s
    = Summary.encode
        {
          s with
          Summary.s_flows =
            [ { Summary.pf_param = 0; pf_target = `Return 0; pf_derefs = 1 } ];
        })

let test_malformed_rejected () =
  let good =
    Summary.encode (Summary.default ~name:"f" ~nparams:1 ~nresults:1)
  in
  List.iter
    (fun (what, bad) ->
      match Codec.decode Summary.read bad with
      | Ok _ -> Alcotest.failf "accepted %s: %S" what bad
      | Error _ -> ())
    [
      ("empty input", "");
      ("a truncation", String.sub good 0 (String.length good - 1));
      ("a trailing byte", good ^ "\000");
      (* name "f", 1 param, one flow from param 0 to target code 9 *)
      ("an unknown flow target", "\000\002f\002\002\000\018\000\000\000");
      (* ... to the heap, then a content tag whose boolean is 2 *)
      ("a boolean that is neither 0 nor 1",
       "\000\002f\002\002\000\002\000\002\004\000\000\000");
      ("a string index never defined", "\006");
      ("a negative list length", "\000\002f\002\001");
    ]

let suite =
  [
    Alcotest.test_case "callees extraction" `Quick test_callees;
    Alcotest.test_case "SCC topological order" `Quick test_scc_order;
    Alcotest.test_case "mutual recursion grouped" `Quick
      test_scc_cycle_grouped;
    Alcotest.test_case "identity summary" `Quick test_identity_summary;
    Alcotest.test_case "deref summary weight" `Quick test_deref_summary;
    Alcotest.test_case "leak summary" `Quick test_leak_summary;
    Alcotest.test_case "pure reader summary" `Quick
      test_pure_reader_summary;
    Alcotest.test_case "per-return-value factory tags" `Quick
      test_second_return_only;
    Alcotest.test_case "default summary shape" `Quick
      test_default_summary_shape;
    QCheck_alcotest.to_alcotest prop_summary_roundtrip;
    Alcotest.test_case "default summary round-trip" `Quick
      test_default_roundtrip;
    Alcotest.test_case "golden summary bytes" `Quick test_golden_summary_bytes;
    Alcotest.test_case "malformed summaries rejected" `Quick
      test_malformed_rejected;
  ]
