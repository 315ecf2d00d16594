(** Type-checker tests: accepted programs, rejected programs, and the
    scope/loop-depth bookkeeping the escape analysis depends on. *)

open Minigo

let checks name src =
  Alcotest.test_case name `Quick (fun () ->
      match Helpers.parse_check src with
      | _ -> ()
      | exception Gofree_core.Pipeline.Compile_error msg ->
        Alcotest.failf "%s" msg)

let rejects name src =
  Alcotest.test_case name `Quick (fun () ->
      match Helpers.parse_check src with
      | exception Gofree_core.Pipeline.Compile_error msg ->
        if
          String.length msg < 10
          || not (String.sub msg 0 10 = "type error")
        then Alcotest.failf "expected a type error, got: %s" msg
      | _ -> Alcotest.failf "expected a type error")

let wrap body = "func main() {\n" ^ body ^ "\n}"

(* [body] inside main, after [m := make(map[int]T)] with T a struct *)
let map_of_structs body =
  "type T struct { x int }\nfunc main() {\nm := make(map[int]T)\n" ^ body
  ^ "\nprintln(m[1].x)\n}"

let find_var program func name =
  let f = Tast.find_func program func |> Option.get in
  let found = ref None in
  let check (v : Tast.var) =
    if String.equal v.Tast.v_name name then found := Some v
  in
  List.iter check f.Tast.f_params;
  Tast.iter_stmts
    (fun s ->
      match s with
      | Tast.Sdecl (v, _) -> check v
      | Tast.Smulti_decl (vs, _) -> List.iter check vs
      | _ -> ())
    f.Tast.f_body;
  match !found with
  | Some v -> v
  | None -> Alcotest.failf "variable %s not found in %s" name func

let test_depths () =
  let program =
    Helpers.parse_check
      {|
func f(p int) {
  a := 1
  {
    b := 2
    {
      c := b
      c++
    }
  }
  for i := 0; i < p; i++ {
    d := i
    for j := 0; j < d; j++ {
      e := j
      e++
    }
  }
  a++
}
func main() { f(3) }
|}
  in
  let depth n = (find_var program "f" n).Tast.v_decl_depth in
  let loop n = (find_var program "f" n).Tast.v_loop_depth in
  Alcotest.(check int) "param depth" 1 (depth "p");
  Alcotest.(check int) "a depth" 1 (depth "a");
  Alcotest.(check int) "b depth" 2 (depth "b");
  Alcotest.(check int) "c depth" 3 (depth "c");
  (* for-init variable lives in the implicit for scope *)
  Alcotest.(check int) "i depth" 2 (depth "i");
  Alcotest.(check int) "d depth" 3 (depth "d");
  Alcotest.(check int) "a loop depth" 0 (loop "a");
  Alcotest.(check int) "i loop depth" 1 (loop "i");
  Alcotest.(check int) "d loop depth" 1 (loop "d");
  Alcotest.(check int) "j loop depth" 2 (loop "j");
  Alcotest.(check int) "e loop depth" 2 (loop "e")

let test_unique_ids () =
  let program =
    Helpers.parse_check
      {|
func f() int {
  x := 1
  {
    x := 2
    x++
  }
  return x
}
func main() { println(f()) }
|}
  in
  (* shadowed x gets a distinct id; total variables allocated covers both *)
  Alcotest.(check bool) "at least 2 vars" true (program.Tast.p_nvars >= 2)

let test_sites () =
  let program =
    Helpers.parse_check
      (wrap
         {|
  s := make([]int, 10)
  m := make(map[string]int)
  p := new(int)
  s2 := append(s, 1)
  lit := []int{1, 2}
  println(len(s2), len(lit), len(m), *p)
|})
  in
  let kinds =
    List.map (fun s -> s.Tast.site_kind) program.Tast.p_sites
  in
  Alcotest.(check int) "five sites" 5 (List.length kinds);
  Alcotest.(check bool) "has slice site" true
    (List.mem Tast.Site_slice kinds);
  Alcotest.(check bool) "has map site" true (List.mem Tast.Site_map kinds);
  Alcotest.(check bool) "has new site" true (List.mem Tast.Site_new kinds);
  Alcotest.(check bool) "has append site" true
    (List.mem Tast.Site_append kinds);
  let slice_site =
    List.find (fun s -> s.Tast.site_kind = Tast.Site_slice) program.Tast.p_sites
  in
  Alcotest.(check (option int)) "const length" (Some 10)
    slice_site.Tast.site_const_len;
  Alcotest.(check int) "elem size" 8 slice_site.Tast.site_elem_size

let test_struct_sizes () =
  let program =
    Helpers.parse_check
      {|
type P struct {
  x int
  y int
  s []int
}
func main() {
  p := P{x: 1, y: 2, s: nil}
  println(p.x)
}
|}
  in
  Alcotest.(check int) "struct size" (8 + 8 + 24)
    (Types.size_of program.Tast.p_tenv (Types.Struct "P"))

let suite =
  [
    checks "arith and strings"
      (wrap "x := 1 + 2*3\ns := \"a\" + \"b\"\nprintln(x, s)");
    checks "comparisons" (wrap "b := 1 < 2 && \"a\" <= \"b\"\nprintln(b)");
    checks "nil comparisons"
      "func f(p *int) bool { return p == nil }\nfunc main() { println(f(nil)) }";
    checks "zero-value declarations"
      "type T struct { a int\n b string }\nfunc main() {\nvar x int\nvar s []int\nvar t T\nprintln(x, len(s), t.a)\n}";
    checks "multi return"
      "func f() (int, string) { return 1, \"x\" }\nfunc main() {\na, b := f()\nprintln(a, b)\n}";
    checks "swap assignment" (wrap "a := 1\nb := 2\na, b = b, a\nprintln(a, b)");
    checks "pointer chains"
      (wrap "x := 1\np := &x\npp := &p\n**pp = 3\nprintln(x)");
    checks "map ops"
      (wrap "m := make(map[string]int)\nm[\"a\"] = 1\nv := m[\"a\"]\ndelete(m, \"a\")\nprintln(v, len(m))");
    checks "builtins" (wrap "println(itoa(42), rand(10), substr(\"hello\", 1, 3))");
    rejects "undefined variable" (wrap "x := y");
    rejects "undefined function" (wrap "f()");
    rejects "type mismatch" (wrap "x := 1 + \"a\"");
    rejects "bad condition" (wrap "if 1 {\n}");
    rejects "redeclaration" (wrap "x := 1\nx := 2");
    rejects "wrong arity"
      "func f(a int) {}\nfunc main() { f(1, 2) }";
    rejects "wrong return count"
      "func f() (int, int) { return 1 }\nfunc main() {}";
    rejects "deref non-pointer" (wrap "x := 1\ny := *x\nprintln(y)");
    rejects "index non-indexable" (wrap "x := 1\ny := x[0]\nprintln(y)");
    rejects "unknown field"
      "type T struct { a int }\nfunc main() {\nt := T{a: 1}\nprintln(t.b)\n}";
    rejects "unknown struct" (wrap "t := Unknown{}");
    rejects "nil inference" (wrap "x := nil");
    rejects "recursive struct by value"
      "type T struct { next T }\nfunc main() {}";
    rejects "map key not scalar"
      "func main() {\nm := make(map[[]int]int)\nprintln(len(m))\n}";
    rejects "assign to expression" (wrap "1 + 2 = 3");
    rejects "multi-value in expression"
      "func f() (int, int) { return 1, 2 }\nfunc main() {\nx := f() + 1\nprintln(x)\n}";
    rejects "break outside a loop" (wrap "println(1)\nbreak");
    rejects "continue outside a loop" (wrap "if true {\ncontinue\n}");
    checks "break and continue in loops"
      (wrap
         "for i := 0; i < 3; i++ {\nif i == 1 {\ncontinue\n}\nbreak\n}\n\
          m := make(map[int]int)\nfor k := range m {\nprintln(k)\nbreak\n}");
    rejects "address of a map element"
      (wrap "m := make(map[int]int)\np := &m[1]\nprintln(*p)");
    rejects "assign to a map element's field"
      (map_of_structs "m[1].x = 5");
    rejects "address of a map element's field"
      (map_of_structs "p := &m[1].x\n*p = 7");
    rejects "increment a map element's field" (map_of_structs "m[1].x++");
    rejects "op-assign a map element's field" (map_of_structs "m[1].x += 2");
    rejects "assign to a nested field of a map element"
      "type I struct { x int }\ntype T struct { in I }\nfunc main() {\n\
       m := make(map[int]T)\nm[1].in.x = 5\n}";
    checks "assign through a map of pointers"
      "type T struct { x int }\nfunc main() {\nm := make(map[int]*T)\n\
       m[1] = &T{x: 1}\nm[1].x = 5\np := &m[1].x\n*p = 7\nm[1].x++\n\
       m[1].x += 2\nprintln(m[1].x)\n}";
    checks "address of a slice element"
      (wrap "s := make([]int, 2)\np := &s[1]\n*p = 3\nprintln(s[1])");
    Alcotest.test_case "decl and loop depths" `Quick test_depths;
    Alcotest.test_case "unique variable ids" `Quick test_unique_ids;
    Alcotest.test_case "allocation sites" `Quick test_sites;
    Alcotest.test_case "struct sizes" `Quick test_struct_sizes;
  ]
