(** Differential tests for the lowered execution engine: the bytecode
    VM must be observationally identical to the reference tree-walker —
    same program output, same step count, and the same runtime metrics
    down to the byte (alloc/free volumes, free ratio numerator and
    denominator, GC cycle count, maxheap, tcfree
    attempt/success/give-up counters).

    The two engines share the allocator/map/call helpers, so a
    divergence here means the lowering changed evaluation order or
    skipped/added a safepoint or allocation somewhere. *)

module Rt = Gofree_runtime
module W = Gofree_workloads.Workloads

let engines =
  [
    ("reference", Gofree_interp.Interp.Eng_reference);
    ("bytecode", Gofree_interp.Interp.Eng_bytecode);
  ]

let run_config ~engine ~config ~poison =
  {
    Gofree_interp.Interp.default_config with
    heap_config =
      {
        Rt.Heap.default_config with
        min_heap = 96 * 1024;  (* small heap: force real GC activity *)
        grow_map_free_old = config.Gofree_core.Config.insert_tcfree;
        poison_on_free = poison;
      };
    engine;
  }

let run_mode ~engine ?(config = Gofree_core.Config.gofree) ?(poison = false)
    src =
  Gofree_interp.Runner.compile_and_run ~gofree_config:config
    ~run_config:(run_config ~engine ~config ~poison)
    src

(* Metrics comparison via the JSON export (covers every counter,
   including per-category and per-giveup arrays), with the one
   wall-clock field normalized out. *)
let metrics_fingerprint (m : Rt.Metrics.t) : string =
  m.Rt.Metrics.gc_time_ns <- 0L;
  Gofree_obs.Json.to_string_pretty (Rt.Metrics.to_json m)

(* Run under every engine and require byte-identical observables,
   pairwise against the reference walker. *)
let check_identical ~name ?config src =
  let r_ref = run_mode ~engine:Gofree_interp.Interp.Eng_reference ?config src in
  List.iter
    (fun (ename, engine) ->
      if engine <> Gofree_interp.Interp.Eng_reference then begin
        let r_cmp = run_mode ~engine ?config src in
        Alcotest.(check string)
          (name ^ ": output (" ^ ename ^ ")")
          r_ref.Gofree_interp.Runner.output r_cmp.Gofree_interp.Runner.output;
        Alcotest.(check int)
          (name ^ ": steps (" ^ ename ^ ")")
          r_ref.Gofree_interp.Runner.steps r_cmp.Gofree_interp.Runner.steps;
        Alcotest.(check bool)
          (name ^ ": panicked (" ^ ename ^ ")")
          r_ref.Gofree_interp.Runner.panicked
          r_cmp.Gofree_interp.Runner.panicked;
        Alcotest.(check string)
          (name ^ ": metrics (" ^ ename ^ ")")
          (metrics_fingerprint r_ref.Gofree_interp.Runner.metrics)
          (metrics_fingerprint r_cmp.Gofree_interp.Runner.metrics)
      end)
    engines

(* ---- the six workload proxies -------------------------------------- *)

let test_workload (w : W.t) () =
  let size = max 10 (w.W.w_default_size / 5) in
  let src = W.source_of ~size w in
  check_identical ~name:w.W.w_name src;
  (* the Go setting exercises the no-tcfree configuration too *)
  check_identical ~name:(w.W.w_name ^ " (go)")
    ~config:Gofree_core.Config.go src

let workload_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case ("workload " ^ w.W.w_name) `Quick (test_workload w))
    W.all

(* ---- feature-dense programs ---------------------------------------- *)

(* Goroutines, defers and a cross-fiber map: exercises the scheduler
   interleaving, defer argument pinning and interned spawn targets. *)
let src_goroutines =
  {|
var results map[int]int

func worker(base int, n int) {
  s := make([]int, 0, 1)
  for i := 0; i < n; i = i + 1 {
    s = append(s, base*100+i)
  }
  total := 0
  for i := 0; i < len(s); i = i + 1 {
    total = total + s[i]
  }
  results[base] = total
}

func cleanup(tag int) {
  results[tag] = results[tag] + 1000000
}

func main() {
  results = make(map[int]int)
  defer cleanup(1)
  for g := 0; g < 4; g = g + 1 {
    go worker(g, 200)
  }
  spin := 0
  for i := 0; i < 2000; i = i + 1 {
    spin = spin + i
  }
  println(spin)
}
|}

(* Panic/recover through nested calls with defers on the unwind path. *)
let src_panic_recover =
  {|
func guard() string {
  msg := recover()
  println("recovered:", msg)
  return msg
}

func risky(n int) int {
  defer guard()
  buf := make([]int, 4)
  if n > 2 {
    panic("too big")
  }
  return buf[n]
}

func main() {
  println(risky(1))
  println(risky(5))
  println("done")
}
|}

(* Map churn with growth (GrowMapAndFreeOld), deletes and range. *)
let src_map_churn =
  {|
func main() {
  m := make(map[string]int)
  for i := 0; i < 300; i = i + 1 {
    m[itoa(i)] = i * 2
  }
  for i := 0; i < 150; i = i + 1 {
    delete(m, itoa(i*2))
  }
  sum := 0
  for k := range m {
    sum = sum + m[k]
  }
  println(len(m), sum)
}
|}

(* Struct/pointer traffic: nested field addresses, boxed locals, slices
   of structs — the eval_addr / owner-of-base corner cases, plus the
   bytecode engine's struct-field inline caches. *)
let src_structs =
  {|
type Point struct { x int; y int }
type Box struct { p Point; tag int }

func bump(pt *Point) {
  pt.x = pt.x + 1
}

func main() {
  boxes := make([]Box, 8)
  for i := 0; i < len(boxes); i = i + 1 {
    boxes[i] = Box{p: Point{x: i, y: i * 2}, tag: i}
  }
  for i := 0; i < len(boxes); i = i + 1 {
    bump(&boxes[i].p)
  }
  total := 0
  for i := 0; i < len(boxes); i = i + 1 {
    total = total + boxes[i].p.x + boxes[i].p.y
  }
  b := Box{p: Point{x: 1, y: 2}, tag: 9}
  q := &b.p
  q.y = 40
  println(total, b.p.y)
}
|}

(* Slices: literals, sub-slicing, copy, append growth and shrink. *)
let src_slices =
  {|
func main() {
  base := []int{1, 2, 3, 4, 5, 6, 7, 8}
  view := base[2:6]
  out := make([]int, len(view))
  n := copy(out, view)
  for i := 0; i < 50; i = i + 1 {
    out = append(out, i*i)
  }
  s := "hello world"
  sub := substr(s, 6, len(s))
  total := 0
  for i := 0; i < len(out); i = i + 1 {
    total = total + out[i]
  }
  println(n, total, sub, cap(out))
}
|}

(* Repeated same-key map reads with interleaved stores and deletes: the
   map-site inline cache's hit and invalidation paths must not change
   what a lookup observes. *)
let src_ic_invalidation =
  {|
func main() {
  m := make(map[string]int)
  m["hot"] = 1
  total := 0
  for i := 0; i < 100; i = i + 1 {
    total = total + m["hot"]
    if i == 30 {
      m["hot"] = 7
    }
    if i == 60 {
      delete(m, "hot")
    }
    if i == 80 {
      m["hot"] = 3
    }
  }
  for i := 0; i < 40; i = i + 1 {
    m[itoa(i)] = i
    total = total + m["hot"]
  }
  println(total, len(m))
}
|}

(* The forms that no other program the suite lowers emits (see
   {!opcode_coverage_cases}): bitwise ops and a subtraction on the int
   stack, a compare and [||] in value context, a bool global and an
   address-taken bool local, a float negation, a [[]bool] element, a
   [map[string]bool] read, comma-ok, [new], the address of a global and
   a [break] out of a map range. *)
let src_rare_forms =
  {|
var flag bool
var counter int

type Pt struct {
  x int
  y int
}

func main() {
  xs := []int{12, 5, 3}
  a := xs[0]
  b := xs[1]
  println(xs[0]-xs[1], a&b, a|b, a^b, a>>xs[2])
  lt := a < xs[1]
  ge := a >= xs[2]
  either := lt || ge
  println(lt, ge, either)
  flag = xs[1] < xs[2]
  if flag || xs[0] > 10 {
    println("flag", flag)
  }
  ok := false
  pb := &ok
  ok = a > b
  println(*pb)
  pg := &counter
  *pg = 7
  println(counter)
  f := 1.5
  g := -f
  println(g)
  bs := []bool{true, false}
  if bs[1] {
    println("bs1")
  }
  mb := make(map[string]bool)
  mb["x"] = true
  if mb["x"] {
    println("mb")
  }
  m := make(map[int]int)
  m[1] = 10
  m[2] = 20
  m[3] = 30
  v, found := m[2]
  println(v, found)
  p := new(Pt)
  p.x = 3
  println(p.x)
  n := 0
  for k := range m {
    n = n + k
    if n > 0 {
      break
    }
  }
  println(n > 0)
}
|}

let feature_cases =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Quick (fun () ->
          check_identical ~name src;
          check_identical ~name:(name ^ " (go)")
            ~config:Gofree_core.Config.go src))
    [
      ("goroutines+defer", src_goroutines);
      ("panic+recover", src_panic_recover);
      ("map churn", src_map_churn);
      ("structs+pointers", src_structs);
      ("slices", src_slices);
      ("ic invalidation", src_ic_invalidation);
      ("rare forms", src_rare_forms);
    ]

(* ---- register locals and scope elision ---------------------------- *)

(* The bytecode emitter keeps some int/bool locals in registers instead
   of frame cells, and leaves out the scope of any block that cannot
   stack-allocate.  These programs sit on the edges of both rules: each
   must stay identical to the reference walker, read no freed memory
   under the poison heap, and (checked on the listing) really take the
   path it is written for. *)

(* Under the §6.8 poison heap every engine prints what the plain
   reference run printed and reads no freed memory. *)
let check_poison_silent ~name src =
  let expected =
    (run_mode ~engine:Gofree_interp.Interp.Eng_reference src)
      .Gofree_interp.Runner.output
  in
  List.iter
    (fun (ename, engine) ->
      match run_mode ~engine ~poison:true src with
      | r ->
        Alcotest.(check string)
          (name ^ ": poison output (" ^ ename ^ ")")
          expected r.Gofree_interp.Runner.output;
        Alcotest.(check int)
          (name ^ ": poison reads (" ^ ename ^ ")")
          0 r.Gofree_interp.Runner.metrics.Rt.Metrics.poison_reads
      | exception Gofree_interp.Value.Corruption msg ->
        Alcotest.failf "%s (%s) read freed memory: %s" name ename msg)
    engines

(* The listing lines of one function in the program's disassembly. *)
let listing src fname =
  match Gofree_api.disassemble_string src with
  | Error e -> Alcotest.fail (Gofree_api.error_message e)
  | Ok s ->
    let header = "func " ^ fname ^ ":" in
    let rec until_blank = function
      | [] | "" :: _ -> []
      | l :: rest -> l :: until_blank rest
    in
    let rec find = function
      | [] -> Alcotest.failf "no function %s in the listing" fname
      | l :: rest when String.starts_with ~prefix:header l ->
        until_blank rest
      | _ :: rest -> find rest
    in
    find (String.split_on_char '\n' s)

let opcode line =
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | _pc :: op :: _ -> op
  | _ -> ""

(* What the listing must show: a local held in a register or in a frame
   cell, or how many scopes a function opens. *)
type fact =
  | Reg of string * string
  | Cell of string * string
  | Scopes of string * int

let check_emitted ~name src facts =
  List.iter
    (fun fact ->
      match fact with
      | Scopes (fn, n) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: scopes opened in %s" name fn)
          n
          (List.length
             (List.filter
                (fun l -> opcode l = "push_scope")
                (listing src fn)))
      | Reg (fn, v) | Cell (fn, v) ->
        (* read or written through its register: [rload]/[rstore]/
           [rinc], or a register-operand form naming it alone *)
        let in_reg =
          List.exists
            (fun l ->
              List.mem (opcode l)
                [ "rload"; "rstore"; "rinc"; "add_r"; "sub_r"; "addk_r";
                  "mulk_r"; "modk_r"; "jlt_rk_not";
                  "jle_rk_not"; "jgt_rk_not"; "jge_rk_not"; "jeq_rk_not";
                  "jne_rk_not" ]
              && String.ends_with ~suffix:("; " ^ v) l)
            (listing src fn)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s.%s in a register" name fn v)
          (match fact with Reg _ -> true | _ -> false)
          in_reg)
    facts

let src_registers =
  {|
type Point struct { x int; y int }
type Box struct { p Point; tag int }

var results map[int]int

func pair(n int) (int, bool) {
  return n * 2, n%2 == 0
}

// i is address-taken: a frame cell; k is a register
func addrTaken(n int) int {
  i := 0
  p := &i
  for k := 0; k < n; k = k + 1 {
    *p = *p + k
    i = i + 1
  }
  return i
}

// int and bool locals shadowed in nested blocks
func shadow(n int) int {
  x := 1
  ok := true
  total := 0
  for k := 0; k < n; k = k + 1 {
    x := k * 3
    ok := x%2 == 0
    if ok {
      x := x + 100
      total = total + x
    } else {
      ok := !ok
      if ok {
        total = total - x
      }
    }
  }
  if ok {
    total = total + x
  }
  return total
}

// a and b take a multi-value call: frame cells, like c and d
func multi(n int) int {
  a := 0
  b := false
  s := 0
  for k := 0; k < n; k = k + 1 {
    a, b = pair(k)
    if b {
      s = s + a
    }
    c, d := pair(a + k)
    if d {
      s = s + c
    }
  }
  return s
}

// locals declared afresh on every iteration, with and without init
func redeclare(n int) int {
  s := 0
  for k := 0; k < n; k = k + 1 {
    v := k
    var w int
    var flag bool
    if k%4 == 0 {
      flag = true
    }
    w = w + v
    if flag {
      s = s + w
    }
    v = v + 1
  }
  return s
}

func record(tag int, v int, ok bool) {
  if ok {
    results[tag] = results[tag] + v
  }
}

// register locals as go and defer arguments
func spawn(n int) int {
  total := 0
  ok := true
  for k := 0; k < n; k = k + 1 {
    total = total + k
    go record(k, total, ok)
    ok = !ok
  }
  defer record(99, total, ok)
  return total
}

// a nested struct-field address spine (b.p.x, &b.p.y) is bytecode like
// any other lvalue, so s and k are registers here too
func spine(n int) int {
  b := Box{p: Point{x: 1, y: 2}, tag: 3}
  s := 0
  for k := 0; k < n; k = k + 1 {
    b.p.x = b.p.x + k
    s = s + b.p.x
  }
  q := &b.p.y
  *q = s
  return b.p.y + s
}

func main() {
  results = make(map[int]int)
  println(addrTaken(20), shadow(30), multi(25), redeclare(40), spine(15))
  println(spawn(10))
  spin := 0
  for i := 0; i < 3000; i = i + 1 {
    spin = spin + i
  }
  for k := 0; k < 10; k = k + 1 {
    println(k, results[k])
  }
  println(spin, results[99])
}
|}

let src_scopes =
  {|
func guard() string {
  msg := recover()
  println("recovered:", msg)
  return msg
}

// break and continue leave elided if-blocks inside scoped loop bodies
// (tmp is a stack slice) and elided blocks inside elided ones
func nested(n int) int {
  keep := make([]int, 4)
  total := 0
  for i := 0; i < n; i = i + 1 {
    if i%5 == 0 {
      continue
    }
    for j := 0; j < 3; j = j + 1 {
      tmp := make([]int, 2)
      tmp[0] = i + j
      if tmp[0] > 20 {
        break
      }
      if j == 1 {
        continue
      }
      total = total + tmp[0]
    }
    {
      if i > 40 {
        break
      }
    }
    keep[i%4] = keep[i%4] + i
  }
  return total + keep[0] + keep[1] + keep[2] + keep[3]
}

// return from an elided loop while the function body holds buf
func early(n int) int {
  buf := make([]int, 3)
  for i := 0; i < n; i = i + 1 {
    buf[i%3] = buf[i%3] + i
    if i == 9 {
      return buf[0] + buf[1] + buf[2]
    }
  }
  return -1
}

// a panic unwinds out of an elided loop body; buf's scope is open
func unwind(n int) int {
  defer guard()
  buf := make([]int, 8)
  s := 0
  for i := 0; i < n; i = i + 1 {
    s = s + i
    buf[i%8] = s
    if i == 7 {
      panic("stop")
    }
  }
  return s + buf[0]
}

func main() {
  println(nested(60), early(20))
  println(unwind(5))
  println(unwind(20))
  println("done")
}
|}

(* Goroutines whose bodies run on register locals. *)
let src_register_goroutines =
  {|
var out map[int]int

func worker(id int, n int) {
  acc := 0
  odd := false
  for i := 0; i < n; i = i + 1 {
    acc = acc + i*id
    odd = !odd
    if odd {
      acc = acc + 1
    }
  }
  out[id] = acc
}

func main() {
  out = make(map[int]int)
  for g := 0; g < 6; g = g + 1 {
    go worker(g, 300)
  }
  spin := 0
  for i := 0; i < 5000; i = i + 1 {
    spin = spin + i
  }
  total := 0
  for g := 0; g < 6; g = g + 1 {
    total = total + out[g]
  }
  println(spin, total)
}
|}

(* Each engine runs deterministically on the default single domain:
   two runs are byte-identical. *)
let check_repeatable ~name src =
  List.iter
    (fun (ename, engine) ->
      let seq = run_mode ~engine src in
      let par = run_mode ~engine src in
      let label what =
        Printf.sprintf "%s: %s of a repeated run (%s)" name what ename
      in
      Alcotest.(check string)
        (label "output")
        seq.Gofree_interp.Runner.output par.Gofree_interp.Runner.output;
      Alcotest.(check int)
        (label "steps")
        seq.Gofree_interp.Runner.steps par.Gofree_interp.Runner.steps;
      Alcotest.(check string)
        (label "metrics")
        (metrics_fingerprint seq.Gofree_interp.Runner.metrics)
        (metrics_fingerprint par.Gofree_interp.Runner.metrics))
    engines

let storage_cases =
  let case name src ~emitted =
    Alcotest.test_case name `Quick (fun () ->
        check_emitted ~name src emitted;
        check_identical ~name src;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src;
        check_poison_silent ~name src;
        check_repeatable ~name src)
  in
  [
    case "register locals" src_registers
      ~emitted:
        [ Cell ("addrTaken", "i"); Reg ("addrTaken", "k");
          Reg ("shadow", "x"); Reg ("shadow", "ok"); Cell ("multi", "a");
          Cell ("multi", "b"); Cell ("multi", "c"); Reg ("multi", "s");
          Reg ("redeclare", "w"); Reg ("redeclare", "flag");
          Reg ("spawn", "total"); Reg ("spawn", "ok"); Reg ("spine", "s");
          Reg ("spine", "k") ];
    case "scope elision" src_scopes
      ~emitted:
        [ Scopes ("nested", 7); Scopes ("early", 1); Scopes ("unwind", 1);
          Scopes ("guard", 0) ];
    case "register locals under goroutines" src_register_goroutines
      ~emitted:
        [ Scopes ("worker", 0); Reg ("worker", "acc"); Reg ("worker", "odd") ];
  ]

(* ---- slice aliasing ------------------------------------------------ *)

(* Slice elements live directly in one backing array and a pointer is
   (array, index), so every view, element pointer and field pointer must
   alias exactly the storage Go says it does: sub-slices share elements,
   a pointer taken before a reallocating append keeps writing the old
   array while an in-capacity append shares it, each element of
   [make([]P, n)] is its own struct, and [copy] between overlapping
   views behaves like memmove in both directions. *)
let src_aliasing =
  {|
type P struct { x int; y int }

func views() {
  s := make([]int, 4)
  t := s[1:]
  println(&t[0] == &s[1], &s[0] == &s[1])
  t[0] = 7
  p := &t[2]
  *p = 5
  println(s[1], s[3], s)
}

func grow() {
  s := make([]int, 2, 2)
  p := &s[0]
  s2 := append(s, 5)
  *p = 9
  println(s[0], s2[0], len(s2), &s2[0] == p)
  u := make([]int, 1, 4)
  q := &u[0]
  u2 := append(u, 3)
  *q = 6
  println(u[0], u2[0], u2[1], &u2[0] == q)
}

func fields() {
  ps := make([]P, 3)
  ps[0].x = 5
  f := &ps[1].y
  *f = 8
  ps[2] = P{x: 1, y: 2}
  g := &ps[2].x
  *g = *g + 10
  println(ps[0].x, ps[0].y, ps[1].x, ps[1].y, ps[2].x, ps[2].y)
}

func zeros() {
  ps := make([]P, 4)
  ps[0].x = 3
  ps[2].y = 4
  println(ps[0].x, ps[1].x, ps[2].x, ps[3].x, ps[0].y, ps[1].y, ps[2].y)
}

func overlap() {
  a := []int{1, 2, 3, 4, 5, 6}
  n := copy(a[1:], a[0:5])
  println(n, a)
  b := []int{1, 2, 3, 4, 5, 6}
  m := copy(b[0:5], b[1:])
  println(m, b)
}

func main() {
  views()
  grow()
  fields()
  zeros()
  overlap()
}
|}

let aliasing_expected =
  "true false\n7 5 [0 7 0 5]\n9 0 3 false\n6 6 3 true\n5 0 0 8 11 2\n\
   3 0 0 0 0 0 4\n5 [1 1 2 3 4 5]\n5 [2 3 4 5 6 6]\n"

let aliasing_cases =
  [
    Alcotest.test_case "slice aliasing" `Quick (fun () ->
        let name = "slice aliasing" in
        List.iter
          (fun (ename, engine) ->
            Alcotest.(check string)
              (name ^ ": output (" ^ ename ^ ")")
              aliasing_expected
              (run_mode ~engine src_aliasing).Gofree_interp.Runner.output)
          engines;
        check_identical ~name src_aliasing;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src_aliasing;
        check_poison_silent ~name src_aliasing);
  ]

(* ---- struct-value field addresses --------------------------------- *)

(* The address of a field of a struct value that is neither a variable
   nor behind a pointer ([&mk(n)[i].p.x], [get(n).q.p.y = v]) takes its
   cells from the base's value and then evaluates the base's owner
   spine a second time: an index spine re-evaluates only the indexed
   slice, a pointer field or deref re-evaluates the pointer.  Every call
   below counts itself and allocates, so both the printed call count
   and the alloc metrics pin that double evaluation. *)
let src_struct_addr =
  {|
type Point struct { x int; y int }
type Box struct { p Point; tag int }
type Outer struct { q Box; n int }

var calls int

func mk(n int) []Box {
  calls = calls + 1
  bs := make([]Box, n)
  for i := 0; i < n; i = i + 1 {
    bs[i].p.x = i
    bs[i].tag = calls
  }
  return bs
}

func get(n int) *Outer {
  calls = calls + 1
  return &Outer{q: Box{p: Point{x: n, y: n * 2}, tag: calls}, n: n}
}

func bump() int {
  calls = calls + 1
  return calls / 6 % 3
}

func main() {
  xs := make([]Box, 3)
  keep := make([]int, 0)
  sum := 0
  for r := 0; r < 400; r = r + 1 {
    i := r % 4
    p := &mk(4 + r%3)[i].p.x
    *p = *p + 100
    sum = sum + *p
    get(r).q.p.y = r
    o := get(r)
    o.q.p.y = o.q.p.y + 1
    sum = sum + o.q.p.y
    xs[bump()].p.y = r
    q := &xs[r%3].p.x
    *q = *q + r
    keep = append(keep, *p, *q)
  }
  println(calls, sum, len(keep), xs[0].p.x, xs[1].p.y, xs[2].p.x)
}
|}

let struct_addr_expected = "2400 200600 800 26733 399 26600\n"

let struct_addr_cases =
  [
    Alcotest.test_case "struct-value addresses" `Quick (fun () ->
        let name = "struct-value addresses" in
        List.iter
          (fun (ename, engine) ->
            Alcotest.(check string)
              (name ^ ": output (" ^ ename ^ ")")
              struct_addr_expected
              (run_mode ~engine src_struct_addr).Gofree_interp.Runner.output)
          engines;
        check_identical ~name src_struct_addr;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src_struct_addr;
        check_poison_silent ~name src_struct_addr;
        check_repeatable ~name src_struct_addr);
  ]

(* ---- the call protocol -------------------------------------------- *)

(* A VM-to-VM call binds its arguments straight from the caller's
   operand stack and returns its results from the dispatch loop; only a
   panic unwinds by exception.  These programs take every exit a call
   can take: a panic through three frames with pending defers and a
   recover in the outermost, one, two and three results, a return from
   inside a map range loop and from blocks holding stack objects,
   falling off the end of a function with results, and recursion deep
   enough to grow the pooled operand stacks many times. *)
let src_calls =
  {|
var trail []int

func note(tag int) {
  trail = append(trail, tag)
}

func guard(tag int) {
  msg := recover()
  if msg != "" {
    println("recovered", tag, msg)
  }
}

// panics two calls down; every frame on the way has a pending defer
func level3(n int) int {
  defer note(3)
  buf := make([]int, 4)
  buf[0] = n
  if n%3 == 0 {
    panic("deep " + itoa(n))
  }
  return buf[0] * 2
}

func level2(n int) int {
  defer note(2)
  keep := make([]int, 2)
  keep[1] = level3(n)
  return keep[1] + 1
}

func level1(n int) int {
  defer guard(1)
  defer note(1)
  return level2(n) + 1
}

func divmod(a int, b int) (int, int, bool) {
  if b == 0 {
    return 0, 0, false
  }
  return a / b, a % b, true
}

func swap(a int, b int) (int, int) {
  q, r, ok := divmod(a, b)
  if !ok {
    return b, a
  }
  return r, q
}

// return from inside a range loop, with a stack slice live
func findKey(m map[int]int, want int) int {
  seen := make([]int, 1)
  for k := range m {
    seen[0] = seen[0] + 1
    if m[k] == want {
      return k*1000 + seen[0]
    }
  }
  return -1
}

// return from nested blocks that hold stack-allocated objects
func nestedReturn(n int) int {
  outer := make([]int, 3)
  outer[0] = n
  for i := 0; i < 10; i = i + 1 {
    inner := make([]int, 2)
    inner[0] = i
    if i == n {
      tmp := make([]int, 2)
      tmp[1] = inner[0] + outer[0]
      return tmp[1]
    }
  }
  return outer[0]
}

// no return on the n <= 0 path: the zero values come back
func fallOff(n int) (int, string) {
  if n > 0 {
    return n, "pos"
  }
}

func fallOne(n int) []int {
  if n > 0 {
    return make([]int, n)
  }
}

func sumTo(n int, tag string) (int, string) {
  if n == 0 {
    return 0, tag
  }
  s, t := sumTo(n-1, tag)
  return s + n, t
}

func main() {
  trail = make([]int, 0)
  for i := 1; i <= 7; i = i + 1 {
    println("level1", i, level1(i))
  }
  println(len(trail), trail[0], trail[len(trail)-1])
  a, b := swap(17, 5)
  c, d := swap(3, 0)
  q, r, ok := divmod(100, 7)
  println(a, b, c, d, q, r, ok)
  m := make(map[int]int)
  for i := 0; i < 50; i = i + 1 {
    m[i*3] = i
  }
  println(findKey(m, 17), findKey(m, 99))
  println(nestedReturn(4), nestedReturn(20))
  x, y := fallOff(5)
  z, w := fallOff(-1)
  println(x, y, z, w == "", len(fallOne(3)), fallOne(0) == nil)
  s, t := sumTo(3000, "deep")
  println(s, t)
}
|}

let calls_expected =
  "level1 1 4\n\
   level1 2 6\n\
   recovered 1 deep 3\n\
   level1 3 0\n\
   level1 4 10\n\
   level1 5 12\n\
   recovered 1 deep 6\n\
   level1 6 0\n\
   level1 7 16\n\
   21 3 1\n\
   2 3 0 3 14 2 true\n\
   51025 -1\n\
   8 20\n\
   5 pos 0 true 3 true\n\
   4501500 deep\n"

let call_cases =
  [
    Alcotest.test_case "call protocol" `Quick (fun () ->
        let name = "call protocol" in
        List.iter
          (fun (ename, engine) ->
            Alcotest.(check string)
              (name ^ ": output (" ^ ename ^ ")")
              calls_expected
              (run_mode ~engine src_calls).Gofree_interp.Runner.output)
          engines;
        check_identical ~name src_calls;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src_calls;
        check_poison_silent ~name src_calls);
  ]

(* ---- map iteration order ------------------------------------------- *)

(* [for k := range m] visits buckets in index order and each bucket
   newest entry first, and growth rehashes in that order.  The golden
   output was captured before maps moved to flat buckets, its bool,
   string, slice and struct-valued maps before the buckets took typed
   columns; every engine, under GoFree and stock Go, with and without
   the poison heap, must keep reproducing it — the last line reads
   through a map right after each growth that freed its old buckets. *)
let range_order_cases =
  [
    Alcotest.test_case "map range order (golden)" `Quick (fun () ->
        let name = "map range order" in
        let golden name = Test_disasm.read_file (Test_disasm.golden name) in
        let src = golden "map_range_order.go" in
        let expected = golden "map_range_order.out" in
        List.iter
          (fun (ename, engine) ->
            List.iter
              (fun (cname, config) ->
                List.iter
                  (fun poison ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s: %s %s%s" name ename cname
                         (if poison then " poison" else ""))
                      expected
                      (run_mode ~engine ~config ~poison src)
                        .Gofree_interp.Runner.output)
                  [ false; true ])
              [ ("gofree", Gofree_core.Config.gofree);
                ("go", Gofree_core.Config.go) ])
          engines;
        check_identical ~name src);
  ]

(* ---- two programs at once ------------------------------------------ *)

(* Everything a run needs travels with the run — the program table in
   its state's dispatch closure, the operand stacks in its goroutines —
   so two different programs running at the same time on two domains of
   one process each get their own output and metrics. *)
let concurrent_cases =
  [
    Alcotest.test_case "two programs at once" `Quick (fun () ->
        let config = Gofree_core.Config.gofree in
        let run compiled =
          (* a run executing the other program's code fails fast *)
          let rc =
            run_config ~engine:Gofree_interp.Interp.Eng_bytecode ~config
              ~poison:false
          in
          match
            Gofree_interp.Runner.run
              ~config:{ rc with Gofree_interp.Interp.max_steps = 5_000_000 }
              compiled
          with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e)
        in
        let progs =
          [| ("calls", src_calls); ("goroutines", src_goroutines) |]
        in
        let compiled =
          Array.map
            (fun (_, src) -> Gofree_core.Pipeline.compile ~config src)
            progs
        in
        let solo =
          Array.map
            (fun c ->
              match run c with
              | Ok r -> r
              | Error e -> Alcotest.failf "solo run failed: %s" e)
            compiled
        in
        (* each round starts both runs together, so both programs are
           lowered, installed and running at the same time *)
        let arrived = Atomic.make 0 in
        let together =
          Array.map
            (fun c ->
              Domain.spawn (fun () ->
                  List.init 3 (fun round ->
                      Atomic.incr arrived;
                      while Atomic.get arrived < 2 * (round + 1) do
                        Domain.cpu_relax ()
                      done;
                      run c)))
            compiled
        in
        let results = Array.map Domain.join together in
        Array.iteri
          (fun i runs ->
            let name = fst progs.(i) in
            List.iter
              (function
                | Error e ->
                  Alcotest.failf "%s beside another program: %s" name e
                | Ok (r : Gofree_interp.Runner.result) ->
                  Alcotest.(check string)
                    (name ^ ": output beside another program")
                    solo.(i).Gofree_interp.Runner.output
                    r.Gofree_interp.Runner.output;
                  Alcotest.(check string)
                    (name ^ ": metrics beside another program")
                    (metrics_fingerprint
                       solo.(i).Gofree_interp.Runner.metrics)
                    (metrics_fingerprint r.Gofree_interp.Runner.metrics))
              runs)
          results);
  ]

(* ---- loop and indexing superinstructions -------------------------- *)

(* The emitter fuses a counted loop's back edge ([loop_rinc], or a
   rotated [loop_lt_*] that re-tests the condition), [i < j] and
   [i < len(x)] ([jlt_rr_not], [jlt_rlen_not]), slot-indexed int reads
   and stores ([index_i_sr], [store_i_sr]) and runs of
   statement safepoints ([safepoints n]).  Each fused form must perform
   exactly the safepoints of the sequence it replaces, so besides the
   output and metrics the sampled series (one sample every few steps)
   must match step for step, and a small [yield_every] makes the
   goroutine switches land inside the fused instructions. *)

let sampled_run ~engine ~yield_every ~sample_every src =
  let config = Gofree_core.Config.gofree in
  let run_config =
    {
      (run_config ~engine ~config ~poison:false) with
      Gofree_interp.Interp.yield_every;
      sample_every;
    }
  in
  Gofree_interp.Runner.compile_and_run ~gofree_config:config ~run_config src

(* The sampled series without its wall-clock field. *)
let series (r : Gofree_interp.Runner.result) =
  match r.Gofree_interp.Runner.sampler with
  | None -> Alcotest.fail "no sampled series"
  | Some s ->
    List.map
      (fun (x : Rt.Sampler.sample) ->
        Printf.sprintf "%d %d %d %d %d %d" x.Rt.Sampler.sm_step
          x.Rt.Sampler.sm_heap_live x.Rt.Sampler.sm_span_bytes
          x.Rt.Sampler.sm_gc_cycles x.Rt.Sampler.sm_alloced_bytes
          x.Rt.Sampler.sm_freed_bytes)
      (Rt.Sampler.samples s)

let check_sampled_identical ~name ?(yield_every = 512) ?(sample_every = 7)
    src =
  let run engine = sampled_run ~engine ~yield_every ~sample_every src in
  let r_ref = run Gofree_interp.Interp.Eng_reference in
  let r_vm = run Gofree_interp.Interp.Eng_bytecode in
  let label what =
    Printf.sprintf "%s: %s (yield_every %d, sample_every %d)" name what
      yield_every sample_every
  in
  Alcotest.(check string)
    (label "output") r_ref.Gofree_interp.Runner.output
    r_vm.Gofree_interp.Runner.output;
  Alcotest.(check int)
    (label "steps") r_ref.Gofree_interp.Runner.steps
    r_vm.Gofree_interp.Runner.steps;
  Alcotest.(check string)
    (label "metrics")
    (metrics_fingerprint r_ref.Gofree_interp.Runner.metrics)
    (metrics_fingerprint r_vm.Gofree_interp.Runner.metrics);
  Alcotest.(check (list string))
    (label "sampled series") (series r_ref) (series r_vm)

(* The opcodes a function's listing must contain. *)
let check_fused ~name src expected =
  List.iter
    (fun (fn, op) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s emits %s" name fn op)
        true
        (List.exists (fun l -> opcode l = op) (listing src fn)))
    expected

let src_fused_loops =
  {|
// continue jumps to the fused back edge
func skip(n int) int {
  total := 0
  for i := 0; i < n; i++ {
    if i%3 == 0 {
      continue
    }
    total += i
  }
  return total
}

// i-- and i += 3 back edges, register-register conditions
func steps(n int) int {
  s := 0
  for i := n; i > 0; i-- {
    s += i
  }
  m := n * 2
  for i := 0; i < m; i += 3 {
    s = s*3 + i
  }
  lo := n / 2
  for i := m; i >= lo; i -= 2 {
    s -= i
  }
  k := 4
  for i := 0; i != k; i++ {
    s += k
  }
  return s
}

// i < len(x) over a string, a map that grows, a nil slice and a slice
// the body reassigns
func lens(n int) int {
  s := 0
  str := "fused"
  for i := 0; i < len(str); i++ {
    s += str[i]
  }
  m := make(map[int]int)
  m[0] = 1
  for i := 0; i < len(m); i++ {
    if i < n {
      m[i+1] = i
    }
    s += i
  }
  var ns []int
  for i := 0; i < len(ns); i++ {
    s += 1000
  }
  xs := make([]int, 2)
  for i := 0; i < len(xs); i++ {
    if len(xs) < n {
      xs = append(xs, i)
    }
    xs[i] = xs[i] + i*2
    s += xs[i]
  }
  return s
}

// a loop with no condition, and statements that open with a run of
// safepoints
func forever(n int) int {
  c := 0
  for i := 0; ; i++ {
    {
      {
        c += i
      }
    }
    if i == n {
      break
    }
  }
  return c
}

// && in a loop condition and in an if: each operand branches on its
// own, the right one only when the left one held
func scan(n int) int {
  xs := make([]int, n)
  for i := 0; i < n; i++ {
    xs[i] = (i * 7) % 5
  }
  c := 0
  for i := 0; i < len(xs) && xs[i] != 4; i++ {
    c++
  }
  for i := 0; i < n; i++ {
    if xs[i] > 0 && c > 1 && i%2 == 0 {
      c += xs[i]
    }
  }
  return c
}

func main() {
  println(skip(40), steps(30), lens(9), forever(25), scan(12))
}
|}

let src_fused_panics =
  {|
func guard() {
  msg := recover()
  println("recovered:", msg)
}

func readPast(n int) int {
  defer guard()
  s := make([]int, 3)
  t := 0
  for i := 0; i < n; i++ {
    t += s[i]
  }
  return t
}

func writePast(n int) int {
  defer guard()
  s := make([]int, 3)
  for i := 0; i < n; i++ {
    s[i] = i
  }
  return s[2]
}

func writePastStr(n int) string {
  defer guard()
  s := make([]string, 3)
  for i := 0; i < n; i++ {
    s[i] = "w"
  }
  return s[2]
}

func readNil() int {
  defer guard()
  var s []int
  i := 0
  return s[i]
}

func writeNil() int {
  defer guard()
  var s []int
  i := 1
  s[i] = 5
  return 1
}

func below() int {
  defer guard()
  s := make([]int, 4)
  i := -1
  s[i] = 2
  return 0
}

func main() {
  println(readPast(2), readPast(5))
  println(writePast(3), writePast(4))
  println(writePastStr(3), writePastStr(4))
  println(readNil(), writeNil(), below())
}
|}

let src_fused_goroutines =
  {|
var out map[int]int

func worker(id int, xs []int) {
  acc := 0
  for i := 0; i < len(xs); i++ {
    xs[i] = xs[i] + id
    acc += xs[i]
  }
  n := id + 5
  for j := 0; j < n; j++ {
    {
      acc += j
    }
  }
  out[id] = acc
}

func main() {
  out = make(map[int]int)
  for g := 0; g < 5; g++ {
    xs := make([]int, 40+g)
    go worker(g, xs)
  }
  total := 0
  for g := 0; g < 5; g++ {
    total += out[g]
  }
  println(total, len(out))
}
|}

(* The field-operand forms read fields of a frame local in place:
   [p.pos < len(p.input)], [p.input[p.pos]], [len(p.input)] and
   [p.pos = p.pos + k] through a pointer, the same reads on a struct
   value with an int-slice and a map field, and the nil-pointer and index
   panics of the reads they fuse.  [@p]/[@s] are the bases of the reads and [@P]/[@S] each
   function's first statement: {!field_operands} gives the locals
   themselves, which fuse, and {!field_operands_unfused} globals holding
   the same pointer or struct, which do not. *)
let src_field_operands =
  {|
type Scanner struct {
  input string
  pos   int
  ints  []int
  tags  map[string]int
}

var gp *Scanner
var gv Scanner

func guard() {
  msg := recover()
  println("recovered:", msg)
}

func scan(p *Scanner) int {
  @P
  n := 0
  for @p.pos < len(@p.input) && @p.input[@p.pos] != 59 {
    n = n*3 + @p.input[@p.pos]
    @p.pos = @p.pos + 1
  }
  if @p.pos >= len(@p.input) {
    return n
  }
  return -n
}

func local(s Scanner) int {
  @S
  t := 0
  for @s.pos < len(@s.ints) {
    t = t + @s.ints[@s.pos] + len(@s.tags)
    @s.pos = @s.pos + 1
  }
  return t + len(@s.input)
}

func broken(p *Scanner, k int) int {
  defer guard()
  @P
  if k == 0 {
    return len(@p.input)
  }
  if k == 1 {
    for @p.pos < len(@p.input) {
      @p.pos = 2 + @p.pos
      @p.pos = @p.pos - 1
    }
    return 0
  }
  @p.pos = len(@p.input) + k
  return @p.input[@p.pos]
}

func main() {
  a := &Scanner{input: "abc;def", pos: 0}
  b := &Scanner{input: "xyz", pos: 1}
  println(scan(a), a.pos, scan(b), b.pos)
  m := make(map[string]int)
  m["k"] = 1
  ints := []int{5, 6, 7}
  println(local(Scanner{input: "q", pos: 0, ints: ints, tags: m}))
  var np *Scanner
  b.pos = 0
  println(broken(np, 0), broken(np, 1), broken(b, 1), b.pos)
  println(broken(a, 2), broken(a, -9))
}
|}

let field_operand_src ~p ~s ~pre_p ~pre_s =
  let b = Buffer.create 1024 in
  let src = src_field_operands in
  let i = ref 0 in
  while !i < String.length src do
    (if src.[!i] = '@' then begin
       Buffer.add_string b
         (match src.[!i + 1] with
         | 'p' -> p
         | 's' -> s
         | 'P' -> pre_p
         | _ -> pre_s);
       incr i
     end
     else Buffer.add_char b src.[!i]);
    incr i
  done;
  Buffer.contents b

let field_operands = field_operand_src ~p:"p" ~s:"s" ~pre_p:"" ~pre_s:""

let field_operands_unfused =
  field_operand_src ~p:"gp" ~s:"gv" ~pre_p:"gp = p" ~pre_s:"gv = s"

(* Inline-cache hits and misses of a bytecode run, read from the runtime
   telemetry registry the runner publishes them to. *)
let ic_counts src =
  let module Reg = Gofree_obs.Registry in
  let read () =
    let snap = Reg.snapshot Reg.runtime in
    let get n = Option.value ~default:0 (Reg.Snapshot.find_counter n snap) in
    (get "gofree_vm_ic_hit_total", get "gofree_vm_ic_miss_total")
  in
  Reg.acquire_runtime ();
  Fun.protect ~finally:Reg.release_runtime (fun () ->
      let h0, m0 = read () in
      ignore (run_mode ~engine:Gofree_interp.Interp.Eng_bytecode src);
      let h1, m1 = read () in
      (h1 - h0, m1 - m0))

let fused_cases =
  let case name src ~fused ~yields =
    Alcotest.test_case name `Quick (fun () ->
        check_fused ~name src fused;
        check_identical ~name src;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src;
        check_poison_silent ~name src;
        List.iter
          (fun yield_every -> check_sampled_identical ~name ~yield_every src)
          yields)
  in
  [
    case "fused loops" src_fused_loops ~yields:[ 512; 3 ]
      ~fused:
        [ ("skip", "loop_lt_rr"); ("steps", "jlt_rr_not");
          ("steps", "ne_i"); ("steps", "jge_not");
          ("lens", "jlt_rlen_not"); ("lens", "index_i_sr");
          ("forever", "safepoints"); ("forever", "loop_rinc");
          ("scan", "jlt_rlen_not"); ("scan", "jnek_not") ];
    case "fused index panics" src_fused_panics ~yields:[ 512 ]
      ~fused:
        [ ("readPast", "index_i_sr"); ("writePast", "store_i_sr");
          ("writePastStr", "store_index"); ("readNil", "index_i_sr");
          ("writeNil", "store_i_sr") ];
    case "fused forms under goroutines" src_fused_goroutines
      ~yields:[ 1; 2; 5 ]
      ~fused:
        [ ("worker", "jlt_rlen_not"); ("worker", "store_i_sr");
          ("worker", "loop_rinc"); ("worker", "safepoints");
          ("worker", "jlt_rr_not") ];
    case "field operands" field_operands ~yields:[ 512; 1 ]
      ~fused:
        [ ("scan", "jlt_flen_not"); ("scan", "index_ff"); ("scan", "flen");
          ("scan", "finc"); ("local", "jlt_flen_not"); ("local", "index_ff");
          ("local", "flen"); ("broken", "flen"); ("broken", "finc");
          ("broken", "jlt_flen_not"); ("broken", "index_ff") ];
    Alcotest.test_case "field operands: the unfused reads" `Quick (fun () ->
        let listed fn =
          List.map opcode (listing field_operands_unfused fn)
        in
        List.iter
          (fun fn ->
            List.iter
              (fun op ->
                Alcotest.(check bool)
                  (Printf.sprintf "unfused %s has no %s" fn op)
                  false
                  (List.mem op (listed fn)))
              [ "flen"; "index_ff"; "jlt_flen_not"; "finc" ])
          [ "scan"; "local"; "broken" ];
        List.iter
          (fun (ename, engine) ->
            Alcotest.(check string)
              ("output (" ^ ename ^ ")")
              (run_mode ~engine field_operands_unfused)
                .Gofree_interp.Runner.output
              (run_mode ~engine field_operands).Gofree_interp.Runner.output)
          engines;
        Alcotest.(check (pair int int))
          "inline-cache hits and misses"
          (ic_counts field_operands_unfused)
          (ic_counts field_operands));
  ]

(* ---- register parameters and the frame pool ------------------------ *)

(* An int or bool parameter lives in a register, bound straight from the
   argument window; an address-taken parameter and a multi-value
   assignment target keep their frame cells.  Frames come from a
   per-goroutine pool: recursion 6000 deep grows it, a panic unwinding
   through register-parameter frames and recovered by a deferred
   [recover] must leave it consistent for the calls that follow, so
   must a deferred call that panics (after a normal return, and while a
   body panic unwinds — the second panic replaces the first): the
   caller then reads its own locals, calls on, and a later [recover]
   with no panic in flight finds nothing.  [go]/[defer] bind int and
   bool arguments through the same protocol.
   Small [yield_every] values make goroutine switches land inside
   callees.  The program and its output are committed as
   test/golden/calls.go and calls.out. *)
let register_param_cases =
  [
    Alcotest.test_case "register parameters (golden)" `Quick (fun () ->
        let name = "register parameters" in
        let golden name = Test_disasm.read_file (Test_disasm.golden name) in
        let src = golden "calls.go" in
        let expected = golden "calls.out" in
        List.iter
          (fun (ename, engine) ->
            Alcotest.(check string)
              (name ^ ": output (" ^ ename ^ ")")
              expected
              (run_mode ~engine src).Gofree_interp.Runner.output)
          engines;
        check_emitted ~name src
          [ Reg ("countdown", "n"); Reg ("countdown", "step");
            Reg ("sumBelow", "lo"); Cell ("bump", "n"); Reg ("bump", "by");
            Reg ("order", "a"); Reg ("order", "b"); Cell ("reduce", "a");
            Cell ("reduce", "b"); Reg ("pick", "flag"); Reg ("depth", "n");
            Reg ("worker", "even") ];
        check_fused ~name src
          [ ("sumBelow", "jlt_rr_not"); ("order", "gt_i");
            ("worker", "jlt_rr_not") ];
        check_identical ~name src;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src;
        check_poison_silent ~name src;
        check_repeatable ~name src;
        List.iter
          (fun yield_every -> check_sampled_identical ~name ~yield_every src)
          [ 1; 2; 3; 512 ]);
  ]

(* ---- yield points without a sampler ------------------------------- *)

(* An attached sampler sends every safepoint down the VM's slow path, so
   the sampled comparisons above never see the dispatch loop's fast
   safepoints ([safepoint], [safepoints n], [loop_rinc] and the rotated
   back edges when they only count their steps).  Here no sampler runs, and goroutines that print inside
   counted loops make the exact step of every yield visible in the
   output order. *)
let src_yield_points =
  {|
var seen map[int]int

func worker(id int, n int, mark bool) {
  for i := 0; i < n; i++ {
    println(id, i, mark)
  }
  total := 0
  for j := 0; j < n*3; j++ {
    total += j
  }
  for k := n; k > 0; k-- {
    seen[id] = seen[id] + k
  }
  println("done", id, total, seen[id])
}

func main() {
  seen = make(map[int]int)
  for g := 0; g < 3; g++ {
    go worker(g, 4+g, g%2 == 0)
  }
  spin := 0
  for i := 0; i < 200; i++ {
    spin += i
  }
  println("main", spin, len(seen))
}
|}

let check_yields_identical ~name ~yield_every src =
  let run engine =
    let config = Gofree_core.Config.gofree in
    Gofree_interp.Runner.compile_and_run ~gofree_config:config
      ~run_config:
        {
          (run_config ~engine ~config ~poison:false) with
          Gofree_interp.Interp.yield_every;
        }
      src
  in
  let r_ref = run Gofree_interp.Interp.Eng_reference in
  let r_vm = run Gofree_interp.Interp.Eng_bytecode in
  let label what =
    Printf.sprintf "%s: %s (yield_every %d)" name what yield_every
  in
  Alcotest.(check string)
    (label "output") r_ref.Gofree_interp.Runner.output
    r_vm.Gofree_interp.Runner.output;
  Alcotest.(check int)
    (label "steps") r_ref.Gofree_interp.Runner.steps
    r_vm.Gofree_interp.Runner.steps;
  Alcotest.(check string)
    (label "metrics")
    (metrics_fingerprint r_ref.Gofree_interp.Runner.metrics)
    (metrics_fingerprint r_vm.Gofree_interp.Runner.metrics)

let yield_point_cases =
  [
    Alcotest.test_case "fast safepoints at every yield_every" `Quick
      (fun () ->
        let name = "yield points" in
        check_fused ~name src_yield_points
          [ ("worker", "loop_rinc"); ("worker", "jlt_rr_not");
            ("worker", "loop_lt_rr"); ("worker", "jgt_rk_not") ];
        List.iter
          (fun yield_every ->
            check_yields_identical ~name ~yield_every src_yield_points;
            check_yields_identical ~name:"register parameters" ~yield_every
              (Test_disasm.read_file (Test_disasm.golden "calls.go")))
          [ 1; 2; 3; 4; 5; 7; 11 ]);
  ]

(* ---- rotated loops ------------------------------------------------- *)

(* A counted loop whose condition is one [<] compare-and-branch re-tests
   it at the back edge and lands past the body's leading safepoint; any
   other condition keeps [loop_rinc]; an int op on a register local reads
   the register in place.  The program — every condition form and
   comparison, zero-trip loops, break and
   continue, a bound the body changes, a slice the body reassigns,
   shrinks or grows, bodies that keep the unrotated back edge, divide by
   zero on a register, goroutines in rotated loops — and its output are
   committed as test/golden/loops.go and loops.out.  Yields at 1, 2 and
   3 land on each of a back edge's three counted steps, with no sampler
   (the fast paths) and with one sampling every step (the slow ones);
   in {!src_rotated_yields} goroutines print from inside rotated loops,
   so the output order shows each yield point. *)
let src_rotated_yields =
  {|
func worker(id int, n int, xs []int) {
  for i := 0; i < n; i++ {
    println("w", id, i)
  }
  for i := 0; i < len(xs); i++ {
    println("x", id, xs[i])
  }
  for i := n; i > 0; i-- {
    println("d", id, i)
  }
}

func main() {
  for g := 0; g < 3; g++ {
    xs := make([]int, 2+g)
    xs[0] = g
    go worker(g, 2+g, xs)
  }
  spin := 0
  for i := 0; i < 30; i++ {
    spin += i
  }
  println("main", spin)
}
|}

let src_freed_bound =
  {|
var acc int
func main() {
  s2 := make([]int, 4+rand(2))
  for i := 0; i < len(s2); i++ {
    if i == 1 {
      s1 := make([]int, 3+rand(2))
      ps := &s1
      *ps = s2
      al := *ps
      if len(al) > 0 { acc += al[0] }
    }
    acc += s2[i]
  }
  println(acc)
}
|}

let rotated_loop_cases =
  let golden name = Test_disasm.read_file (Test_disasm.golden name) in
  [
    Alcotest.test_case "rotated loops (golden)" `Quick (fun () ->
        let name = "rotated loops" in
        let src = golden "loops.go" in
        let expected = golden "loops.out" in
        List.iter
          (fun (ename, engine) ->
            Alcotest.(check string)
              (name ^ ": output (" ^ ename ^ ")")
              expected
              (run_mode ~engine src).Gofree_interp.Runner.output)
          engines;
        check_fused ~name src
          [ ("rr", "loop_lt_rr"); ("rr", "le_i"); ("rr", "gt_i");
            ("rr", "jge_not"); ("rr", "ne_i"); ("rr", "eq_i");
            ("rr", "loop_rinc"); ("rk", "loop_lt_rk"); ("rk", "jle_rk_not");
            ("rk", "jgt_rk_not"); ("rk", "jge_rk_not"); ("rk", "jne_rk_not");
            ("rk", "jeq_rk_not"); ("rk", "loop_rinc");
            ("zeroTrip", "loop_lt_rlen"); ("slices", "loop_lt_rlen");
            ("jumps", "loop_lt_rr"); ("jumps", "loop_lt_rk");
            ("unrotated", "loop_rinc"); ("operands", "add_r");
            ("operands", "sub_r"); ("operands", "mul_i");
            ("operands", "mulk_r"); ("operands", "divk_i");
            ("operands", "modk_r"); ("operands", "jlt_rk_not");
            ("operands", "jge_rk_not"); ("operands", "jeq_rk_not");
            ("operands", "jne_rk_not"); ("divZero", "divk_i");
            ("modZero", "modk_r"); ("worker", "loop_lt_rlen");
            ("worker", "loop_lt_rr"); ("worker", "jgt_rk_not") ];
        Alcotest.(check bool)
          (name ^ ": unrotated keeps no rotated back edge")
          false
          (List.exists
             (fun l -> String.starts_with ~prefix:"loop_" (opcode l)
                       && opcode l <> "loop_rinc")
             (listing src "unrotated"));
        check_identical ~name src;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src;
        check_poison_silent ~name src;
        check_fused ~name:"rotated yields" src_rotated_yields
          [ ("worker", "loop_lt_rr"); ("worker", "loop_lt_rlen");
            ("worker", "jgt_rk_not"); ("main", "loop_lt_rk") ];
        List.iter
          (fun yield_every ->
            List.iter
              (fun (name, src) ->
                check_yields_identical ~name ~yield_every src;
                check_sampled_identical ~name ~yield_every ~sample_every:1
                  src)
              [ (name, src); ("rotated yields", src_rotated_yields) ])
          [ 1; 2; 3 ]);
    Alcotest.test_case "rotated loops: a bound slice freed in the body"
      `Quick (fun () ->
        (* without back-propagation GoFree frees [al], which is [s2]'s
           store, inside the body; the rotated back edge still reads
           [len(s2)], and the next [s2[i]] faults under the poison heap
           on both engines, as before rotation *)
        let name = "freed bound" in
        let unsound = Gofree_core.Config.unsound_no_backprop in
        check_fused ~name src_freed_bound [ ("main", "loop_lt_rlen") ];
        Alcotest.(check bool)
          (name ^ ": the unsound variant frees the alias")
          true
          (List.exists
             (fun (_, v, _) -> v = "al")
             (Helpers.inserted_vars
                (Helpers.compile ~config:unsound src_freed_bound)));
        List.iter
          (fun (ename, engine) ->
            match
              run_mode ~engine ~config:unsound ~poison:true src_freed_bound
            with
            | _ ->
              Alcotest.failf "%s (%s): the read of the freed store went \
                              unnoticed"
                name ename
            | exception Gofree_interp.Value.Corruption _ -> ())
          engines;
        check_identical ~name src_freed_bound;
        check_poison_silent ~name src_freed_bound);
  ]

(* ---- random programs ----------------------------------------------- *)

let prop_random_identical =
  QCheck.Test.make ~count:40
    ~name:"random programs: all engines == reference metrics"
    QCheck.(make ~print:string_of_int Gen.(0 -- 1_000_000))
    (fun seed ->
      let src = Gen_program.generate seed in
      let r_ref = run_mode ~engine:Gofree_interp.Interp.Eng_reference src in
      List.iter
        (fun (ename, engine) ->
          if engine <> Gofree_interp.Interp.Eng_reference then begin
            let r_cmp = run_mode ~engine src in
            if
              not
                (String.equal r_ref.Gofree_interp.Runner.output
                   r_cmp.Gofree_interp.Runner.output)
            then
              QCheck.Test.fail_reportf "%s output differs for seed %d:\n%s"
                ename seed src;
            if
              r_ref.Gofree_interp.Runner.steps
              <> r_cmp.Gofree_interp.Runner.steps
            then
              QCheck.Test.fail_reportf "%s step count differs for seed %d"
                ename seed;
            if
              not
                (String.equal
                   (metrics_fingerprint r_ref.Gofree_interp.Runner.metrics)
                   (metrics_fingerprint r_cmp.Gofree_interp.Runner.metrics))
            then
              QCheck.Test.fail_reportf "%s metrics differ for seed %d:\n%s"
                ename seed src
          end)
        engines;
      true)

(* ---- unboxed int slices ------------------------------------------- *)

(* A [[]int]'s backing store is an unboxed int array: make, literals,
   append growth (the zeros its spare capacity holds, and struct
   elements copied rather than shared with the old store), overlapping
   copies, shared sub-slices, element
   pointers, range, nil slices, [][]int, map[string][]int and a []int
   filled by goroutines, next to value-store slices of strings, structs
   and pointers.  The program and its output are committed as
   test/golden/int_slices.go and int_slices.out. *)
let int_slice_cases =
  let golden name = Test_disasm.read_file (Test_disasm.golden name) in
  (* The fig-1 trap of the robustness suite with a []int: without
     back-propagation GoFree frees the alias [al], which is [s2]'s store,
     at the inner scope's exit.  [read] then reads [s2] again. *)
  let trap read =
    Printf.sprintf
      {|
var acc int
func main() {
  s2 := make([]int, 4+rand(2))
  s2[0] = 77
  s2[1] = 5000
  p := &s2[1]
  view := s2[1:3]
  {
    s1 := make([]int, 3+rand(2))
    ps := &s1
    *ps = s2
    al := *ps
    if len(al) > 0 { acc += al[0] }
  }
  %s
}
|}
      read
  in
  [
    Alcotest.test_case "int slices (golden)" `Quick (fun () ->
        let name = "int slices" in
        let src = golden "int_slices.go" in
        let expected = golden "int_slices.out" in
        List.iter
          (fun (ename, engine) ->
            Alcotest.(check string)
              (name ^ ": output (" ^ ename ^ ")")
              expected
              (run_mode ~engine src).Gofree_interp.Runner.output)
          engines;
        check_fused ~name src
          [ ("build", "append_i"); ("build", "slice_lit_i");
            ("views", "store_index_i"); ("fill", "store_i_sr");
            ("churn", "store_i_sr"); ("nested", "append_i") ];
        check_identical ~name src;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src;
        check_poison_silent ~name src;
        check_repeatable ~name src;
        List.iter
          (fun yield_every -> check_sampled_identical ~name ~yield_every src)
          [ 1; 3; 512 ]);
    Alcotest.test_case "int slices: stale reads after a wrong free" `Quick
      (fun () ->
        let unsound = Gofree_core.Config.unsound_no_backprop in
        Alcotest.(check bool) "the unsound variant frees the alias" true
          (List.exists
             (fun (_, v, _) -> v = "al")
             (Helpers.inserted_vars
                (Helpers.compile ~config:unsound (trap "println(s2[0])"))));
        List.iter
          (fun (what, read) ->
            let src = trap read in
            List.iter
              (fun (ename, engine) ->
                (match run_mode ~engine ~config:unsound ~poison:true src with
                | _ ->
                  Alcotest.failf "%s (%s): the stale read went unnoticed" what
                    ename
                | exception Gofree_interp.Value.Corruption _ -> ());
                match run_mode ~engine ~poison:true src with
                | _ -> ()
                | exception Gofree_interp.Value.Corruption msg ->
                  Alcotest.failf "%s (%s): the sound analysis mis-freed: %s"
                    what ename msg)
              engines)
          [
            ("s[i]", "println(s2[0])");
            ("sub-slice", "println(view[0])");
            ("&s[i]", "println(*p)");
            ("println(s)", "println(s2)");
            ("copy", "d := make([]int, 2)\n  copy(d, s2)\n  println(d[0])");
            ("append growth", "s3 := append(s2, 1)\n  println(len(s3))");
          ];
        (* a freed element written since reads back what was written,
           as a written VPoison cell does *)
        let src = trap "s2[0] = 9\n  *p = 10\n  println(s2[0], view[0])" in
        List.iter
          (fun (ename, engine) ->
            Alcotest.(check string)
              ("write then read (" ^ ename ^ ")")
              "9 10\n"
              (run_mode ~engine ~config:unsound ~poison:true src)
                .Gofree_interp.Runner.output)
          engines);
  ]

(* ---- struct values --------------------------------------------------- *)

(* A struct's fields sit inline in one array that each location owns:
   copies on declaration, assignment, parameter passing and return, map
   values, element reads, copy() of a []P (overlapping too), nested
   structs, a store through a pointer, the swaps and self-assignments,
   and field pointers — [&s.x], [&ps[0].y], [&w.in.x], [&hp.x] — that
   read the new field after a whole-struct store or a copy() into their
   struct, as in Go.  The program and its output are committed as
   test/golden/struct_values.go and struct_values.out. *)
let struct_value_cases =
  let golden name = Test_disasm.read_file (Test_disasm.golden name) in
  [
    Alcotest.test_case "struct values (golden)" `Quick (fun () ->
        let name = "struct values" in
        let src = golden "struct_values.go" in
        let expected = golden "struct_values.out" in
        List.iter
          (fun (ename, engine) ->
            List.iter
              (fun (mode, config, poison) ->
                let r = run_mode ~engine ~config ~poison src in
                Alcotest.(check string)
                  (Printf.sprintf "%s: output (%s, %s)" name ename mode)
                  expected r.Gofree_interp.Runner.output;
                Alcotest.(check int)
                  (Printf.sprintf "%s: poison reads (%s, %s)" name ename mode)
                  0 r.Gofree_interp.Runner.metrics.Rt.Metrics.poison_reads)
              [ ("plain", Gofree_core.Config.gofree, false);
                ("go", Gofree_core.Config.go, false);
                ("poison", Gofree_core.Config.gofree, true) ])
          engines;
        check_identical ~name src;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src;
        check_repeatable ~name src;
        List.iter
          (fun yield_every -> check_sampled_identical ~name ~yield_every src)
          [ 1; 512 ]);
  ]

(* ---- struct slices --------------------------------------------------- *)

(* A []struct's backing store is one flat array of field slots: element
   and field pointers kept across an in-place append, growth that leaves
   the old store as it was, whole-element stores through a pointer,
   copy() and range by value, reslicing into spare capacity, nested
   structs, scanned and noscan element types, and the fused field forms
   of a pointer into a flat store.  The program and its output are
   committed as test/golden/struct_slices.go and struct_slices.out. *)
let struct_slice_cases =
  let golden name = Test_disasm.read_file (Test_disasm.golden name) in
  (* The fig-1 trap of the int-slice cases with a []P, whose store is
     noscan: without back-propagation GoFree frees the alias [al], which
     is [s2]'s store, at the inner scope's exit; [read] then reads [s2]
     again. *)
  let trap read =
    Printf.sprintf
      {|
type P struct {
  x    int
  name string
}

var acc int
func main() {
  s2 := make([]P, 4+rand(2))
  s2[0] = P{x: 77, name: "a"}
  s2[1].x = 5000
  p := &s2[1]
  f := &s2[1].x
  view := s2[1:3]
  {
    s1 := make([]P, 3+rand(2))
    ps := &s1
    *ps = s2
    al := *ps
    if len(al) > 0 { acc += al[0].x }
  }
  %s
}
|}
      read
  in
  [
    Alcotest.test_case "struct slices (golden)" `Quick (fun () ->
        let name = "struct slices" in
        let src = golden "struct_slices.go" in
        let expected = golden "struct_slices.out" in
        List.iter
          (fun (ename, engine) ->
            List.iter
              (fun (mode, config, poison) ->
                let r = run_mode ~engine ~config ~poison src in
                Alcotest.(check string)
                  (Printf.sprintf "%s: output (%s, %s)" name ename mode)
                  expected r.Gofree_interp.Runner.output;
                Alcotest.(check int)
                  (Printf.sprintf "%s: poison reads (%s, %s)" name ename mode)
                  0 r.Gofree_interp.Runner.metrics.Rt.Metrics.poison_reads)
              [ ("plain", Gofree_core.Config.gofree, false);
                ("go", Gofree_core.Config.go, false);
                ("poison", Gofree_core.Config.gofree, true) ])
          engines;
        check_fused ~name src
          [ ("growth", "append_fields"); ("growth", "elem_field_i_sr");
            ("pointers", "addr_elem_field"); ("spare", "elem_field_v");
            ("fieldForms", "index_ff") ];
        check_identical ~name src;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src;
        check_repeatable ~name src;
        List.iter
          (fun yield_every -> check_sampled_identical ~name ~yield_every src)
          [ 1; 512 ]);
    Alcotest.test_case "struct slices: stale reads after a wrong free" `Quick
      (fun () ->
        let unsound = Gofree_core.Config.unsound_no_backprop in
        Alcotest.(check bool) "the unsound variant frees the alias" true
          (List.exists
             (fun (_, v, _) -> v = "al")
             (Helpers.inserted_vars
                (Helpers.compile ~config:unsound (trap "println(s2[0].x)"))));
        List.iter
          (fun (what, read) ->
            let src = trap read in
            List.iter
              (fun (ename, engine) ->
                (match run_mode ~engine ~config:unsound ~poison:true src with
                | _ ->
                  Alcotest.failf "%s (%s): the stale read went unnoticed" what
                    ename
                | exception Gofree_interp.Value.Corruption _ -> ());
                match run_mode ~engine ~poison:true src with
                | _ -> ()
                | exception Gofree_interp.Value.Corruption msg ->
                  Alcotest.failf "%s (%s): the sound analysis mis-freed: %s"
                    what ename msg)
              engines)
          [
            ("s[i].f", "println(s2[0].x)");
            ("s[i]", "e := s2[0]\n  println(e.name)");
            ("sub-slice", "println(view[0].x)");
            ("&s[i]", "println(p.x)");
            ("*(&s[i])", "q := *p\n  println(q.x)");
            ("(*p).f", "println((*p).x)");
            ("&s[i].f", "println(*f)");
            ("println(s)", "println(s2)");
            ("copy", "d := make([]P, 2)\n  copy(d, s2)\n  println(d[0].x)");
            ("append growth", "s3 := append(s2, P{x: 1})\n  println(len(s3))");
          ]);
  ]

(* ---- reachable lowering -------------------------------------------- *)

module B = Gofree_interp.Bytecode

(* A run lowers only what [main] and the global initialisers reach:
   [build], [square] and [seed] only through initialisers, [report] only
   through a [defer], [worker] only through a [go].  [never] (which
   allocates and starts a goroutine), [orphan] (reached only from
   [never]) and the cycle [ping]/[pong] are never lowered. *)
let src_unreachable =
  {|
var table []int = build(6)
var base int = seed() + 1

func seed() int {
  return 7
}

func square(i int) int {
  return i * i
}

func build(n int) []int {
  s := make([]int, 0, 1)
  for i := 0; i < n; i = i + 1 {
    s = append(s, square(i))
  }
  return s
}

func orphan(s []int) {
  println(len(s))
}

func never(n int) []int {
  s := make([]int, n)
  s[0] = square(n)
  go orphan(s)
  return s
}

func ping(n int) int {
  if n == 0 {
    return 0
  }
  return pong(n - 1)
}

func pong(n int) int {
  return ping(n)
}

func sum(s []int) int {
  t := 0
  for i := 0; i < len(s); i = i + 1 {
    t = t + s[i]
  }
  return t
}

func worker(k int, done []int) {
  done[k] = sum(make([]int, k+1)) + k
}

func report(t int) {
  println("base", t)
}

func main() {
  defer report(base)
  done := make([]int, 1)
  go worker(0, done)
  total := 0
  for r := 0; r < 300; r = r + 1 {
    xs := make([]int, 16)
    xs[r%16] = r
    total = total + sum(xs) + sum(table)
  }
  println(total, len(table), done[0])
}
|}

let unlowered_names = [ "never"; "orphan"; "ping"; "pong" ]

(* A state that runs bytecode from [prog] and nothing else. *)
let vm_state src prog =
  let module I = Gofree_interp.Interp in
  let c = Helpers.compile src in
  let program = c.Gofree_core.Pipeline.c_program in
  let st =
    {
      I.program;
      decisions =
        Gofree_interp.Decisions.of_analysis c.Gofree_core.Pipeline.c_analysis
          program;
      layout = Gofree_interp.Layout.of_program program;
      heap = Gofree_runtime.Heap.create ();
      output = Buffer.create 16;
      globals = [||];
      config = I.default_config;
      dispatch = I.call_by_id;
      current =
        { I.g_id = 0; g_frames = [||]; g_depth = 0; g_pending = [||];
          g_stk_v = [||]; g_top_v = 0; g_stk_i = [||]; g_top_i = 0 };
      steps = 0;
      unwinding = None;
      ic_hits = 0;
      ic_misses = 0;
      yield_at = max_int;
      next_yield = max_int;
      sampled = 0;
      dom = 0;
      par = I.make_parctx ~nd:1 ~seed:0L;
    }
  in
  Gofree_interp.Vm.install st prog;
  st

let reachable_cases =
  [
    Alcotest.test_case "reachable lowering" `Quick (fun () ->
        let name = "reachable lowering" in
        check_identical ~name src_unreachable;
        check_identical ~name:(name ^ " (go)") ~config:Gofree_core.Config.go
          src_unreachable;
        check_poison_silent ~name src_unreachable;
        let c = Helpers.compile src_unreachable in
        let program = c.Gofree_core.Pipeline.c_program in
        let layout = Gofree_interp.Layout.of_program program in
        let prog =
          Gofree_interp.Emit.lower
            ~roots:(Gofree_interp.Emit.entry_points program)
            program
            (Gofree_interp.Decisions.of_analysis
               c.Gofree_core.Pipeline.c_analysis program)
            layout
        in
        (* a stub's body is one [halt]; every function here has more *)
        Alcotest.(check (list string))
          "lowered: main, what initialisers reach, go and defer targets"
          [ "seed"; "square"; "build"; "sum"; "worker"; "report"; "main" ]
          (List.filter_map
             (fun (f : B.fn) ->
               if Array.length f.B.bf_code > 1 then Some f.B.bf_name
               else None)
             (Array.to_list prog));
        (* entering a stub fails, naming the function *)
        List.iter
          (fun fname ->
            let st = vm_state src_unreachable prog in
            match
              Gofree_interp.Interp.call_function st fname
                [| Gofree_interp.Value.VInt 1; Gofree_interp.Value.VNil |]
            with
            | _ -> Alcotest.failf "entering unlowered %s returned" fname
            | exception Failure m ->
              Alcotest.(check string) ("entering " ^ fname)
                ("internal error: function " ^ fname ^ " was not lowered")
                m)
          unlowered_names);
  ]

(* ---- every opcode is emitted --------------------------------------- *)

(* The opcodes no program the suite lowers can emit, each with why.  The
   type checker rejects a call, [go] or [defer] naming a function the
   program does not define, so these three are reached only by a typed
   program whose callee is missing from the lowered program. *)
let never_emitted =
  [ B.op_call_undef (* a call to a function the program lacks *);
    B.op_go_undef (* a [go] statement starting one *);
    B.op_defer_undef (* a [defer] of one *) ]

(* Lowering, without running them, the golden corpus, the seven
   perfbench programs and this file's own programs emits every opcode
   the table defines but {!never_emitted}: each one the VM keeps is
   one these differential cases can reach. *)
let opcode_coverage_cases =
  [
    Alcotest.test_case "every opcode is emitted" `Quick (fun () ->
        let seen = Array.make B.n_opcodes false in
        let mark (f : B.fn) =
          let code = f.B.bf_code in
          let pc = ref 0 in
          while !pc < Array.length code do
            seen.(code.(!pc)) <- true;
            pc := !pc + 1 + B.arity code.(!pc)
          done
        in
        List.iter
          (fun src -> Array.iter mark (Test_disasm.lower src))
          (List.map Test_disasm.read_file
             (Test_disasm.golden_programs () @ Test_disasm.perfbench_programs)
          @ [ src_goroutines; src_panic_recover; src_map_churn; src_structs;
              src_slices; src_ic_invalidation; src_registers; src_scopes;
              src_register_goroutines; src_aliasing; src_struct_addr;
              src_calls; src_fused_loops; src_fused_panics;
              src_fused_goroutines; field_operands; field_operands_unfused;
              src_yield_points; src_rotated_yields; src_freed_bound;
              src_rare_forms; src_unreachable ]);
        let missing =
          List.filter
            (fun op -> not (seen.(op) || List.mem op never_emitted))
            (List.init B.n_opcodes Fun.id)
        in
        Alcotest.(check (list string))
          "opcodes no program emits" []
          (List.map B.op_name missing));
  ]

let suite =
  workload_cases @ feature_cases @ storage_cases @ aliasing_cases
  @ struct_addr_cases @ call_cases @ range_order_cases @ concurrent_cases
  @ fused_cases @ register_param_cases @ yield_point_cases
  @ rotated_loop_cases @ int_slice_cases @ struct_value_cases
  @ struct_slice_cases @ reachable_cases @ opcode_coverage_cases
  @ [ QCheck_alcotest.to_alcotest prop_random_identical ]
