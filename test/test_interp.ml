(** Interpreter semantics tests: one small program per language feature,
    checked against its expected output, plus panic/defer/goroutine
    behaviour and the Go-vs-GoFree output-equality guarantee. *)

let expect name src want =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name want (Helpers.output src);
      (* every semantics test doubles as a robustness test *)
      Helpers.check_all_settings_agree ~name src)

(* Host words [f] allocates on the minor heap, net of what measuring
   an empty region allocates. *)
let minor_words f =
  let empty =
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    w1 -. w0
  in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  int_of_float (w1 -. w0 -. empty)

(* Growth of the host counter [count] per loop iteration of the program
   [src_of n] on the bytecode engine: the difference between a [2n]- and
   an [n]-iteration run, over [n]. *)
let vm_per_iteration ?(n = 10_000) count src_of =
  let run n =
    let compiled = Helpers.compile (src_of n) in
    let config =
      { Gofree_interp.Interp.default_config with
        engine = Gofree_interp.Interp.Eng_bytecode }
    in
    let w0 = count () in
    ignore (Gofree_interp.Runner.run ~config compiled);
    count () -. w0
  in
  let w1 = run n in
  let w2 = run (2 * n) in
  (w2 -. w1) /. float_of_int n

(* Host words the bytecode engine allocates per loop iteration. *)
let vm_words_per_iteration = vm_per_iteration Gc.minor_words

(* Host words promoted to the major heap per loop iteration.  Enough
   iterations that the simulated GC runs several cycles and the host
   several minor collections. *)
let vm_promoted_per_iteration =
  vm_per_iteration ~n:100_000 (fun () -> (Gc.quick_stat ()).Gc.promoted_words)

let suite =
  [
    expect "arithmetic"
      {|
func main() {
  println(2+3*4, 10/3, 10%3, -7/2)
}
|}
      "14 3 1 -3\n";
    expect "float arithmetic"
      {|
func main() {
  x := 1.5
  y := x * 2.0 + 0.25
  println(y, y > 3.0)
}
|}
      "3.25 true\n";
    expect "strings"
      {|
func main() {
  s := "foo" + "bar"
  println(s, len(s), s < "fox", substr(s, 1, 4), itoa(42))
}
|}
      "foobar 6 true oob 42\n";
    expect "string indexing"
      {|
func main() {
  s := "AZ"
  println(s[0], s[1])
}
|}
      "65 90\n";
    expect "booleans and shortcut evaluation"
      {|
func boom() bool {
  panic("must not run")
}
func main() {
  println(true || boom(), false && boom())
}
|}
      "true false\n";
    expect "if else chain"
      {|
func grade(x int) string {
  if x > 90 {
    return "A"
  } else if x > 80 {
    return "B"
  } else {
    return "C"
  }
}
func main() {
  println(grade(95), grade(85), grade(10))
}
|}
      "A B C\n";
    expect "for loops with break and continue"
      {|
func main() {
  sum := 0
  for i := 0; i < 100; i++ {
    if i % 2 == 0 {
      continue
    }
    if i > 10 {
      break
    }
    sum += i
  }
  println(sum)
}
|}
      "25\n";
    expect "range over int and slice"
      {|
func main() {
  s := make([]int, 4)
  for i := range s {
    s[i] = i * i
  }
  total := 0
  for i := range 4 {
    total += s[i]
  }
  println(total)
}
|}
      "14\n";
    expect "nested functions and recursion"
      {|
func fib(n int) int {
  if n < 2 {
    return n
  }
  return fib(n-1) + fib(n-2)
}
func main() { println(fib(15)) }
|}
      "610\n";
    expect "multiple return values"
      {|
func divmod(a int, b int) (int, int) {
  return a / b, a % b
}
func main() {
  q, r := divmod(17, 5)
  println(q, r)
}
|}
      "3 2\n";
    expect "swap"
      {|
func main() {
  a := 1
  b := 2
  a, b = b, a
  println(a, b)
}
|}
      "2 1\n";
    expect "pointers"
      {|
func bump(p *int) {
  *p = *p + 1
}
func main() {
  x := 41
  bump(&x)
  p := &x
  pp := &p
  **pp = **pp + 1
  println(x)
}
|}
      "43\n";
    expect "struct values copy on assignment"
      {|
type P struct { x int
 y int }
func main() {
  a := P{x: 1, y: 2}
  b := a
  b.x = 99
  println(a.x, b.x)
}
|}
      "1 99\n";
    expect "struct pointers share"
      {|
type P struct { x int }
func main() {
  a := &P{x: 1}
  b := a
  b.x = 99
  println(a.x)
}
|}
      "99\n";
    expect "nested struct fields"
      {|
type Inner struct { v int }
type Outer struct { inner Inner
 pi *Inner }
func main() {
  o := Outer{inner: Inner{v: 1}, pi: &Inner{v: 2}}
  o.inner.v = 10
  o.pi.v = 20
  println(o.inner.v, o.pi.v)
}
|}
      "10 20\n";
    expect "address of field and element"
      {|
type P struct { x int }
func main() {
  s := make([]int, 3)
  p := &s[1]
  *p = 7
  t := P{x: 1}
  q := &t.x
  *q = 9
  println(s[1], t.x)
}
|}
      "7 9\n";
    expect "slices: make, len, cap, append growth"
      {|
func main() {
  s := make([]int, 2, 4)
  println(len(s), cap(s))
  s = append(s, 10)
  s = append(s, 11)
  println(len(s), cap(s))
  s = append(s, 12)
  println(len(s), cap(s) >= 5, s[4])
}
|}
      "2 4\n4 4\n5 true 12\n";
    expect "append aliasing semantics"
      {|
func main() {
  s := make([]int, 1, 4)
  t := append(s, 5)
  t[0] = 9
  println(s[0], t[1])
}
|}
      "9 5\n";
    expect "slice literals"
      {|
func main() {
  s := []int{3, 1, 4, 1, 5}
  sum := 0
  for i := range s {
    sum += s[i]
  }
  println(sum)
}
|}
      "14\n";
    expect "nil slices"
      {|
func main() {
  var s []int
  println(len(s), s == nil)
  s = append(s, 1)
  println(len(s), s == nil)
}
|}
      "0 true\n1 false\n";
    expect "maps: store, load, delete, zero value"
      {|
func main() {
  m := make(map[string]int)
  m["a"] = 1
  m["b"] = 2
  m["a"] = 3
  println(len(m), m["a"], m["missing"])
  delete(m, "a")
  println(len(m), m["a"])
}
|}
      "2 3 0\n1 0\n";
    expect "map growth preserves entries"
      {|
func main() {
  m := make(map[int]int)
  for i := 0; i < 1000; i++ {
    m[i] = i * 3
  }
  ok := true
  for i := 0; i < 1000; i++ {
    if m[i] != i*3 {
      ok = false
    }
  }
  println(len(m), ok)
}
|}
      "1000 true\n";
    expect "nil map reads"
      {|
func main() {
  var m map[string]int
  println(len(m), m["x"])
}
|}
      "0 0\n";
    expect "defer runs LIFO at exit"
      {|
func say(s string) {
  println(s)
}
func f() {
  defer say("first-deferred")
  defer say("second-deferred")
  println("body")
}
func main() { f()
  println("after") }
|}
      "body\nsecond-deferred\nfirst-deferred\nafter\n";
    expect "defer captures argument values at defer time"
      {|
func show(x int) {
  println(x)
}
func main() {
  x := 1
  defer show(x)
  x = 99
  println(x)
}
|}
      "99\n1\n";
    expect "panic unwinds and runs defers"
      {|
func cleanup() {
  println("cleanup")
}
func f() {
  defer cleanup()
  panic("boom")
}
func main() {
  f()
  println("unreachable")
}
|}
      "cleanup\npanic: boom\n";
    expect "runtime panics"
      {|
func main() {
  s := make([]int, 2)
  i := 5
  println(s[i])
}
|}
      "panic: index out of range\n";
    expect "division by zero panics"
      {|
func main() {
  x := 0
  println(10 / x)
}
|}
      "panic: integer divide by zero\n";
    expect "nil dereference panics"
      {|
func main() {
  var p *int
  println(*p)
}
|}
      "panic: nil pointer dereference\n";
    expect "goroutines run to completion"
      {|
var done map[int]bool
func worker(id int) {
  done[id] = true
}
func main() {
  done = make(map[int]bool)
  for i := 0; i < 8; i++ {
    go worker(i)
  }
}
|}
      "";
    expect "goroutine interleaving is deterministic"
      {|
func count(label string, n int) {
  total := 0
  for i := 0; i < n; i++ {
    total += i
  }
  println(label, total)
}
func main() {
  go count("a", 2000)
  go count("b", 1000)
  println("main done")
}
|}
      "main done\nb 499500\na 1999000\n";
    expect "globals"
      {|
var counter = 10
var table map[string]int
func bump() {
  counter++
}
func main() {
  table = make(map[string]int)
  table["x"] = counter
  bump()
  bump()
  println(counter, table["x"])
}
|}
      "12 10\n";
    expect "rand is deterministic per seed"
      {|
func main() {
  a := rand(1000)
  b := rand(1000)
  same := a == rand(0) + a
  println(same, a >= 0, a < 1000, b >= 0, b < 1000)
}
|}
      "true true true true true\n";
    expect "compound assignment and increments"
      {|
func main() {
  x := 10
  x += 5
  x -= 3
  x *= 2
  x++
  x--
  println(x)
}
|}
      "24\n";
    expect "zero values"
      {|
type T struct { n int
 s string
 sl []int
 p *int }
func main() {
  var t T
  var i int
  var b bool
  var str string
  println(t.n, t.s == "", t.sl == nil, t.p == nil, i, b, str == "")
}
|}
      "0 true true true 0 false true\n";
    expect "bitwise and shift operators"
      {|
func main() {
  x := 12
  y := 10
  println(x&y, x|y, x^y, 1<<6, 256>>4)
  println(2*3<<1, 1|2&3, 8>>1<<2)
}
|}
      "8 14 6 64 16\n12 3 16\n";
    expect "map range iterates every key"
      {|
func main() {
  m := make(map[int]int)
  for i := 0; i < 50; i++ {
    m[i*3] = i
  }
  keys := 0
  sum := 0
  for k := range m {
    keys++
    sum += m[k]
  }
  println(keys, sum)
}
|}
      "50 1225\n";
    expect "map range with break and delete"
      {|
func main() {
  m := make(map[string]int)
  m["a"] = 1
  m["b"] = 2
  m["c"] = 3
  seen := 0
  for k := range m {
    seen++
    if m[k] == 2 {
      break
    }
  }
  for k := range m {
    delete(m, k)
  }
  println(seen >= 1, len(m))
}
|}
      "true 0\n";
    expect "range over nil map"
      {|
func main() {
  var m map[int]int
  n := 0
  for k := range m {
    n += k
  }
  println(n)
}
|}
      "0\n";
    expect "comma-ok map lookup"
      {|
func main() {
  m := make(map[string]int)
  m["hit"] = 3
  v, ok := m["hit"]
  w, ok2 := m["miss"]
  println(v, ok, w, ok2)
  var nilmap map[string]int
  x, ok3 := nilmap["any"]
  println(x, ok3)
}
|}
      "3 true 0 false\n0 false\n";
    expect "comma-ok distinguishes stored zero from missing"
      {|
func main() {
  m := make(map[int]int)
  m[1] = 0
  a, okA := m[1]
  b, okB := m[2]
  println(a, okA, b, okB)
}
|}
      "0 true 0 false\n";
    expect "recover stops unwinding"
      {|
func guard() {
  msg := recover()
  if msg != "" {
    println("recovered:", msg)
  }
}
func risky(n int) int {
  defer guard()
  if n == 0 {
    panic("zero input")
  }
  return 100 / n
}
func main() {
  println(risky(5))
  println(risky(0))
  println("still running")
}
|}
      "20\nrecovered: zero input\n0\nstill running\n";
    expect "recover outside a panic returns empty"
      {|
func main() {
  println(recover() == "", "ok")
}
|}
      "true ok\n";
    expect "panic propagates past frames without recover"
      {|
func inner() {
  panic("deep")
}
func middle() {
  inner()
  println("unreachable")
}
func shield() {
  msg := recover()
  println("caught", msg)
}
func outer() {
  defer shield()
  middle()
}
func main() {
  outer()
  println("done")
}
|}
      "caught deep\ndone\n";
    expect "recover catches runtime panics"
      {|
func guard() {
  msg := recover()
  println("guard:", msg)
}
func f(s []int, i int) int {
  defer guard()
  return s[i]
}
func main() {
  s := make([]int, 2)
  println(f(s, 9))
}
|}
      "guard: index out of range\n0\n";
    expect "shadowing"
      {|
func main() {
  x := 1
  {
    x := 2
    x++
    println(x)
  }
  println(x)
}
|}
      "3\n1\n";
    Alcotest.test_case "bytecode hot paths allocate within budget" `Quick
      (fun () ->
        (* Host words the bytecode engine allocates per loop iteration:
           the difference between a 20k- and a 10k-iteration run of the
           same program, over 10k.  A map store to a present key and a
           map read allocate nothing (the loop itself stays under a
           word), large int keys and values included: they travel
           unboxed into the map's int column (11.1 words with boxed
           keys and values and a cache record per read after a
           store).  A VM-to-VM call takes its frame and dispatch registers
           from the goroutine's pool and binds int parameters into
           registers, so it allocates nothing either; a pointer parameter
           costs its frame cell and binding (4 words).  An int stored into
           a [[]int] goes from the int stack into the unboxed store, boxing
           nothing (a store of boxed ints cost 2.14 words); an in-place
           [append] to one allocates only the new 5-word slice header
           (5.33 measured; 9.36 with boxed elements and a separate header
           record). *)
        let cases =
          [
            ( "map store", 1.0,
              Printf.sprintf
                {|
func main() {
  m := make(map[int]int)
  for i := 0; i < 64; i = i + 1 {
    m[i] = i
  }
  for i := 0; i < %d; i = i + 1 {
    m[i%%64] = i %% 64
  }
  println(len(m))
}
|} );
            ( "map get", 1.0,
              Printf.sprintf
                {|
func main() {
  m := make(map[int]int)
  for i := 0; i < 64; i = i + 1 {
    m[i] = i
  }
  s := 0
  for i := 0; i < %d; i = i + 1 {
    s = (s + m[i%%64]) %% 1000
  }
  println(s)
}
|} );
            ( "large-int map get and store", 1.0,
              Printf.sprintf
                {|
func main() {
  m := make(map[int]int)
  for i := 0; i < 64; i = i + 1 {
    m[i*4096] = i
  }
  for i := 0; i < %d; i = i + 1 {
    k := (i %% 64) * 4096
    m[k] = m[k] + i*4096
  }
  println(len(m))
}
|} );
            ( "call", 1.0,
              Printf.sprintf
                {|
func add(a int, b int) int {
  return a + b
}

func main() {
  s := 0
  for i := 0; i < %d; i = i + 1 {
    s = add(s, i%%7) %% 1000
  }
  println(s)
}
|} );
            ( "empty call", 1.0,
              Printf.sprintf
                {|
func nop() {
}

func main() {
  s := 0
  for i := 0; i < %d; i = i + 1 {
    nop()
    s = (s + i) %% 1000
  }
  println(s)
}
|} );
            ( "pointer-parameter call", 5.0,
              Printf.sprintf
                {|
type T struct { x int; y int }

func get(p *T) int {
  return p.x
}

func main() {
  t := &T{x: 3, y: 4}
  s := 0
  for i := 0; i < %d; i = i + 1 {
    s = (s + get(t)) %% 1000
  }
  println(s)
}
|} );
            ( "int slice store", 1.0,
              Printf.sprintf
                {|
func main() {
  s := make([]int, 64)
  for i := 0; i < %d; i = i + 1 {
    s[i%%64] = i * 4096
  }
  println(s[5])
}
|} );
            ( "int slice append", 6.0,
              Printf.sprintf
                {|
func main() {
  s := make([]int, 0, 64)
  for i := 0; i < %d; i = i + 1 {
    if len(s) == 64 {
      s = s[0:0]
    }
    s = append(s, i*4096)
  }
  println(len(s), s[0])
}
|} );
            ( "recursive call", 2.0,
              Printf.sprintf
                {|
func down(n int) int {
  if n == 0 {
    return 0
  }
  return down(n-1) + 1
}

func main() {
  s := 0
  for i := 0; i < %d; i = i + 1 {
    s = (s + down(4)) %% 1000
  }
  println(s)
}
|} );
          ]
        in
        List.iter
          (fun (name, bound, src_of) ->
            let w = vm_words_per_iteration src_of in
            if w > bound then
              Alcotest.failf "%s: %.2f host words per iteration, bound %.0f"
                name w bound)
          cases);
    Alcotest.test_case "noscan struct store adds no scan work" `Quick
      (fun () ->
        (* The mark reaches a []Pt store and a []Node store alike, but
           walks only the one whose element type holds a pointer: the
           first adds nothing to the scan-work count, the second its
           words. *)
        let open Gofree_interp.Value in
        let module Rt = Gofree_runtime in
        let module T = Minigo.Types in
        let tenv = T.create_env () in
        T.add_struct tenv "Pt" [ ("x", T.Int); ("name", T.String) ];
        T.add_struct tenv "Node" [ ("v", T.Int); ("next", T.Ptr (T.Struct "Node")) ];
        let heap = Rt.Heap.create () in
        heap.Rt.Heap.trace_payload <- trace_payload;
        let alloc name n =
          let store = make_store n (fun () -> zero tenv (T.Struct name)) in
          Rt.Heap.alloc_heap heap ~thread:0 ~category:Rt.Metrics.Cat_slice
            ~size:(n * 24) ~payload:(store_payload store)
        in
        let m = heap.Rt.Heap.metrics in
        let pts = alloc "Pt" 8 in
        Alcotest.(check bool) "[]Pt is noscan" false
          (trace_payload pts.Rt.Heap.payload ignore);
        heap.Rt.Heap.iter_roots <- (fun k -> k pts);
        Rt.Gc_collector.collect heap;
        Alcotest.(check int) "[]Pt marked" 1 m.Rt.Metrics.gc_marked_objects;
        Alcotest.(check int) "[]Pt adds no scan words" 0
          m.Rt.Metrics.gc_scan_words;
        let nodes = alloc "Node" 8 in
        Alcotest.(check bool) "[]Node is scanned" true
          (trace_payload nodes.Rt.Heap.payload ignore);
        heap.Rt.Heap.iter_roots <- (fun k -> k pts; k nodes);
        Rt.Gc_collector.collect heap;
        Alcotest.(check int) "both marked" 3 m.Rt.Metrics.gc_marked_objects;
        Alcotest.(check int) "[]Node's 192 bytes" 24 m.Rt.Metrics.gc_scan_words;
        Alcotest.(check bool) "spans swept" true
          (m.Rt.Metrics.gc_spans_swept > 0));
    Alcotest.test_case "poisoned slice store faults s[i] and &s[i]" `Quick
      (fun () ->
        let open Gofree_interp.Value in
        let faults name f =
          match f () with
          | _ -> Alcotest.failf "%s read freed memory silently" name
          | exception Corruption _ -> ()
        in
        let module Rt = Gofree_runtime in
        let heap =
          Rt.Heap.create
            ~config:
              { Rt.Heap.default_config with Rt.Heap.poison_on_free = true }
            ()
        in
        heap.Rt.Heap.poison_payload <- poison_payload;
        (* a value store: freed elements become VPoison *)
        let store =
          match make_store 4 (fun () -> VStr "") with
          | Vals (a, 0, false) -> a
          | _ -> Alcotest.fail "a string zero makes a noscan value store"
        in
        store.(2) <- VInt 7;
        let owner =
          Rt.Heap.alloc_heap heap ~thread:0 ~category:Rt.Metrics.Cat_slice
            ~size:32 ~payload:(Pcells store)
        in
        let s =
          { s_obj = owner; s_cells = store; s_w = 0; s_off = 1; s_len = 3 }
        in
        let p =
          { p_owner = owner; p_arr = s.s_cells; p_idx = s.s_off + 1 }
        in
        Alcotest.(check bool)
          "s[1] before" true
          (read_elem s.s_cells 2 = VInt 7);
        Alcotest.(check bool) "*p before" true (read_ptr p = VInt 7);
        poison_payload (Pcells store);
        faults "s[1]" (fun () -> read_elem s.s_cells (s.s_off + 1));
        faults "*(&s[1])" (fun () -> read_ptr p);
        faults "println(s)" (fun () -> to_string (VSlice s));
        (* an int store: freed elements hold the sentinel, and reading it
           faults once the owner is freed *)
        let ints =
          match make_store 4 (fun () -> VInt 0) with
          | Ints a -> a
          | Vals _ -> Alcotest.fail "an int zero makes an int store"
        in
        let obj =
          Rt.Heap.alloc_heap heap ~thread:0 ~category:Rt.Metrics.Cat_slice
            ~size:32 ~payload:(Pints ints)
        in
        ints.(2) <- 7;
        ints.(3) <- poison_int;
        (* s := store[1:4]; p := &s[1] *)
        let s =
          VIslice { i_obj = obj; i_ints = ints; i_off = 1; i_len = 3 }
        in
        let p = { ip_owner = obj; ip_ints = ints; ip_idx = 2 } in
        Alcotest.(check int) "int s[1] before" 7 (read_int heap obj ints 2);
        Alcotest.(check int) "int *p before" 7 (read_iptr heap p);
        Alcotest.(check int)
          "a live element may hold the sentinel" poison_int
          (read_int heap obj ints 3);
        Alcotest.(check string)
          "println(s) before" "[0 7 -4516475938764865263]"
          (to_string ~heap s);
        (match
           Rt.Tcfree.tcfree heap ~thread:0 ~source:Rt.Metrics.Src_slice obj
         with
        | Rt.Tcfree.Freed _ -> ()
        | Rt.Tcfree.Gave_up _ -> Alcotest.fail "tcfree gave up");
        faults "int s[1]" (fun () -> read_int heap obj ints 2);
        faults "int *(&s[1])" (fun () -> read_iptr heap p);
        faults "int println(s)" (fun () -> to_string ~heap s);
        (* a freed element written since reads back what was written *)
        ints.(2) <- 9;
        Alcotest.(check int) "written after free" 9 (read_iptr heap p));
    Alcotest.test_case "itoa matches string_of_int" `Quick (fun () ->
        let check n =
          Alcotest.(check string)
            (Printf.sprintf "itoa %d" n)
            (string_of_int n)
            (Gofree_interp.Value.itoa n)
        in
        List.iter check [ 0; 9; 10; 99; 100; -1; -9; -10; max_int; min_int;
                          max_int - 1; min_int + 1 ];
        for n = -200_000 to 200_000 do check n done;
        for s = 0 to 62 do
          check (1 lsl s);
          check (-(1 lsl s));
          check ((1 lsl s) - 1)
        done;
        let rng = Random.State.make [| 7 |] in
        for _ = 1 to 200_000 do
          check (Random.State.bits rng lor (Random.State.bits rng lsl 30)
                 lor (Random.State.bits rng lsl 60))
        done);
    Alcotest.test_case "slice store holds elements unboxed" `Quick (fun () ->
        let open Gofree_interp.Value in
        let tenv = Minigo.Types.create_env () in
        (* make([]int, 1000): one header word plus one word per element,
           with no per-element cell; the one zero box all elements share
           is not counted *)
        let zero_int = zero tenv Minigo.Types.Int in
        let store =
          match make_store 1000 (fun () -> zero_int) with
          | Ints a -> a
          | Vals _ -> Alcotest.fail "make([]int, 1000) is not an int store"
        in
        let words =
          Obj.reachable_words (Obj.repr store)
          - Obj.reachable_words (Obj.repr zero_int)
        in
        if words > 1001 then
          Alcotest.failf "make([]int, 1000) store is %d words, want <= 1001"
            words;
        (* filled with ints outside the shared small-int pool, it is still
           one header word plus one word per element: no element is a box *)
        Array.iteri (fun i _ -> store.(i) <- 1024 + (4096 * i)) store;
        let words = Obj.reachable_words (Obj.repr store) in
        if words > 1001 then
          Alcotest.failf
            "make([]int, 1000) of large ints is %d words, want <= 1001" words;
        (* make([]P, 2): one flat store, a slot per element's field *)
        Minigo.Types.add_struct tenv "P" [ ("x", Minigo.Types.Int) ];
        let ps = make_store 2 (fun () -> zero tenv (Minigo.Types.Struct "P")) in
        (match ps with
        | Vals (([| VInt 0; VInt 0 |] as a), 1, false) ->
          a.(0) <- VInt 3;
          Alcotest.(check bool) "s[1].x untouched" true (a.(1) = VInt 0)
        | _ -> Alcotest.fail "make([]P, 2) store"));
    Alcotest.test_case "struct values hold their fields inline" `Quick
      (fun () ->
        let module V = Gofree_interp.Value in
        let module I = Gofree_interp.Interp in
        let tenv = Minigo.Types.create_env () in
        Minigo.Types.add_struct tenv "P"
          [ ("x", Minigo.Types.Int); ("y", Minigo.Types.Int);
            ("z", Minigo.Types.Int) ];
        let zero_p () = V.zero tenv (Minigo.Types.Struct "P") in
        let p = zero_p () in
        (* a copy of P{x, y, z} is one field array and its VStruct box:
           4 + 2 words, where a cell per field would add 2 words each *)
        let w = minor_words (fun () -> ignore (Sys.opaque_identity (V.copy p))) in
        if w > 6 then
          Alcotest.failf "copy of a 3-int-field struct: %d words, want <= 6" w;
        (* append growth of a 64-element []P to capacity 128: one flat
           store of 3 slots per element (385 words) and the element zero
           (6); a field array per element took 891 words, a cell per
           field 1524 more *)
        let c = Helpers.compile "func main() {}\n" in
        let program = c.Gofree_core.Pipeline.c_program in
        let heap = Gofree_runtime.Heap.create () in
        let st =
          {
            I.program;
            decisions =
              Gofree_interp.Decisions.of_analysis
                c.Gofree_core.Pipeline.c_analysis program;
            layout = Gofree_interp.Layout.of_program program;
            heap;
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
        let fr = I.push_frame st 1 in
        let site =
          { Minigo.Tast.site_id = 0; site_kind = Minigo.Tast.Site_append;
            site_pos = Minigo.Token.dummy_pos; site_func = "main";
            site_elem_size = 24; site_const_len = None }
        in
        let full =
          match V.make_store 64 zero_p with
          | V.Vals (a, 3, false) ->
            V.VSlice { V.s_obj = Gofree_runtime.Heap.no_obj; s_cells = a;
                       s_w = 3; s_off = 0; s_len = 64 }
          | _ -> Alcotest.fail "make([]P, 64) is a flat noscan store"
        in
        let elems = [| V.copy p |] in
        let grown = ref V.VNil in
        let w =
          minor_words (fun () ->
              grown :=
                I.append_values st fr ~site ~zero_of:zero_p full elems 0 1)
        in
        Alcotest.(check int) "capacity after growth" 128 (I.capacity !grown);
        if w > 400 then
          Alcotest.failf "append growth of a 64-element []P: %d words, want \
                          <= 400" w;
        (* [x := P{...}] on the bytecode engine: the literal's field array
           and its VStruct box (6 words), the declaration's cell and
           binding (4); copying the fresh literal would add another 6 *)
        let w =
          vm_words_per_iteration
            (Printf.sprintf
               {|
type P struct {
  x int
  y int
  z int
}

func main() {
  s := 0
  for i := 0; i < %d; i++ {
    x := P{x: 1, y: 2, z: 3}
    s += x.y
  }
  println(s)
}
|})
        in
        if w > 11.0 then
          Alcotest.failf "x := P{...}: %.2f host words per iteration, want \
                          <= 11" w);
    Alcotest.test_case "dropped heap objects are not promoted" `Quick
      (fun () ->
        (* A factory loop whose [&P{}] objects only the simulated GC
           reclaims: the heap keeps no reference to them, so they die in
           the host's minor heap.  A per-object table kept for the sweep
           promotes each object and its payload (about 24 words). *)
        let w =
          vm_promoted_per_iteration
            (Printf.sprintf
               {|
type P struct {
  a int
  b int
}

func mk(i int) *P {
  return &P{a: i, b: i + 1}
}

func main() {
  s := 0
  for i := 0; i < %d; i++ {
    p := mk(i)
    s = (s + p.b) %% 1000
  }
  println(s)
}
|})
        in
        if w > 1.0 then
          Alcotest.failf "p := mk(i): %.2f host words promoted per iteration, \
                          want <= 1" w);
  ]
