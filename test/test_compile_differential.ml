(** Differential tests for the lowered execution engines: the
    closure-compiled mode and the bytecode VM must each be
    observationally identical to the reference tree-walker — same
    program output, same step count, and the same runtime metrics down
    to the byte (alloc/free volumes, free ratio numerator and
    denominator, GC cycle count, maxheap, tcfree
    attempt/success/give-up counters).

    The three engines share the allocator/map/call helpers, so a
    divergence here means a lowering changed evaluation order or
    skipped/added a safepoint or allocation somewhere. *)

module Rt = Gofree_runtime
module W = Gofree_workloads.Workloads

let engines =
  [
    ("reference", Gofree_interp.Interp.Eng_reference);
    ("closure", Gofree_interp.Interp.Eng_closure);
    ("bytecode", Gofree_interp.Interp.Eng_bytecode);
  ]

let run_mode ~engine ?(config = Gofree_core.Config.gofree) ?(poison = false)
    ?(domains = 0) src =
  let run_config =
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
      domains;
    }
  in
  Gofree_interp.Runner.compile_and_run ~gofree_config:config ~run_config src

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
        let in_reg =
          List.exists
            (fun l ->
              List.mem (opcode l) [ "rload"; "rstore"; "rinc" ]
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

// a nested struct-field address spine: the closure fallback reads the
// frame, so no local of this function is a register
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

(* [--domains 1] runs each engine byte-identically to the sequential
   scheduler. *)
let check_domains_identity ~name src =
  List.iter
    (fun (ename, engine) ->
      let seq = run_mode ~engine src in
      let par = run_mode ~engine ~domains:1 src in
      let label what =
        Printf.sprintf "%s: %s at --domains 1 (%s)" name what ename
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
        check_domains_identity ~name src)
  in
  [
    case "register locals" src_registers
      ~emitted:
        [ Cell ("addrTaken", "i"); Reg ("addrTaken", "k");
          Reg ("shadow", "x"); Reg ("shadow", "ok"); Cell ("multi", "a");
          Cell ("multi", "b"); Cell ("multi", "c"); Reg ("multi", "s");
          Reg ("redeclare", "w"); Reg ("redeclare", "flag");
          Reg ("spawn", "total"); Reg ("spawn", "ok"); Cell ("spine", "s");
          Cell ("spine", "k") ];
    case "scope elision" src_scopes
      ~emitted:
        [ Scopes ("nested", 7); Scopes ("early", 1); Scopes ("unwind", 1);
          Scopes ("guard", 0) ];
    case "register locals under goroutines" src_register_goroutines
      ~emitted:
        [ Scopes ("worker", 0); Reg ("worker", "acc"); Reg ("worker", "odd") ];
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

let suite =
  workload_cases @ feature_cases @ storage_cases
  @ [ QCheck_alcotest.to_alcotest prop_random_identical ]
