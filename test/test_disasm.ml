(** Golden-file tests of the bytecode disassembler ([gofreec disasm]).

    Each case compiles a checked-in source under the gofree preset,
    lowers it with {!Gofree_interp.Emit} and compares the disassembly
    against the checked-in [.disasm] listing byte for byte.  The listing
    is the frozen shape of the ISA: opcode names, operand resolution
    (slot names, interned callees, inline-cache sites) and the stack /
    frame header.  A diff here means the emitter or the opcode table
    changed — regenerate with
    [dune exec bin/gofreec.exe -- disasm test/golden/FILE.go] only when
    that change is intentional. *)

(* Resolve golden files next to the test binary so the cases work under
   both [dune runtest] (cwd = test dir) and [dune exec] (cwd = root). *)
let golden name =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) in
  if Sys.file_exists (beside "golden") then
    Filename.concat (beside "golden") name
  else Filename.concat "golden" name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_golden name () =
  let src = read_file (golden (name ^ ".go")) in
  let expected = read_file (golden (name ^ ".disasm")) in
  let got =
    match Gofree_api.disassemble_string src with
    | Ok s -> s
    | Error e -> Alcotest.fail (Gofree_api.error_message e)
  in
  Alcotest.(check string) (name ^ ": disassembly") expected got

(* The disassembly must stay in sync with what actually executes: the
   listed program and the one the runner installs come from the same
   lowering, so a listing that parses as non-empty with the expected
   header shape is cross-checked by running the program too. *)
let test_disasm_matches_run () =
  let src = read_file (golden "maps_structs.go") in
  (match Gofree_api.run_string src with
  | Ok outcome ->
    Alcotest.(check bool) "runs clean" false outcome.Gofree_api.panicked
  | Error e -> Alcotest.fail (Gofree_api.error_message e));
  match Gofree_api.disassemble_string src with
  | Ok s ->
    Alcotest.(check bool)
      "has per-function headers" true
      (String.length s > 0
      && String.sub s 0 5 = "func "
      && String.length (String.concat "" (String.split_on_char '\n' s))
         > 100)
  | Error e -> Alcotest.fail (Gofree_api.error_message e)

(* ---- the opcode table ---------------------------------------------- *)

module B = Gofree_interp.Bytecode

(* Every opcode has its own real name in the one table. *)
let test_opcode_names () =
  let seen = Hashtbl.create 64 in
  for op = 0 to B.n_opcodes - 1 do
    let name = B.op_name op in
    Alcotest.(check bool)
      (Printf.sprintf "opcode %d has a name" op)
      false
      (name = Printf.sprintf "op%d" op);
    Alcotest.(check bool)
      (Printf.sprintf "opcode %d's name %s is unique" op name)
      false (Hashtbl.mem seen name);
    Hashtbl.add seen name ()
  done

let lower src =
  let config = Gofree_core.Config.gofree in
  let c = Gofree_core.Pipeline.compile ~config src in
  let program = c.Gofree_core.Pipeline.c_program in
  let decisions =
    Gofree_interp.Decisions.of_analysis c.Gofree_core.Pipeline.c_analysis
      program
  in
  let layout = Gofree_interp.Layout.of_program program in
  Gofree_interp.Emit.lower
    ~roots:(Gofree_interp.Emit.all_functions layout)
    program decisions layout

(* Walking a function by the table's widths lands exactly on the end of
   its code, every opcode met is defined, and every jump target is the
   start of an instruction. *)
let check_walk name (f : B.fn) =
  let code = f.B.bf_code in
  let n = Array.length code in
  let starts = Hashtbl.create 64 in
  let targets = ref [] in
  let pc = ref 0 in
  while !pc < n do
    let op = code.(!pc) in
    if op < 0 || op >= B.n_opcodes then
      Alcotest.failf "%s.%s: undefined opcode %d at %d" name f.B.bf_name op
        !pc;
    Hashtbl.replace starts !pc ();
    Array.iteri
      (fun k kind ->
        if kind = B.Target && !pc + 1 + k < n then
          targets := code.(!pc + 1 + k) :: !targets)
      (B.operands op);
    pc := !pc + 1 + B.arity op
  done;
  Alcotest.(check int)
    (Printf.sprintf "%s.%s: walk ends at the end of the code" name
       f.B.bf_name)
    n !pc;
  List.iter
    (fun t ->
      if not (Hashtbl.mem starts t) then
        Alcotest.failf "%s.%s: jump target %d is not an instruction" name
          f.B.bf_name t)
    !targets;
  let b = Buffer.create 256 in
  B.disasm_fn b f;
  Alcotest.(check int)
    (Printf.sprintf "%s.%s: one listing line per instruction" name
       f.B.bf_name)
    (Hashtbl.length starts + 1)
    (List.length
       (String.split_on_char '\n' (String.trim (Buffer.contents b))))

(* The seven benchmark programs sit beside the repository's sources. *)
let perfbench_programs =
  let dir =
    let beside =
      Filename.concat (Filename.dirname Sys.executable_name)
        "../perfbench/programs"
    in
    if Sys.file_exists beside then beside else "../perfbench/programs"
  in
  List.map
    (fun p -> Filename.concat dir (p ^ ".go"))
    [ "gocompiler"; "hugo"; "badger"; "json"; "scheck"; "slayout"; "fanout" ]

(* Every program of the golden corpus, in name order. *)
let golden_programs () =
  let dir = Filename.dirname (golden "calls.go") in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".go")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_walks () =
  List.iter
    (fun path ->
      let name = Filename.basename path in
      Array.iter (check_walk name) (lower (read_file path)))
    (perfbench_programs @ golden_programs ())

(* ---- the dispatch loop's literals ---------------------------------- *)

(* A source file of the interpreter library, beside the test binary's
   directory under [dune runtest], or from the repository root. *)
let interp_source name =
  let rel = Filename.concat "lib/interp" name in
  let beside =
    Filename.concat (Filename.dirname Sys.executable_name) ("../" ^ rel)
  in
  read_file (if Sys.file_exists beside then beside else rel)

(* The index of [sub] in [s] at or after [from]. *)
let rec find_from s sub from =
  if from + String.length sub > String.length s then None
  else if String.sub s from (String.length sub) = sub then Some from
  else find_from s sub (from + 1)

(* The run of characters satisfying [ok] at [i] in [s], and its end. *)
let span ok s i =
  let j = ref i in
  while !j < String.length s && ok s.[!j] do incr j done;
  (String.sub s i (!j - i), !j)

let is_digit c = c >= '0' && c <= '9'

let is_ident c = is_digit c || (c >= 'a' && c <= 'z') || c = '_'

(* The integer literals of a [match] arm line, each with the first word
   of the comment right after it, or [""] when none follows. *)
let arm_literals line =
  let rec from i acc =
    match String.index_from_opt line i '|' with
    | None -> List.rev acc
    | Some bar -> (
      let _, i = span (( = ) ' ') line (bar + 1) in
      match span is_digit line i with
      | "", _ -> from i acc
      | digits, i ->
        let _, j = span (( = ) ' ') line i in
        let name =
          if find_from line "(*" j = Some j then
            fst (span is_ident line (snd (span (( = ) ' ') line (j + 2))))
          else ""
        in
        from i ((int_of_string digits, name) :: acc))
  in
  from 0 []

(* [Vm.loop] and [Vm.full] match opcodes as integer literals.  Every
   literal of a top-level arm must carry its opcode's name as the first
   word of the comment that follows it ([| 112 (* jlt_not *)]), every
   opcode of the table must have an arm, and the table must be dense:
   [n_opcodes] is the number of [def]s in bytecode.ml.  Renumbering the
   table without the match, or the match without the table, fails
   here rather than as a run-time divergence. *)
let test_vm_literals () =
  let src = interp_source "vm.ml" in
  let at sub from =
    match find_from src sub from with
    | Some i -> i
    | None -> Alcotest.failf "vm.ml has no %S" sub
  in
  let from = at "let rec loop " 0 in
  let upto = at "let release_scopes " from in
  let armed = Array.make B.n_opcodes false in
  let misnamed = ref [] in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"  | " line then
        List.iter
          (fun (n, name) ->
            if n >= B.n_opcodes || B.op_name n <> name then
              misnamed :=
                Printf.sprintf "%d (* %s, but the table says %s" n name
                  (B.op_name n)
                :: !misnamed
            else armed.(n) <- true)
          (arm_literals line))
    (String.split_on_char '\n' (String.sub src from (upto - from)));
  Alcotest.(check (list string))
    "vm.ml arms whose comment does not name their opcode" []
    (List.rev !misnamed);
  Alcotest.(check (list string))
    "opcodes with no vm.ml arm" []
    (List.filter_map
       (fun op -> if armed.(op) then None else Some (B.op_name op))
       (List.init B.n_opcodes Fun.id));
  (* the table's [def N "name"] entries *)
  let table = interp_source "bytecode.ml" in
  let rec defs i n =
    match find_from table "def " i with
    | None -> n
    | Some i -> (
      match span is_digit table (i + 4) with
      | "", j -> defs j n
      | _, j ->
        defs j (if find_from table " \"" j = Some j then n + 1 else n))
  in
  Alcotest.(check int) "n_opcodes = the number of defs" (defs 0 0) B.n_opcodes

(* A function header names each parameter's home: [name:rN] for an int
   or bool parameter bound into register N, [name:sN] for a frame slot
   (an address-taken parameter, a multi-value assignment target, any
   other type), [name:boxN] for a slot holding a heap box.  A function
   without parameters shows no [params=] field. *)
let test_param_headers () =
  let listing =
    match Gofree_api.disassemble_string (read_file (golden "calls.go")) with
    | Ok s -> s
    | Error e -> Alcotest.fail (Gofree_api.error_message e)
  in
  let header fn =
    match
      List.find_opt
        (String.starts_with ~prefix:("func " ^ fn ^ ":"))
        (String.split_on_char '\n' listing)
    with
    | Some l -> l
    | None -> Alcotest.failf "no header for %s" fn
  in
  List.iter
    (fun (fn, params) ->
      let h = header fn in
      let suffix = if params = "" then "caches=1" else " params=" ^ params in
      Alcotest.(check bool) h true (String.ends_with ~suffix h))
    [ ("countdown", "n:r0,step:r1"); ("sumBelow", "xs:s0,lo:r0,hi:r1");
      ("bump", "n:s0,by:r0"); ("boxed", "n:box0"); ("order", "a:r0,b:r1");
      ("reduce", "a:s0,b:s1"); ("pick", "flag:r0,x:r1,y:r2");
      ("worker", "id:r0,rounds:r1,even:r2"); ("main", "") ]

let suite =
  [
    Alcotest.test_case "golden arith_loop" `Quick
      (check_golden "arith_loop");
    Alcotest.test_case "golden maps_structs" `Quick
      (check_golden "maps_structs");
    Alcotest.test_case "disasm consistent with run" `Quick
      test_disasm_matches_run;
    Alcotest.test_case "every opcode named" `Quick test_opcode_names;
    Alcotest.test_case "listings walk to the end" `Quick test_walks;
    Alcotest.test_case "vm.ml literals match the table" `Quick
      test_vm_literals;
    Alcotest.test_case "headers name parameter homes" `Quick
      test_param_headers;
  ]
