(** The flat bytecode ISA of the fast execution engine.

    A lowered function is one [int array]: each instruction is an opcode
    followed by its inline operands (slot indices, interned function
    ids, absolute jump targets — resolved at emission time by {!Emit},
    with jump-to-jump chains threaded).  Values that cannot be encoded
    as ints live in per-function side tables: a constant pool, the
    allocation sites, zero-value makers, the homes of declared
    variables ({!home}), and the inline-cache records for map-key and
    struct-field access sites.

    The dispatch loop itself lives in {!Vm}; the opcode numbering here
    and the literal patterns of its [match] must stay in sync (the
    disassembler tests check every literal arm against this table). *)

open Minigo

(* ------------------------------------------------------------------ *)
(* The opcode table                                                    *)
(* ------------------------------------------------------------------ *)

(** What an inline operand denotes: the disassembler shows each kind its
    own way, and an instruction's width is 1 + its operand count. *)
type operand =
  | Int  (* an immediate: a count, a constant, an element count *)
  | Delta  (* a signed increment, shown with its sign *)
  | Slot  (* frame or global slot *)
  | Reg  (* register local *)
  | Name  (* [bf_names] index, shown in the trailing comment *)
  | Target  (* absolute jump target *)
  | Cache  (* inline-cache record *)
  | Field  (* struct field index *)
  | Const  (* [bf_consts] index; the constant goes in the comment *)
  | Binop  (* [bf_binops] index; the operator goes in the comment *)
  | Site  (* [bf_sites] index, shown as the allocation site id *)
  | Tbl of string  (* index into another side table, shown as tbl#N *)
  | Key of string  (* an immediate shown as key=N *)
  | Enum of string array  (* a small code shown by its meaning *)

(* One entry per opcode: its name and operand kinds.  [def] registers
   the entry and returns the opcode, so a number, its name and its
   operands are written once, on one line.  It is inlined, so an entry
   of literals is static data and registering it calls nothing: each
   call here would be a frame descriptor of every gofreec binary.
   [ndefs] counts the registrations, for the check below the table that
   no number was given twice. *)
let specs : (string * operand list) option array = Array.make 256 None

let ndefs = ref 0

let[@inline] def op name operands =
  Array.unsafe_set specs op (Some (name, operands));
  incr ndefs;
  op

(* Grouped: control flow, stack shuffling, the unboxed int/bool fast
   path (operands on a native-int stack, so hot arithmetic/compare/branch
   never allocates), generic value ops, memory/call/allocation ops.  The
   numbering is dense, 0 to [n_opcodes - 1] with no gap, and no code
   depends on the order of the numbers.  {!Vm} matches them as literals:
   test_disasm checks each literal arm against this table.  Stack
   effects: I = the native-int stack, V = the value stack. *)
let op_halt = def 0 "halt" []
let op_safepoint = def 1 "safepoint" []
let op_jmp = def 2 "jmp" [ Target ]
let op_jmpifnot = def 3 "jmpifnot" [ Target ]  (* pops I *)
let op_jmpif = def 4 "jmpif" [ Target ]  (* pops I *)
let op_push_scope = def 5 "push_scope" []
let op_pop_scope = def 6 "pop_scope" []
let op_ret = def 7 "ret" [ Int ]  (* pop n values, return them packed *)
let op_iconst = def 8 "iconst" [ Int ]  (* push I *)
let op_const = def 9 "const" [ Const ]  (* push V *)
let op_iload = def 10 "iload" [ Slot; Name ]  (* int local -> I *)
let op_bload = def 11 "bload" [ Slot; Name ]  (* bool local -> I *)
let op_vload = def 12 "vload" [ Slot; Name ]  (* local -> V *)
let op_giload = def 13 "giload" [ Slot; Name ]
let op_gbload = def 14 "gbload" [ Slot; Name ]
let op_gvload = def 15 "gvload" [ Slot; Name ]
let op_box_i = def 16 "box_i" []  (* I -> V *)
let op_box_b = def 17 "box_b" []
let op_unbox_i = def 18 "unbox_i" []  (* V -> I (expects an int) *)
let op_unbox_b = def 19 "unbox_b" []  (* V -> I (truthy) *)
let op_copy = def 20 "copy" []  (* top of V := Value.copy top *)
let op_pop_v = def 21 "pop_v" []
let op_add_i = def 22 "add_i" []
let op_sub_i = def 23 "sub_i" []
let op_mul_i = def 24 "mul_i" []
let op_div_i = def 25 "div_i" []
let op_mod_i = def 26 "mod_i" []
let op_and_i = def 27 "and_i" []
let op_or_i = def 28 "or_i" []
let op_xor_i = def 29 "xor_i" []
let op_shl_i = def 30 "shl_i" []
let op_shr_i = def 31 "shr_i" []
let op_neg_i = def 32 "neg_i" []
let op_lt_i = def 33 "lt_i" []
let op_le_i = def 34 "le_i" []
let op_gt_i = def 35 "gt_i" []
let op_ge_i = def 36 "ge_i" []
let op_eq_i = def 37 "eq_i" []
let op_ne_i = def 38 "ne_i" []
let op_not_b = def 39 "not_b" []
let op_binop = def 40 "binop" [ Binop ]  (* generic eval_binop on two V *)
let op_neg_v = def 41 "neg_v" []
let op_decl = def 42 "decl" [ Tbl "decl" ]  (* pop V, run the declarer *)
let op_decl_zero = def 43 "decl_zero" [ Tbl "decl"; Tbl "zero" ]
let op_store_slot = def 44 "store_slot" [ Slot; Name ]  (* pop V, copy *)
let op_store_gslot = def 45 "store_gslot" [ Slot; Name ]
let op_store_slot_i = def 46 "store_slot_i" [ Slot; Name ]  (* pop I *)
let op_store_gslot_i = def 47 "store_gslot_i" [ Slot; Name ]
let op_store_slot_b = def 48 "store_slot_b" [ Slot; Name ]
let op_store_gslot_b = def 49 "store_gslot_b" [ Slot; Name ]
let op_store_deref = def 50 "store_deref" []  (* pop ptr V, value V *)
let op_store_index = def 51 "store_index" []  (* pop idx I, base V, value V *)
let op_store_map = def 52 "store_map" []  (* pop key V, map V, value V *)
let op_store_thru = def 53 "store_thru" []  (* pop ptr V, value V *)
let op_index_v = def 54 "index_v" []  (* pop idx I, base V, push V *)
let op_index_i = def 55 "index_i" []  (* same, push I (also string byte) *)
let op_index_b = def 56 "index_b" []
let op_field_v = def 57 "field_v" [ Field; Cache; Name ]  (* pop base V *)
let op_field_i = def 58 "field_i" [ Field; Cache; Name ]
let op_field_b = def 59 "field_b" [ Field; Cache; Name ]
let op_mapget_v = def 60 "mapget_v" [ Tbl "zero"; Cache ]  (* pop key, map V *)
let op_mapget_i = def 61 "mapget_i" [ Tbl "zero"; Cache ]
let op_mapget_b = def 62 "mapget_b" [ Tbl "zero"; Cache ]
let op_mapget_ok = def 63 "mapget_ok" [ Tbl "zero" ]  (* push VTuple *)
let op_len = def 64 "len" []  (* pop V, push I *)
let op_cap = def 65 "cap" []
let op_itoa = def 66 "itoa" []  (* pop I, push V *)
let op_rand = def 67 "rand" []  (* pop I, push I *)
let op_substr = def 68 "substr" []  (* pop hi I, lo I, string V; push V *)
let op_slice_sub = def 69 "slice_sub" [ Key "flags" ]
    (* bit0 lo, bit1 hi: pop those bounds I, base V *)
let op_slice_copy = def 70 "slice_copy" []  (* pop src V, dst V; push I *)
let op_deref = def 71 "deref" []  (* pop V, push V *)
let op_call = def 72 "call" [ Tbl "fn"; Key "nargs" ]
    (* pop args V, push pinned result V *)
let op_call_undef = def 73 "call_undef" [ Name; Key "nargs" ]
let op_go = def 74 "go" [ Tbl "fn"; Key "nargs" ]  (* args already copied *)
let op_go_undef = def 75 "go_undef" [ Name; Key "nargs" ]
let op_defer = def 76 "defer" [ Tbl "fn"; Key "nargs" ]
let op_defer_undef = def 77 "defer_undef" [ Name; Key "nargs" ]
let op_check_len = def 78 "check_len" []
    (* peek I: negative-length panic before cap eval *)
let op_make_slice = def 79 "make_slice" [ Site; Tbl "zero"; Key "cap" ]
    (* pop [cap I,] len I *)
(* A map's bucket columns ({!Value.key_kind}/{!Value.val_kind}), one
   code per pair, shown key/value. *)
let map_key_kinds = [| Value.Kint; Value.Kbool; Value.Kstr; Value.Kval |]
let map_val_kinds = [| Value.Vint; Value.Vbool; Value.Vval |]
let map_columns =
  [| "int/int"; "int/bool"; "int/value"; "bool/int"; "bool/bool";
     "bool/value"; "string/int"; "string/bool"; "string/value";
     "value/int"; "value/bool"; "value/value" |]

let map_columns_code key value =
  (3 * match key with Value.Kint -> 0 | Kbool -> 1 | Kstr -> 2 | Kval -> 3)
  + match value with Value.Vint -> 0 | Vbool -> 1 | Vval -> 2

let op_make_map = def 80 "make_map" [ Site; Enum map_columns ]
let op_new = def 81 "new" [ Site; Tbl "zero" ]
let op_slice_lit = def 82 "slice_lit" [ Site; Int; Tbl "zero" ]  (* pop n copied V *)
let op_struct_lit = def 83 "struct_lit" [ Int ]  (* pop n copied V *)
let op_addr_struct_lit = def 84 "addr_struct_lit" [ Site; Int ]
let op_append = def 85 "append" [ Site; Int; Tbl "zero" ]
    (* pop n copied elems V, base V *)
let op_addr_slot = def 86 "addr_slot" [ Slot; Name ]  (* push VPtr *)
let op_addr_gslot = def 87 "addr_gslot" [ Slot; Name ]
let op_addr_index = def 88 "addr_index" []  (* pop idx I, base V; push VPtr *)
let op_addr_field_ptr = def 89 "addr_field_ptr" [ Field ]
    (* pop ptr-base V; push VPtr *)
let op_addr_field_slot = def 90 "addr_field_slot" [ Slot; Field; Name ]
let op_addr_field_gslot = def 91 "addr_field_gslot" [ Slot; Field; Name ]
let op_tuple_check =
  def 92 "tuple_check" [ Int; Enum [| "decl"; "assign" |] ]  (* peek V *)
let op_tuple_get = def 93 "tuple_get" [ Int ]  (* peek tuple V, push elt V *)
let op_print = def 94 "print" [ Int ]  (* pop n strings V *)
let op_tostr = def 95 "tostr" []  (* pop V, push VStr *)
let op_tcfree = def 96 "tcfree" [ Slot; Enum [| "slice"; "map"; "obj" |] ]
let op_delete = def 97 "delete" []  (* pop key V, map V *)
let op_panic = def 98 "panic" []  (* pop V *)
let op_recover = def 99 "recover" []  (* push V *)
let op_range_start = def 100 "range_start" [ Target ]
    (* the exit: pop map V, push key iterator *)
let op_range_next = def 101 "range_next" [ Tbl "decl"; Target ]  (* the end *)
let op_range_pop = def 102 "range_pop" []  (* drop the top iterator (break) *)
(* Superinstructions: fusions of the sequences above that dominate hot
   loops.  Each replicates its unfused expansion exactly (same
   evaluation order, same panics in the same order), so observable
   behaviour cannot differ; they only cut dispatches and the
   allocations the expansion's boxing steps would make.  A fused form
   stays only while a measured workload dispatches it (EXPERIMENTS.md,
   "Opcode economy"). *)
let op_addk_i = def 103 "addk_i" [ Int ]  (* top of I += k *)
let op_subk_i = def 104 "subk_i" [ Int ]
let op_mulk_i = def 105 "mulk_i" [ Int ]
let op_divk_i = def 106 "divk_i" [ Int ]
    (* keeps the divide-by-zero panic when k = 0 *)
let op_modk_i = def 107 "modk_i" [ Int ]
let op_sfield_v = def 108 "sfield_v" [ Slot; Field; Cache; Name; Name ]
let op_sfield_i = def 109 "sfield_i" [ Slot; Field; Cache; Name; Name ]
    (* = [vload slot; field_i f] fused *)
let op_fstore_i = def 110 "fstore_i" [ Field ]
    (* pop ptr-base V, value I; store *)
let op_jlt_not = def 111 "jlt_not" [ Target ]  (* pop 2 I, jump unless a < b *)
let op_jge_not = def 112 "jge_not" [ Target ]
let op_jlek_not = def 113 "jlek_not" [ Int; Target ]
    (* pop 1 I, jump unless a <= k *)
let op_jgtk_not = def 114 "jgtk_not" [ Int; Target ]
let op_jgek_not = def 115 "jgek_not" [ Int; Target ]
let op_jeqk_not = def 116 "jeqk_not" [ Int; Target ]
let op_jnek_not = def 117 "jnek_not" [ Int; Target ]

(* Register locals: int/bool locals kept unboxed in the call's register
   file (the first [bf_nregs] words of its int-stack window) instead of a
   frame cell.  See {!Emit.register_slots} for which locals qualify. *)
let op_rload = def 118 "rload" [ Reg; Name ]  (* push register -> I *)
let op_rstore = def 119 "rstore" [ Reg; Name ]  (* pop I into register *)
let op_rinc = def 120 "rinc" [ Reg; Delta; Name ]  (* register += k *)

(* Address of a field of a nested struct value ([a[i].p.x], [f().q.y]):
   the base struct is evaluated, then its owner spine again, exactly like
   [Interp.eval_addr] and [owner_of_struct_base]. *)
let op_addr_field_val = def 121 "addr_field_val" [ Field ]
    (* pop owner-spine V, struct V; push VPtr owned by [Value.owner_of]
       of the spine *)

(* Loop and indexing superinstructions over register and frame-slot
   operands, read in place.  Each performs exactly the safepoints of the
   sequence it replaces, through the same [Vm.vm_safepoint], in the same
   order, and raises the same errors in the same order. *)
let op_safepoints = def 122 "safepoints" [ Int ]  (* n safepoints in a row *)
let op_loop_rinc = def 123 "loop_rinc" [ Reg; Delta; Name; Target ]
    (* = safepoint; rinc; jmp head; safepoint (the head's), then on to
       the condition *)
let op_jlt_rlen_not =
  def 124 "jlt_rlen_not" [ Reg; Name; Slot; Name; Target ]
    (* = rload; vload; len; jlt_not *)
let op_jlt_rr_not = def 125 "jlt_rr_not" [ Reg; Name; Reg; Name; Target ]
    (* = rload; rload; jlt_not *)
let op_index_i_sr = def 126 "index_i_sr" [ Slot; Name; Reg; Name ]
    (* = vload; rload; index_i *)

(* Int-slice forms: the element travels on the int stack, so storing,
   appending or building a [[]int] boxes nothing. *)
let op_store_index_i = def 127 "store_index_i" []
    (* pop idx I, base V, value I *)
let op_store_i_sr =
  def 128 "store_i_sr" [ Slot; Name; Reg; Name ]
    (* = vload; rload; store_index_i: pop value I *)
let op_slice_lit_i = def 129 "slice_lit_i" [ Site; Int ]  (* pop n I *)
let op_append_i = def 130 "append_i" [ Site; Int ]  (* pop n I, base V *)

(* Field-operand forms: fields of a frame local — a struct or a pointer
   to one — read in place, each exactly as [sfield_v]/[sfield_i] read
   it, inline-cache bookkeeping included; the scanner shapes
   [p.f < len(p.g)], [p.f[p.g]], [len(p.f)] and [p.f = p.f + k]. *)
let op_flen = def 131 "flen" [ Slot; Field; Cache; Name; Name ]
    (* = sfield_v; len: push I *)
let op_index_ff =
  def 132 "index_ff" [ Slot; Field; Cache; Field; Cache; Name; Name; Name ]
    (* = sfield_v p.f; sfield_i p.g; index_i: push I *)
let op_jlt_flen_not =
  def 133 "jlt_flen_not"
    [ Slot; Field; Cache; Field; Cache; Name; Name; Name; Target ]
    (* = sfield_i p.f; sfield_v p.g; len; jlt_not *)
let op_finc = def 134 "finc" [ Slot; Field; Cache; Delta; Name; Name ]
    (* [p.f = p.f + k] through a pointer: = sfield_i; addk_i; vload;
       fstore_i *)

(* Register-operand forms: an int op whose operand is a register local
   reads the register in place instead of going through [rload]. *)
let op_add_r = def 135 "add_r" [ Reg; Name ]  (* = rload; add_i *)
let op_sub_r = def 136 "sub_r" [ Reg; Name ]
let op_addk_r = def 137 "addk_r" [ Reg; Int; Name ]  (* = rload; addk_i: push I *)
let op_mulk_r = def 138 "mulk_r" [ Reg; Int; Name ]
let op_modk_r = def 139 "modk_r" [ Reg; Int; Name ]
let op_jlt_rk_not = def 140 "jlt_rk_not" [ Reg; Name; Int; Target ]
    (* = rload; iconst k; jlt_not *)
let op_jle_rk_not = def 141 "jle_rk_not" [ Reg; Name; Int; Target ]
    (* = rload; jlek_not *)
let op_jgt_rk_not = def 142 "jgt_rk_not" [ Reg; Name; Int; Target ]
let op_jge_rk_not = def 143 "jge_rk_not" [ Reg; Name; Int; Target ]
let op_jeq_rk_not = def 144 "jeq_rk_not" [ Reg; Name; Int; Target ]
let op_jne_rk_not = def 145 "jne_rk_not" [ Reg; Name; Int; Target ]

(* Rotated counted loops: a [loop_rinc] back edge that re-tests the
   loop's condition itself, a copy of the head's [jlt_rr_not],
   [jlt_rlen_not] or [jlt_rk_not] — the operands after the three
   targets.  = safepoint; rinc; jmp head; safepoint; the head's test,
   then, when it holds, the body's leading safepoint.  The targets: the
   head's test (where the unfused sequence would go on), the body past
   its leading safepoint, and the loop's exit. *)
let rotated_operands = [ Reg; Delta; Name; Target; Target; Target ]

let op_loop_lt_rr =
  def 146 "loop_lt_rr" (rotated_operands @ [ Reg; Name; Reg; Name ])
let op_loop_lt_rlen =
  def 147 "loop_lt_rlen" (rotated_operands @ [ Reg; Name; Slot; Name ])
let op_loop_lt_rk = def 148 "loop_lt_rk" (rotated_operands @ [ Reg; Name; Int ])

(* Word-operand map forms: an int or bool key or value travels on the
   int stack, so reading or storing one boxes nothing.  Each is the
   boxed form's bucket operation with the box left out. *)
let op_mapget_ii = def 149 "mapget_ii" [ Cache ]
    (* pop key I, map V; push I *)
let op_store_map_ii = def 150 "store_map_ii" []
    (* pop key I, map V, value I *)
let op_store_map_vi = def 151 "store_map_vi" []
    (* pop key V, map V, value I *)

(* An element field of a slice of structs, addressed in its slot of the
   flat store: [a[i].f] read, and [&a[i].f]. *)
let op_elem_field_v = def 152 "elem_field_v" [ Field ]
    (* pop idx I, slice V; push V *)
let op_elem_field_i = def 153 "elem_field_i" [ Field ]
    (* pop idx I, slice V; push I *)
let op_addr_elem_field = def 154 "addr_elem_field" [ Field ]
    (* pop idx I, slice V; push V *)
(* = vload a; rload i; elem_field_i/_v: the slice a frame local, the
   index a register *)
let op_elem_field_i_sr =
  def 155 "elem_field_i_sr" [ Slot; Name; Reg; Name; Field ]  (* push I *)
let op_elem_field_v_sr =
  def 156 "elem_field_v_sr" [ Slot; Name; Reg; Name; Field ]  (* push V *)
(* [append(s, T{...})]: the literal's n fields straight into the flat
   store, with no struct value between *)
let op_append_fields = def 157 "append_fields" [ Site; Int; Tbl "zero" ]
    (* pop n copied V, base V; push V *)

(** The rotated back edge that re-tests head test [op], if it has one. *)
let rotated op =
  if op = op_jlt_rr_not then Some op_loop_lt_rr
  else if op = op_jlt_rlen_not then Some op_loop_lt_rlen
  else if op = op_jlt_rk_not then Some op_loop_lt_rk
  else None

(* One past the highest number; the table being dense, also the number
   of opcodes (test_disasm checks both). *)
let n_opcodes =
  let n = ref 0 and defined = ref 0 in
  Array.iteri
    (fun op s ->
      if s <> None then begin
        n := op + 1;
        incr defined
      end)
    specs;
  assert (!defined = !ndefs);
  !n

let spec op = if op >= 0 && op < n_opcodes then specs.(op) else None

let op_name op =
  match spec op with
  | Some (name, _) -> name
  | None -> Printf.sprintf "op%d" op

(** Operand kinds of an opcode; empty for an undefined one. *)
let operands op =
  match spec op with Some (_, kinds) -> Array.of_list kinds | None -> [||]

(** Operand count per opcode (instruction width − 1). *)
let arity op = Array.length (operands op)

(** A map-key site's cache contents: the identity of the map the site
    last read.  Its header and buckets never change, so a reader sees a
    coherent pair through a single pointer load — goroutines on
    different domains may race on the cache, and a torn header/buckets
    combination would probe the wrong map.  A hit requires physically
    the same header object (a record never stands for another map) and
    an unchanged [md_version] (bumped by every store/delete/grow/free);
    the cached buckets are then by construction the map's current ones,
    so the key is probed there directly, skipping both payload reads.
    A miss that finds the same header and buckets (a store in between
    that did not grow the map) only moves [ce_ver] forward; any other
    miss replaces the snapshot.  So reading a map with ever new keys, or
    one that a loop also stores to, allocates nothing. *)
type centry = {
  ce_a : Gofree_runtime.Heap.obj;  (* map header; [no_obj] empty *)
  ce_md : Value.map_data;  (* header payload; version read directly *)
  mutable ce_ver : int;  (* a version at which [ce_b] was current *)
  ce_b : Value.buckets;  (* the map's buckets as of [ce_ver] *)
}

(** A monomorphic inline-cache record.  Map-key sites replace the whole
    [c_e] snapshot on update; struct-field sites use [c_a] as the
    cached base shape (1 = struct value, 2 = pointer) — a single
    immediate field, so races can at worst cause a spurious miss. *)
type cache = {
  mutable c_a : int;  (* field-site shape; -1 empty *)
  mutable c_e : centry;  (* map-key site snapshot *)
}

let empty_md : Value.map_data =
  {
    Value.md_buckets = Gofree_runtime.Heap.no_obj;
    md_nbuckets = 1;
    md_count = 0;
    md_entry_size = 2;
    md_version = -1;
  }

let empty_centry =
  {
    ce_a = Gofree_runtime.Heap.no_obj;
    ce_md = empty_md;
    ce_ver = -1;
    ce_b = Value.make_buckets Value.Kval Value.Vval 1;
  }

let fresh_cache () = { c_a = -1; c_e = empty_centry }

(** Where a variable lives for the call, resolved at emission time: an
    int or bool register (see {!Emit.register_slots}), or a frame slot
    holding a fresh cell — [Hbox] when {!Decisions} boxes the variable,
    with the heap box's size.  Parameters are bound to their homes on
    entry ([bf_params]); declared locals by [decl] ([bf_decls], never a
    register: register locals are written by [rstore]). *)
type home =
  | Hint of int  (* register *)
  | Hbool of int  (* register *)
  | Hcell of int  (* frame slot *)
  | Hbox of int * int  (* frame slot, heap-box size in bytes *)

(** One lowered function: the flat code plus its side tables.  The
    header fields pre-size the frame slot array and both operand stacks
    for the whole call. *)
type fn = {
  bf_name : string;
  bf_nslots : int;
  bf_nregs : int;  (* register locals, ahead of the int operand stack *)
  bf_max_v : int;  (* value operand stack depth *)
  bf_max_i : int;  (* unboxed int/bool operand stack depth *)
  bf_code : int array;
  bf_consts : Value.value array;  (* strings, floats, nil *)
  bf_sites : Tast.alloc_site array;
  bf_zeros : (unit -> Value.value) array;
  bf_binops : Ast.binop array;
  bf_names : string array;  (* variable/callee names for errors/disasm *)
  bf_decls : home array;  (* [decl] operands *)
  bf_caches : cache array;
  bf_params : home array;  (* in declaration order *)
  bf_pnames : string array;
  bf_zeros_ret : Interp.state -> Value.value;
      (* the packed zero results, for falling off the end or a
         recovered panic *)
  mutable bf_prog : fn array;
      (* the program this function belongs to: [call] operands index
         it.  Set once, right after the whole program is lowered. *)
}

type program = fn array

(* ------------------------------------------------------------------ *)
(* Disassembler                                                        *)
(* ------------------------------------------------------------------ *)

let binop_name : Ast.binop -> string = function
  | Ast.Badd -> "+"
  | Ast.Bsub -> "-"
  | Ast.Bmul -> "*"
  | Ast.Bdiv -> "/"
  | Ast.Bmod -> "%"
  | Ast.Band_bits -> "&"
  | Ast.Bor_bits -> "|"
  | Ast.Bxor -> "^"
  | Ast.Bshl -> "<<"
  | Ast.Bshr -> ">>"
  | Ast.Beq -> "=="
  | Ast.Bne -> "!="
  | Ast.Blt -> "<"
  | Ast.Ble -> "<="
  | Ast.Bgt -> ">"
  | Ast.Bge -> ">="
  | Ast.Band -> "&&"
  | Ast.Bor -> "||"

(* One operand as the listing shows it: inline text, plus text for the
   trailing comment (variable names, constants, operators). *)
let show_operand (f : fn) kind v : string option * string option =
  let idx tbl n =
    if v >= 0 && v < Array.length tbl then Some (n tbl.(v)) else None
  in
  match kind with
  | Int | Slot | Reg -> (Some (string_of_int v), None)
  | Delta -> (Some (Printf.sprintf "%+d" v), None)
  | Name -> (None, Some (Option.value (idx f.bf_names Fun.id) ~default:"?"))
  | Target -> (Some (Printf.sprintf "-> %d" v), None)
  | Cache -> (Some (Printf.sprintf "ic#%d" v), None)
  | Field -> (Some (Printf.sprintf ".%d" v), None)
  | Const -> (Some (string_of_int v), idx f.bf_consts Value.to_string)
  | Binop -> (Some (string_of_int v), idx f.bf_binops binop_name)
  | Site ->
    ( Some
        (Printf.sprintf "site#%d"
           (Option.value (idx f.bf_sites (fun s -> s.Tast.site_id))
              ~default:(-1))),
      None )
  | Tbl t -> (Some (Printf.sprintf "%s#%d" t v), None)
  | Key k -> (Some (Printf.sprintf "%s=%d" k v), None)
  | Enum names ->
    (Some (if v >= 0 && v < Array.length names then names.(v) else "?"), None)

(* A parameter's home as the function header shows it. *)
let show_param name = function
  | Hint r | Hbool r -> Printf.sprintf "%s:r%d" name r
  | Hcell s -> Printf.sprintf "%s:s%d" name s
  | Hbox (s, _) -> Printf.sprintf "%s:box%d" name s

let disasm_fn (b : Buffer.t) (f : fn) =
  Printf.bprintf b
    "func %s: slots=%d regs=%d stack=%d/%d code=%d caches=%d%s\n" f.bf_name
    f.bf_nslots f.bf_nregs f.bf_max_v f.bf_max_i (Array.length f.bf_code)
    (Array.length f.bf_caches)
    (if f.bf_params = [||] then ""
     else
       " params="
       ^ String.concat ","
           (Array.to_list (Array.map2 show_param f.bf_pnames f.bf_params)));
  let code = f.bf_code in
  let pc = ref 0 in
  while !pc < Array.length code do
    let op = code.(!pc) in
    let kinds = operands op in
    let shown =
      Array.to_list
        (Array.mapi
           (fun k kind ->
             let at = !pc + 1 + k in
             show_operand f kind
               (if at < Array.length code then code.(at) else 0))
           kinds)
    in
    Printf.bprintf b "  %4d  %-16s%s" !pc (op_name op)
      (String.concat " " (List.filter_map fst shown));
    (match List.filter_map snd shown with
    | [] -> ()
    | notes -> Printf.bprintf b "  ; %s" (String.concat " " notes));
    Buffer.add_char b '\n';
    pc := !pc + 1 + Array.length kinds
  done

let disasm (p : program) : string =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b '\n';
      disasm_fn b f)
    p;
  Buffer.contents b
