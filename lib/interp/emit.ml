(** Emission pass: compiles the {!Layout}-resolved typed AST to the flat
    bytecode of {!Bytecode}, once per program.

    Operands are resolved at emission time: variables to frame/global
    slot indices, callees to interned function ids, jump targets to
    absolute code offsets (with jump-to-jump chains threaded).  The
    emitter is type-directed: expressions of type [int]/[bool] evaluate
    on the VM's unboxed native-int stack, everything else on the boxed
    value stack, with explicit box/unbox instructions at the boundary.
    A [[]int]'s store is unboxed ({!Value}), so storing into one,
    appending to one and listing one take their elements straight from
    the int stack and box nothing.

    Every construct gets opcodes whose {!Vm} implementations replicate
    the reference walker ({!Interp.eval}, [Interp.exec_stmt],
    [Interp.eval_addr]) step by step and call the same shared helpers
    in the same order — the differential suite holds the VM and the
    walker to byte-identical observable behaviour.  A declaration names
    its variable's home ({!declare}: slot, boxing decision, box size).
    Two storage decisions depart from the walker without changing
    anything observable: int/bool locals and parameters that nothing but
    this function's bytecode can see live in native registers
    ({!register_slots}), and blocks that cannot stack-allocate open no
    scope ({!stack_allocates}).  {!param_homes} tells the VM where each
    parameter goes.  A run lowers only the functions its entry points
    reach ({!lower}). *)

open Minigo
module B = Bytecode
module Rt = Gofree_runtime

(* Per-program emission context. *)
type ctx = {
  tenv : Types.env;
  decisions : Decisions.t;
  layout : Layout.t;
}

(* Where a declared variable that is not a register lives: its frame
   slot, with the boxing decision and heap-box size resolved at emission
   time (mirrors [Interp.declare_var]). *)
let declare ctx (v : Tast.var) : B.home =
  let s = Layout.slot ctx.layout v in
  if Decisions.var_is_boxed ctx.decisions v then
    B.Hbox (s, max 8 (Types.size_of ctx.tenv v.Tast.v_ty))
  else B.Hcell s

(* Growable int vector (the code buffer). *)
type ivec = { mutable iv_a : int array; mutable iv_n : int }

let ivec () = { iv_a = Array.make 128 0; iv_n = 0 }

let ipush v x =
  if v.iv_n = Array.length v.iv_a then begin
    let a = Array.make (2 * v.iv_n) 0 in
    Array.blit v.iv_a 0 a 0 v.iv_n;
    v.iv_a <- a
  end;
  v.iv_a.(v.iv_n) <- x;
  v.iv_n <- v.iv_n + 1

(* Append-only side table accumulated in reverse. *)
type 'a tbl = { mutable t_items : 'a list; mutable t_n : int }

let tbl () = { t_items = []; t_n = 0 }

let tbl_add t x =
  let i = t.t_n in
  t.t_items <- x :: t.t_items;
  t.t_n <- i + 1;
  i

let tbl_array t = Array.of_list (List.rev t.t_items)

(* What an enclosing scope is, for break/continue/scope-pop emission. *)
type scope_kind =
  | Kblock
  | Kfor of int * int  (* exit label (pops the for scope), post label *)
  | Krange of int * int  (* next label, end label *)

type fctx = {
  ctx : ctx;
  code : ivec;
  consts : Value.value tbl;
  sites : Tast.alloc_site tbl;
  zeros : (unit -> Value.value) tbl;
  binops : Ast.binop tbl;
  names : string tbl;
  names_tbl : (string, int) Hashtbl.t;
  decls : B.home tbl;
  mutable ncaches : int;
  mutable labels : int array;  (* label id -> code offset, -1 unset *)
  mutable nlabels : int;
  mutable patches : (int * int) list;  (* code offset to patch, label *)
  mutable scopes : scope_kind list;
      (* emitted scopes only: an elided block scope is absent, so the
         break/continue unwinders pop exactly what was pushed *)
  regs : int array;  (* frame slot -> register, or -1 *)
  mutable cur_v : int;
  mutable max_v : int;
  mutable cur_i : int;
  mutable max_i : int;
  mutable last_pos : int;
      (* code offset of the last emitted opcode, or -1 after a label
         mark; lets the branch emitter fuse an immediately preceding
         compare into one compare-and-branch instruction *)
}

let fctx ctx regs =
  {
    ctx;
    regs;
    code = ivec ();
    consts = tbl ();
    sites = tbl ();
    zeros = tbl ();
    binops = tbl ();
    names = tbl ();
    names_tbl = Hashtbl.create 16;
    decls = tbl ();
    ncaches = 0;
    labels = Array.make 16 (-1);
    nlabels = 0;
    patches = [];
    scopes = [];
    cur_v = 0;
    max_v = 0;
    cur_i = 0;
    max_i = 0;
    last_pos = -1;
  }

(* Operand-stack effect of every emitted instruction, tracked statically
   so the VM can pre-size both stacks from the function header. *)
let adj f dv di =
  f.cur_v <- f.cur_v + dv;
  if f.cur_v > f.max_v then f.max_v <- f.cur_v;
  f.cur_i <- f.cur_i + di;
  if f.cur_i > f.max_i then f.max_i <- f.cur_i

let op0 f ~dv ~di op =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  adj f dv di

let op1 f ~dv ~di op a =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  ipush f.code a;
  adj f dv di

let op2 f ~dv ~di op a b =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  ipush f.code a;
  ipush f.code b;
  adj f dv di

let op3 f ~dv ~di op a b c =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  ipush f.code a;
  ipush f.code b;
  ipush f.code c;
  adj f dv di

let opn f ~dv ~di op operands =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  List.iter (fun x -> ipush f.code x) operands;
  adj f dv di

let new_label f =
  if f.nlabels = Array.length f.labels then begin
    let a = Array.make (2 * f.nlabels) (-1) in
    Array.blit f.labels 0 a 0 f.nlabels;
    f.labels <- a
  end;
  let l = f.nlabels in
  f.nlabels <- l + 1;
  l

let mark f l =
  f.labels.(l) <- f.code.iv_n;
  (* a label may now point here, so the next branch must not rewrite
     the preceding instruction in place *)
  f.last_pos <- -1

(* Emit a jump-family instruction: [pre] operands first, then the label
   operands (recorded for patching), then [post] operands. *)
let opjmps f ~dv ~di op pre ls post =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  List.iter (ipush f.code) pre;
  List.iter
    (fun l ->
      f.patches <- (f.code.iv_n, l) :: f.patches;
      ipush f.code 0)
    ls;
  List.iter (ipush f.code) post;
  adj f dv di

let opjmp f ~dv ~di op pre l = opjmps f ~dv ~di op pre [ l ] []

(* The compare-and-branch that a stack compare [op] fuses into. *)
let jcmp_opcode op =
  if op = B.op_lt_i then Some B.op_jlt_not
  else if op = B.op_ge_i then Some B.op_jge_not
  else None

(* Emit [jmpifnot l], fusing an immediately preceding [lt_i] or [ge_i]
   into one compare-and-branch superinstruction.  Safe because [mark]
   resets [last_pos], so no label can point at the branch being
   absorbed, and opcode values are unique, so the width + opcode check
   proves the preceding word really is that compare. *)
let opjmpifnot f l =
  let code = f.code in
  let p = f.last_pos in
  let fused =
    p >= 0 && p = code.iv_n - 1
    &&
    match jcmp_opcode code.iv_a.(p) with
    | Some jop ->
      code.iv_a.(p) <- jop;
      true
    | None -> false
  in
  if fused then begin
    f.patches <- (code.iv_n, l) :: f.patches;
    ipush code 0;
    f.last_pos <- -1;
    (* the compare already accounted its own pop; the branch pops the
       flag the fused form never materializes *)
    adj f 0 (-1)
  end
  else opjmp f ~dv:0 ~di:(-1) B.op_jmpifnot [] l

(* Emit a statement safepoint, merging it into an immediately preceding
   [safepoint] or [safepoints n] (same reasoning as {!opjmpifnot}: no
   label points between them).  The merged instruction runs the same
   safepoints, in the same order, in one dispatch. *)
let opsafepoint f =
  let code = f.code in
  let p = f.last_pos in
  if p >= 0 && p = code.iv_n - 1 && code.iv_a.(p) = B.op_safepoint then begin
    code.iv_a.(p) <- B.op_safepoints;
    ipush code 2
  end
  else if p >= 0 && p = code.iv_n - 2 && code.iv_a.(p) = B.op_safepoints then
    code.iv_a.(p + 1) <- code.iv_a.(p + 1) + 1
  else op0 f ~dv:0 ~di:0 B.op_safepoint

let name_idx f s =
  match Hashtbl.find_opt f.names_tbl s with
  | Some i -> i
  | None ->
    let i = tbl_add f.names s in
    Hashtbl.add f.names_tbl s i;
    i

let slot f v = Layout.slot f.ctx.layout v

let is_global (v : Tast.var) = v.Tast.v_kind = Tast.Vglobal

(* The register holding local [v], or -1 when it lives in a frame cell. *)
let reg f v = if is_global v then -1 else f.regs.(slot f v)

(* A local that lives in a frame cell: the slice or string operand an
   indexing or [len] superinstruction reads in place. *)
let frame_local f v = (not (is_global v)) && reg f v < 0

let new_cache f =
  let i = f.ncaches in
  f.ncaches <- i + 1;
  i

(* [p.f] where [p] is a local struct or pointer to one: the operand
   [sfield_v]/[sfield_i] and the field-operand forms read in place.
   Such a local is never a register (only ints and bools are). *)
let slot_field_of (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tfield ({ Tast.desc = Tast.Tvar v; _ }, idx, name)
    when not (is_global v) ->
    Some (v, idx, name)
  | _ -> None

(* [p.f] and [p.g] of the same local [p]: the operands of the
   two-field forms. *)
let same_slot_fields a b =
  match (slot_field_of a, slot_field_of b) with
  | Some (p, f, fname), Some (q, g, gname) when p.Tast.v_id = q.Tast.v_id ->
    Some (p, (f, fname), (g, gname))
  | _ -> None

let is_int (e : Tast.expr) = e.Tast.ty = Types.Int

(* An int local held in a register: the operand the register-operand
   forms read in place. *)
let reg_int f (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tvar v -> is_int e && reg f v >= 0
  | _ -> false

let is_bool (e : Tast.expr) = e.Tast.ty = Types.Bool

(* An int or bool key or value of a map operation, which travels on the
   I stack — unless it is a call's result, which is boxed already. *)
let word_operand (e : Tast.expr) =
  (is_int e || is_bool e)
  && match e.Tast.desc with Tast.Tcall _ -> false | _ -> true

(* A [[]int]: its backing store is unboxed, so its elements are stored,
   appended and listed from the I stack. *)
let is_int_slice (e : Tast.expr) = e.Tast.ty = Types.Slice Types.Int

(* Only a struct value has copy semantics: {!Value.copy} is the identity
   on every other value, so [copy] is emitted for struct types alone. *)
let is_struct = function Types.Struct _ -> true | _ -> false

let int_binop_opcode = function
  | Ast.Badd -> Some B.op_add_i
  | Ast.Bsub -> Some B.op_sub_i
  | Ast.Bmul -> Some B.op_mul_i
  | Ast.Bdiv -> Some B.op_div_i
  | Ast.Bmod -> Some B.op_mod_i
  | Ast.Band_bits -> Some B.op_and_i
  | Ast.Bor_bits -> Some B.op_or_i
  | Ast.Bxor -> Some B.op_xor_i
  | Ast.Bshl -> Some B.op_shl_i
  | Ast.Bshr -> Some B.op_shr_i
  | _ -> None

let int_cmp_opcode = function
  | Ast.Blt -> Some B.op_lt_i
  | Ast.Ble -> Some B.op_le_i
  | Ast.Bgt -> Some B.op_gt_i
  | Ast.Bge -> Some B.op_ge_i
  | Ast.Beq -> Some B.op_eq_i
  | Ast.Bne -> Some B.op_ne_i
  | _ -> None

(* Constant-operand forms.  [divk]/[modk] keep the divide-by-zero panic
   for k = 0 inside the opcode, so fusing never changes behaviour. *)
let int_binop_k_opcode = function
  | Ast.Badd -> Some B.op_addk_i
  | Ast.Bsub -> Some B.op_subk_i
  | Ast.Bmul -> Some B.op_mulk_i
  | Ast.Bdiv -> Some B.op_divk_i
  | Ast.Bmod -> Some B.op_modk_i
  | _ -> None

(* Branch unless [x op k]: [<] has no constant form, and takes
   [iconst k; jlt_not]. *)
let jcmpk_opcode = function
  | Ast.Ble -> Some B.op_jlek_not
  | Ast.Bgt -> Some B.op_jgtk_not
  | Ast.Bge -> Some B.op_jgek_not
  | Ast.Beq -> Some B.op_jeqk_not
  | Ast.Bne -> Some B.op_jnek_not
  | _ -> None

(* Branch unless [R[r] op k]. *)
let jcmp_rk_opcode = function
  | Ast.Blt -> Some B.op_jlt_rk_not
  | Ast.Ble -> Some B.op_jle_rk_not
  | Ast.Bgt -> Some B.op_jgt_rk_not
  | Ast.Bge -> Some B.op_jge_rk_not
  | Ast.Beq -> Some B.op_jeq_rk_not
  | Ast.Bne -> Some B.op_jne_rk_not
  | _ -> None

(* Register-operand forms: [I[top] op= R[r]] and [R[r] op k]. *)
let reg_binop_opcode = function
  | Ast.Badd -> Some B.op_add_r
  | Ast.Bsub -> Some B.op_sub_r
  | _ -> None

let reg_k_opcode = function
  | Ast.Badd -> Some B.op_addk_r
  | Ast.Bmul -> Some B.op_mulk_r
  | Ast.Bmod -> Some B.op_modk_r
  | _ -> None

(* k OP x rewritten as x OP' k (an int literal's evaluation has no
   observable effect, so the operand reorder is invisible). *)
let mirror_cmp = function
  | Ast.Blt -> Ast.Bgt
  | Ast.Ble -> Ast.Bge
  | Ast.Bgt -> Ast.Blt
  | Ast.Bge -> Ast.Ble
  | op -> op

(* ------------------------------------------------------------------ *)
(* Storage decisions                                                   *)
(* ------------------------------------------------------------------ *)

(* Register locals: which int/bool locals and parameters of [fn] live
   in VM registers (slots of the call's int-stack window, read and
   written only by [rload]/[rstore]/[rinc]) instead of frame cells.  A
   variable qualifies when nothing but this function's bytecode reaches
   its storage:
   - it is a parameter, or a local declared by a plain [Sdecl], with
     type int or bool, and {!Decisions} leaves it unboxed (a boxed one is
     a heap object);
   - it is never address-taken and never a target of a multi-value
     assignment (both reach the cell through its frame binding).
   An int or bool cell holds no heap pointer, so the frame slot it leaves
   unbound was never a GC root.  A parameter's register is written from
   the argument window on entry, before the body runs, and every read of
   a local is lexically preceded by its declaration, which writes the
   register.  Parameters take the first registers, in order.  Returns
   the frame slot -> register map (-1 = frame cell) and the register
   count. *)
let register_slots (ctx : ctx) (fn : Tast.func) nslots =
  let regs = Array.make nslots (-1) in
  let unboxed_scalar (v : Tast.var) =
    (v.Tast.v_ty = Types.Int || v.Tast.v_ty = Types.Bool)
    && not (Decisions.var_is_boxed ctx.decisions v)
  in
  let candidates =
    ref (List.rev (List.filter unboxed_scalar fn.Tast.f_params))
  in
  let excluded = Hashtbl.create 8 in
  let exclude (lv : Tast.lvalue) =
    match lv with
    | Tast.Lvar v -> Hashtbl.replace excluded v.Tast.v_id ()
    | _ -> ()
  in
  let expr =
    Tast.iter_expr (fun e ->
        match e.Tast.desc with
        | Tast.Taddr lv -> exclude lv
        | _ -> ())
  in
  Tast.iter_stmts
    (fun s ->
      (match s with
      | Tast.Sdecl (v, _) when v.Tast.v_kind = Tast.Vlocal && unboxed_scalar v
        ->
        candidates := v :: !candidates
      | Tast.Smulti_assign (lvs, _) -> List.iter exclude lvs
      | _ -> ());
      Tast.iter_stmt_exprs expr s)
    fn.Tast.f_body;
  let n = ref 0 in
  List.iter
    (fun (v : Tast.var) ->
      if not (Hashtbl.mem excluded v.Tast.v_id) then begin
        regs.(Layout.slot ctx.layout v) <- !n;
        incr n
      end)
    (List.rev !candidates);
  (regs, !n)

(* Whether [b] contains, at any depth, an allocation site {!Decisions}
   places on the stack.  Only such a site registers an object in the
   innermost open scope ({!Interp.alloc_obj}; [append] growth is always
   heap-allocated, so its site never does).  Any other block would push
   and pop a scope that stays empty, which nothing can observe: the
   emitter leaves it out. *)
let stack_allocates f (b : Tast.block) =
  let decisions = f.ctx.decisions in
  let found = ref false in
  let site (e : Tast.expr) =
    match e.Tast.desc with
    | Tast.Tmake_slice (site, _, _, _)
    | Tast.Tmake_map (site, _, _)
    | Tast.Tnew (site, _)
    | Tast.Tslice_lit (site, _, _)
    | Tast.Taddr_struct_lit (site, _, _) ->
      if not (Decisions.site_is_heap decisions site) then found := true
    | _ -> ()
  in
  Tast.iter_stmts (Tast.iter_stmt_exprs (Tast.iter_expr site)) b;
  !found

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* [emit_i] leaves a native int on the I stack (expression type int);
   [emit_b] a 0/1 on the I stack (type bool); [emit_v] a value on the V
   stack (any type).  All three evaluate sub-expressions in exactly the
   reference walker's order.  [emit_v_raw] is the unguarded generic
   (boxed) emission every constructor supports — the fallback target of
   [emit_i]/[emit_b], so the three entry points cannot recurse through
   each other on the same expression. *)
let rec emit_i f (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tint n -> op1 f ~dv:0 ~di:1 B.op_iconst n
  | Tast.Tvar v when is_int e ->
    emit_load_i f v ~local:B.op_iload ~global:B.op_giload
  | Tast.Tbinop (op, a, b) when is_int e && int_binop_opcode op <> None
    -> begin
    (* commutative, and an int literal's evaluation has no effects *)
    let commutes = op = Ast.Badd || op = Ast.Bmul in
    match (a.Tast.desc, b.Tast.desc, int_binop_k_opcode op) with
    | _, Tast.Tint k, Some _ when reg_k_opcode op <> None && reg_int f a ->
      emit_reg_k f op a k
    | _, Tast.Tint k, Some opk ->
      emit_i f a;
      op1 f ~dv:0 ~di:0 opk k
    | Tast.Tint k, _, Some opk when commutes ->
      if reg_int f b then emit_reg_k f op b k
      else begin
        emit_i f b;
        op1 f ~dv:0 ~di:0 opk k
      end
    | _, Tast.Tvar v, _ when reg_int f b && reg_binop_opcode op <> None ->
      emit_i f a;
      (match reg_binop_opcode op with
      | Some opr -> op2 f ~dv:0 ~di:0 opr (reg f v) (name_idx f v.Tast.v_name)
      | None -> assert false)
    | _ ->
      emit_i f a;
      emit_i f b;
      (match int_binop_opcode op with
      | Some opc -> op0 f ~dv:0 ~di:(-1) opc
      | None -> assert false)
  end
  | Tast.Tunop (Ast.Uneg, a) when is_int e ->
    emit_i f a;
    op0 f ~dv:0 ~di:0 B.op_neg_i
  | Tast.Tindex
      ({ Tast.desc = Tast.Tvar a; _ }, { Tast.desc = Tast.Tvar i; _ })
    when is_int e && frame_local f a && reg f i >= 0 ->
    opn f ~dv:0 ~di:1 B.op_index_i_sr
      [ slot f a; name_idx f a.Tast.v_name; reg f i; name_idx f i.Tast.v_name ]
  | Tast.Tindex (a, i) when is_int e && same_slot_fields a i <> None -> begin
    (* [p.f[p.g]]: [sfield_v; sfield_i; index_i] fused *)
    match same_slot_fields a i with
    | Some (p, (fa, na), (fi, ni)) ->
      let ca = new_cache f in
      let ci = new_cache f in
      opn f ~dv:0 ~di:1 B.op_index_ff
        [ slot f p; fa; ca; fi; ci; name_idx f p.Tast.v_name; name_idx f na;
          name_idx f ni ]
    | None -> assert false
  end
  | Tast.Tindex (a, i) when is_int e ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:(-1) ~di:0 B.op_index_i
  | Tast.Tmap_get (m, k) when is_int e && word_operand k ->
    emit_v f m;
    emit_operand f k;
    op1 f ~dv:(-1) ~di:0 B.op_mapget_ii (new_cache f)
  | Tast.Tmap_get (m, k) when is_int e ->
    emit_v f m;
    emit_v f k;
    let z = tbl_add f.zeros (fun () -> Value.VInt 0) in
    op2 f ~dv:(-2) ~di:1 B.op_mapget_i z (new_cache f)
  | Tast.Tfield
      ( {
          Tast.desc =
            Tast.Tindex
              ({ Tast.desc = Tast.Tvar a; _ }, { Tast.desc = Tast.Tvar i; _ });
          ty = Types.Struct _;
          _;
        },
        idx,
        _ )
    when is_int e && frame_local f a && reg f i >= 0 ->
    opn f ~dv:0 ~di:1 B.op_elem_field_i_sr
      [ slot f a; name_idx f a.Tast.v_name; reg f i; name_idx f i.Tast.v_name;
        idx ]
  | Tast.Tfield ({ Tast.desc = Tast.Tindex (a, i); ty = Types.Struct _; _ }, idx, _)
    when is_int e ->
    emit_v f a;
    emit_i f i;
    op1 f ~dv:(-1) ~di:0 B.op_elem_field_i idx
  | Tast.Tfield
      (({ Tast.desc = Tast.Tderef a; ty = Types.Struct _; _ } | a), idx, name)
    when is_int e -> begin
    match a.Tast.desc with
    | Tast.Tvar v when not (is_global v) ->
      (* [vload; field_i] fused: one dispatch, no V-stack traffic *)
      opn f ~dv:0 ~di:1 B.op_sfield_i
        [ slot f v; idx; new_cache f; name_idx f v.Tast.v_name;
          name_idx f name ]
    | _ ->
      emit_v f a;
      op3 f ~dv:(-1) ~di:1 B.op_field_i idx (new_cache f) (name_idx f name)
  end
  | Tast.Tlen a -> begin
    match slot_field_of a with
    | Some (p, idx, name) ->
      (* [sfield_v; len] fused *)
      opn f ~dv:0 ~di:1 B.op_flen
        [ slot f p; idx; new_cache f; name_idx f p.Tast.v_name;
          name_idx f name ]
    | None ->
      emit_v f a;
      op0 f ~dv:(-1) ~di:1 B.op_len
  end
  | Tast.Tcap a ->
    emit_v f a;
    op0 f ~dv:(-1) ~di:1 B.op_cap
  | Tast.Trand a ->
    emit_i f a;
    op0 f ~dv:0 ~di:0 B.op_rand
  | Tast.Tcopy (dst, src) ->
    emit_v f dst;
    emit_v f src;
    op0 f ~dv:(-2) ~di:1 B.op_slice_copy
  | _ ->
    emit_v_raw f e;
    op0 f ~dv:(-1) ~di:1 B.op_unbox_i

and emit_b f (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tbool b -> op1 f ~dv:0 ~di:1 B.op_iconst (if b then 1 else 0)
  | Tast.Tvar v when is_bool e ->
    emit_load_i f v ~local:B.op_bload ~global:B.op_gbload
  | Tast.Tbinop (Ast.Band, a, b) ->
    (* lazy: if a then b else false, like the reference walker *)
    let l_false = new_label f in
    let l_end = new_label f in
    emit_cond f a l_false;
    let base_i = f.cur_i in
    emit_b f b;
    opjmp f ~dv:0 ~di:0 B.op_jmp [] l_end;
    f.cur_i <- base_i;
    mark f l_false;
    op1 f ~dv:0 ~di:1 B.op_iconst 0;
    mark f l_end
  | Tast.Tbinop (Ast.Bor, a, b) ->
    emit_b f a;
    let l_true = new_label f in
    let l_end = new_label f in
    opjmp f ~dv:0 ~di:(-1) B.op_jmpif [] l_true;
    let base_i = f.cur_i in
    emit_b f b;
    opjmp f ~dv:0 ~di:0 B.op_jmp [] l_end;
    f.cur_i <- base_i;
    mark f l_true;
    op1 f ~dv:0 ~di:1 B.op_iconst 1;
    mark f l_end
  | Tast.Tbinop (op, a, b)
    when is_bool e && is_int a && is_int b && int_cmp_opcode op <> None ->
    emit_i f a;
    emit_i f b;
    (match int_cmp_opcode op with
    | Some opc -> op0 f ~dv:0 ~di:(-1) opc
    | None -> assert false)
  | Tast.Tbinop ((Ast.Beq | Ast.Bne) as op, a, b)
    when is_bool e && is_bool a && is_bool b ->
    (* bool equality on the 0/1 encoding agrees with value_eq *)
    emit_b f a;
    emit_b f b;
    op0 f ~dv:0 ~di:(-1) (if op = Ast.Beq then B.op_eq_i else B.op_ne_i)
  | Tast.Tunop (Ast.Unot, a) ->
    emit_b f a;
    op0 f ~dv:0 ~di:0 B.op_not_b
  | Tast.Tindex (a, i) when is_bool e ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:(-1) ~di:0 B.op_index_b
  | Tast.Tmap_get (m, k) when is_bool e && word_operand k ->
    emit_v f m;
    emit_operand f k;
    op1 f ~dv:(-1) ~di:0 B.op_mapget_ii (new_cache f)
  | Tast.Tmap_get (m, k) when is_bool e ->
    emit_v f m;
    emit_v f k;
    let z = tbl_add f.zeros (fun () -> Value.VBool false) in
    op2 f ~dv:(-2) ~di:1 B.op_mapget_b z (new_cache f)
  | Tast.Tfield ({ Tast.desc = Tast.Tindex _; ty = Types.Struct _; _ }, _, _)
    when is_bool e ->
    emit_v_raw f e;
    op0 f ~dv:(-1) ~di:1 B.op_unbox_b
  | Tast.Tfield
      (({ Tast.desc = Tast.Tderef a; ty = Types.Struct _; _ } | a), idx, name)
    when is_bool e ->
    emit_v f a;
    op3 f ~dv:(-1) ~di:1 B.op_field_b idx (new_cache f) (name_idx f name)
  | _ ->
    emit_v_raw f e;
    op0 f ~dv:(-1) ~di:1 B.op_unbox_b

(* A map key or value: a {!word_operand} as its I-stack word, anything
   else boxed. *)
and emit_operand f (e : Tast.expr) =
  if not (word_operand e) then emit_v f e
  else if is_bool e then emit_b f e
  else emit_i f e

and emit_v f (e : Tast.expr) =
  match e.Tast.desc with
  (* calls return boxed values already; re-boxing through the int path
     would only add work *)
  | Tast.Tcall _ -> emit_v_raw f e
  | _ when is_int e ->
    emit_i f e;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | _ when is_bool e ->
    emit_b f e;
    op0 f ~dv:1 ~di:(-1) B.op_box_b
  | _ -> emit_v_raw f e

(* [emit_v], then the assignment copy of a struct value — unless the
   value is fresh, which nothing else can reach: a struct literal, a
   call result (a [return] copies its struct values) or an element read
   from a flat store ({!Value.slice_elem}). *)
and emit_v_copy f (e : Tast.expr) =
  emit_v f e;
  match e.Tast.desc with
  | Tast.Tstruct_lit _ | Tast.Tcall _ | Tast.Tindex _ -> ()
  | _ -> if is_struct e.Tast.ty then op0 f ~dv:0 ~di:0 B.op_copy

(* [R[r] op k] for the register local [e]: one [<op>k_r] pushing the
   result. *)
and emit_reg_k f op (e : Tast.expr) k =
  match (e.Tast.desc, reg_k_opcode op) with
  | Tast.Tvar v, Some opr ->
    op3 f ~dv:0 ~di:1 opr (reg f v) k (name_idx f v.Tast.v_name)
  | _ -> assert false

and emit_v_raw f (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tint n ->
    op1 f ~dv:0 ~di:1 B.op_iconst n;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Tbool b ->
    op1 f ~dv:0 ~di:1 B.op_iconst (if b then 1 else 0);
    op0 f ~dv:1 ~di:(-1) B.op_box_b
  | Tast.Tfloat x ->
    op1 f ~dv:1 ~di:0 B.op_const (tbl_add f.consts (Value.VFloat x))
  | Tast.Tstring s ->
    op1 f ~dv:1 ~di:0 B.op_const (tbl_add f.consts (Value.VStr s))
  | Tast.Tnil -> op1 f ~dv:1 ~di:0 B.op_const (tbl_add f.consts Value.VNil)
  | Tast.Tvar v when reg f v >= 0 ->
    op2 f ~dv:0 ~di:1 B.op_rload (reg f v) (name_idx f v.Tast.v_name);
    op0 f ~dv:1 ~di:(-1)
      (if v.Tast.v_ty = Types.Bool then B.op_box_b else B.op_box_i)
  | Tast.Tvar v ->
    let opc = if is_global v then B.op_gvload else B.op_vload in
    op2 f ~dv:1 ~di:0 opc (slot f v) (name_idx f v.Tast.v_name)
  | Tast.Tbinop ((Ast.Band | Ast.Bor), _, _) | Tast.Tunop (Ast.Unot, _) ->
    (* boolean forms with native lazy/negation emission *)
    emit_b f e;
    op0 f ~dv:1 ~di:(-1) B.op_box_b
  | Tast.Tbinop (op, a, b) ->
    emit_v f a;
    emit_v f b;
    op1 f ~dv:(-1) ~di:0 B.op_binop (tbl_add f.binops op)
  | Tast.Tunop (Ast.Uneg, a) ->
    emit_v f a;
    op0 f ~dv:0 ~di:0 B.op_neg_v
  | Tast.Taddr lv -> emit_addr f lv
  | Tast.Tderef a ->
    emit_v f a;
    op0 f ~dv:0 ~di:0 B.op_deref
  | Tast.Tindex (a, i) ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:0 ~di:(-1) B.op_index_v
  | Tast.Tmap_get (m, k) ->
    emit_v f m;
    let tenv = f.ctx.tenv in
    let ty = e.Tast.ty in
    let z = tbl_add f.zeros (fun () -> Value.zero tenv ty) in
    emit_v f k;
    op2 f ~dv:(-1) ~di:0 B.op_mapget_v z (new_cache f)
  | Tast.Tfield
      ( {
          Tast.desc =
            Tast.Tindex
              ({ Tast.desc = Tast.Tvar a; _ }, { Tast.desc = Tast.Tvar i; _ });
          ty = Types.Struct _;
          _;
        },
        idx,
        _ )
    when frame_local f a && reg f i >= 0 ->
    opn f ~dv:1 ~di:0 B.op_elem_field_v_sr
      [ slot f a; name_idx f a.Tast.v_name; reg f i; name_idx f i.Tast.v_name;
        idx ]
  | Tast.Tfield ({ Tast.desc = Tast.Tindex (a, i); ty = Types.Struct _; _ }, idx, _)
    ->
    (* an element's field, read in its slot of the flat store *)
    emit_v f a;
    emit_i f i;
    op1 f ~dv:0 ~di:(-1) B.op_elem_field_v idx
  | Tast.Tfield
      (({ Tast.desc = Tast.Tderef a; ty = Types.Struct _; _ } | a), idx, name)
    -> begin
    (* [( *p).f] reads through [p], as [Interp.eval] does *)
    match a.Tast.desc with
    | Tast.Tvar v when not (is_global v) ->
      opn f ~dv:1 ~di:0 B.op_sfield_v
        [ slot f v; idx; new_cache f; name_idx f v.Tast.v_name;
          name_idx f name ]
    | _ ->
      emit_v f a;
      op3 f ~dv:0 ~di:0 B.op_field_v idx (new_cache f) (name_idx f name)
  end
  | Tast.Tcall (name, args) -> begin
    List.iter (fun a -> emit_v f a) args;
    let n = List.length args in
    match Layout.func_id f.ctx.layout name with
    | Some fid -> op2 f ~dv:(1 - n) ~di:0 B.op_call fid n
    | None -> op2 f ~dv:(1 - n) ~di:0 B.op_call_undef (name_idx f name) n
  end
  | Tast.Tmake_slice (site, elem, len, cap) -> begin
    let tenv = f.ctx.tenv in
    let z = tbl_add f.zeros (fun () -> Value.zero tenv elem) in
    let s = tbl_add f.sites site in
    emit_i f len;
    (* negative-length panic precedes the capacity evaluation *)
    op0 f ~dv:0 ~di:0 B.op_check_len;
    match cap with
    | Some cap ->
      emit_i f cap;
      op3 f ~dv:1 ~di:(-2) B.op_make_slice s z 1
    | None -> op3 f ~dv:1 ~di:(-1) B.op_make_slice s z 0
  end
  | Tast.Tmake_map (site, kt, vt) ->
    op2 f ~dv:1 ~di:0 B.op_make_map (tbl_add f.sites site)
      (B.map_columns_code (Value.key_kind kt) (Value.val_kind vt))
  | Tast.Tnew (site, ty) ->
    let tenv = f.ctx.tenv in
    let z = tbl_add f.zeros (fun () -> Value.zero tenv ty) in
    op2 f ~dv:1 ~di:0 B.op_new (tbl_add f.sites site) z
  | Tast.Tslice_lit (site, Types.Int, es) ->
    List.iter (emit_i f) es;
    let n = List.length es in
    op2 f ~dv:1 ~di:(-n) B.op_slice_lit_i (tbl_add f.sites site) n
  | Tast.Tslice_lit (site, elem, es) ->
    List.iter
      (fun e ->
        emit_v_copy f e)
      es;
    let n = List.length es in
    let tenv = f.ctx.tenv in
    let z = tbl_add f.zeros (fun () -> Value.zero tenv elem) in
    op3 f ~dv:(1 - n) ~di:0 B.op_slice_lit (tbl_add f.sites site) n z
  | Tast.Tstruct_lit (_, es) ->
    List.iter
      (fun e ->
        emit_v_copy f e)
      es;
    let n = List.length es in
    op1 f ~dv:(1 - n) ~di:0 B.op_struct_lit n
  | Tast.Taddr_struct_lit (site, _, es) ->
    List.iter
      (fun e ->
        emit_v_copy f e)
      es;
    let n = List.length es in
    op2 f ~dv:(1 - n) ~di:0 B.op_addr_struct_lit (tbl_add f.sites site) n
  | Tast.Tappend (site, s, vs) when is_int_slice s ->
    emit_v f s;
    List.iter (emit_i f) vs;
    let n = List.length vs in
    op2 f ~dv:0 ~di:(-n) B.op_append_i (tbl_add f.sites site) n
  | Tast.Tappend
      (site, s, [ { Tast.desc = Tast.Tstruct_lit (_, (_ :: _ as es)); ty; _ } ])
    ->
    emit_v f s;
    List.iter (emit_v_copy f) es;
    let n = List.length es in
    let tenv = f.ctx.tenv in
    let z = tbl_add f.zeros (fun () -> Value.zero tenv ty) in
    op3 f ~dv:(-n) ~di:0 B.op_append_fields (tbl_add f.sites site) n z
  | Tast.Tappend (site, s, vs) ->
    emit_v f s;
    List.iter
      (fun e ->
        emit_v_copy f e)
      vs;
    let n = List.length vs in
    let z =
      match s.Tast.ty with
      | Types.Slice elem ->
        let tenv = f.ctx.tenv in
        tbl_add f.zeros (fun () -> Value.zero tenv elem)
      | _ -> raise (Interp.Runtime_error "append to non-slice")
    in
    op3 f ~dv:(-n) ~di:0 B.op_append (tbl_add f.sites site) n z
  | Tast.Tlen a ->
    emit_v f a;
    op0 f ~dv:(-1) ~di:1 B.op_len;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Tcap a ->
    emit_v f a;
    op0 f ~dv:(-1) ~di:1 B.op_cap;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Titoa a ->
    emit_i f a;
    op0 f ~dv:1 ~di:(-1) B.op_itoa
  | Tast.Trand a ->
    emit_i f a;
    op0 f ~dv:0 ~di:0 B.op_rand;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Tsubstr (s, a, b) ->
    emit_v f s;
    emit_i f a;
    emit_i f b;
    op0 f ~dv:0 ~di:(-2) B.op_substr
  | Tast.Tslice_sub (a, lo, hi) ->
    emit_v f a;
    let flags = ref 0 in
    (match lo with
    | Some lo ->
      emit_i f lo;
      flags := !flags lor 1
    | None -> ());
    (match hi with
    | Some hi ->
      emit_i f hi;
      flags := !flags lor 2
    | None -> ());
    let di = -((!flags land 1) + (!flags lsr 1)) in
    op1 f ~dv:0 ~di B.op_slice_sub !flags
  | Tast.Tcopy (dst, src) ->
    emit_v f dst;
    emit_v f src;
    op0 f ~dv:(-2) ~di:1 B.op_slice_copy;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Tmap_get_ok (m, k) ->
    emit_v f m;
    emit_v f k;
    let tenv = f.ctx.tenv in
    let zty =
      match e.Tast.ty with Types.Tuple [ vt; _ ] -> Some vt | _ -> None
    in
    let z =
      tbl_add f.zeros (fun () ->
          match zty with
          | Some vt -> Value.zero tenv vt
          | None -> Value.VUnit)
    in
    op1 f ~dv:(-1) ~di:0 B.op_mapget_ok z
  | Tast.Trecover -> op0 f ~dv:1 ~di:0 B.op_recover

(* Branch to [l] unless [c] holds.  A register less than a register or
   than the length of a frame local, and a register compared with a
   constant, are read in place by one compare-and-branch
   superinstruction; any other int compared with a constant, [<] aside,
   is evaluated onto the I stack for one [j<cmp>k_not]; [a && b]
   branches on each operand in turn, short-circuiting like the reference
   walker, without materializing the flag; anything else is evaluated
   onto the I stack for a (compare-fused) [jmpifnot]. *)
and emit_cond f (c : Tast.expr) l =
  match c.Tast.desc with
  | Tast.Tbinop (Ast.Band, a, b) ->
    emit_cond f a l;
    emit_cond f b l
  | Tast.Tbinop
      ( Ast.Blt,
        { Tast.desc = Tast.Tvar a; _ },
        { Tast.desc = Tast.Tlen { Tast.desc = Tast.Tvar x; _ }; _ } )
    when a.Tast.v_ty = Types.Int && reg f a >= 0 && frame_local f x ->
    opjmp f ~dv:0 ~di:0 B.op_jlt_rlen_not
      [ reg f a; name_idx f a.Tast.v_name; slot f x; name_idx f x.Tast.v_name ]
      l
  | Tast.Tbinop (Ast.Blt, a, { Tast.desc = Tast.Tlen b; _ })
    when is_int a && same_slot_fields a b <> None -> begin
    (* [p.f < len(p.g)]: [sfield_i; sfield_v; len; jlt_not] fused *)
    match same_slot_fields a b with
    | Some (p, (fa, na), (fb, nb)) ->
      let ca = new_cache f in
      let cb = new_cache f in
      opjmp f ~dv:0 ~di:0 B.op_jlt_flen_not
        [ slot f p; fa; ca; fb; cb; name_idx f p.Tast.v_name; name_idx f na;
          name_idx f nb ]
        l
    | None -> assert false
  end
  | Tast.Tbinop
      (Ast.Blt, { Tast.desc = Tast.Tvar a; _ }, { Tast.desc = Tast.Tvar b; _ })
    when a.Tast.v_ty = Types.Int && b.Tast.v_ty = Types.Int && reg f a >= 0
         && reg f b >= 0 ->
    opjmp f ~dv:0 ~di:0 B.op_jlt_rr_not
      [ reg f a; name_idx f a.Tast.v_name; reg f b; name_idx f b.Tast.v_name ]
      l
  | Tast.Tbinop (op, a, { Tast.desc = Tast.Tint k; _ })
    when is_int a && int_cmp_opcode op <> None ->
    emit_jcmpk f op a k l
  | Tast.Tbinop (op, { Tast.desc = Tast.Tint k; _ }, b)
    when is_int b && int_cmp_opcode op <> None ->
    emit_jcmpk f (mirror_cmp op) b k l
  | _ ->
    emit_b f c;
    opjmpifnot f l

(* Branch to [l] unless int [e] compares with [k]: one [j<cmp>_rk_not]
   when [e] is a register local, [e] and one [j<cmp>k_not] otherwise,
   or for [<], [e; iconst k; jlt_not]. *)
and emit_jcmpk f op (e : Tast.expr) k l =
  match (e.Tast.desc, jcmp_rk_opcode op, jcmpk_opcode op) with
  | Tast.Tvar v, Some opr, _ when reg f v >= 0 ->
    opjmp f ~dv:0 ~di:0 opr [ reg f v; name_idx f v.Tast.v_name; k ] l
  | _, _, Some opk ->
    emit_i f e;
    opjmp f ~dv:0 ~di:(-1) opk [ k ] l
  | _ ->
    emit_i f e;
    op1 f ~dv:0 ~di:1 B.op_iconst k;
    opjmp f ~dv:0 ~di:(-2) B.op_jlt_not [] l

(* An int or bool variable onto the I stack: its register, or its frame
   or global cell through [local]/[global]. *)
and emit_load_i f (v : Tast.var) ~local ~global =
  let r = reg f v in
  if r >= 0 then op2 f ~dv:0 ~di:1 B.op_rload r (name_idx f v.Tast.v_name)
  else
    op2 f ~dv:0 ~di:1
      (if is_global v then global else local)
      (slot f v) (name_idx f v.Tast.v_name)

(* Address-of an lvalue, mirroring [Interp.eval_addr] case for case. *)
and emit_addr f (lv : Tast.lvalue) =
  match lv with
  | Tast.Lvar v ->
    let opc = if is_global v then B.op_addr_gslot else B.op_addr_slot in
    op2 f ~dv:1 ~di:0 opc (slot f v) (name_idx f v.Tast.v_name)
  | Tast.Lderef e -> emit_v f e
  | Tast.Lindex (a, i) ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:0 ~di:(-1) B.op_addr_index
  | Tast.Lmap _ -> invalid_arg "Emit: address of a map element"
  | Tast.Lfield (base, idx, _) -> begin
    match (base.Tast.ty, base.Tast.desc) with
    | Types.Ptr _, _ ->
      emit_v f base;
      op1 f ~dv:0 ~di:0 B.op_addr_field_ptr idx
    | _, Tast.Tderef p ->
      (* [( *p).f]: through the pointer, as [p.f] *)
      emit_v f p;
      op1 f ~dv:0 ~di:0 B.op_addr_field_ptr idx
    | _, Tast.Tindex (a, i) ->
      (* an element's field: its slot of the flat store *)
      emit_v f a;
      emit_i f i;
      op1 f ~dv:0 ~di:(-1) B.op_addr_elem_field idx
    | _, Tast.Tvar v ->
      let opc =
        if is_global v then B.op_addr_field_gslot else B.op_addr_field_slot
      in
      op3 f ~dv:1 ~di:0 opc (slot f v) idx (name_idx f v.Tast.v_name)
    | _ ->
      (* nested struct value (a[i].p, f().q, ...): its value is the
         field array itself, so it aliases the storage; the owner spine
         then evaluates again, allocating calls included *)
      emit_v f base;
      emit_owner f base;
      op1 f ~dv:(-1) ~di:0 B.op_addr_field_val idx
  end

(* The owner spine of a struct-valued expression's storage onto the V
   stack: the value whose [Value.owner_of] owns it, re-evaluating exactly
   the subexpressions [Interp.owner_of_struct_base] does; nil for
   frame-local storage. *)
and emit_owner f (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tfield (inner, _, _) -> begin
    match inner.Tast.ty with
    | Types.Ptr _ -> emit_v f inner
    | _ -> emit_owner f inner
  end
  | Tast.Tindex (a, _) | Tast.Tderef a -> emit_v f a
  | _ -> op1 f ~dv:1 ~di:0 B.op_const (tbl_add f.consts Value.VNil)

(* Store the value on top of the V stack into an lvalue: resolve the
   target (its sub-expressions evaluate now, after the right-hand side,
   like the reference walker), then write with a copy. *)
and emit_assign f (lv : Tast.lvalue) =
  match lv with
  | Tast.Lvar v ->
    let opc = if is_global v then B.op_store_gslot else B.op_store_slot in
    op2 f ~dv:(-1) ~di:0 opc (slot f v) (name_idx f v.Tast.v_name)
  | Tast.Lderef e ->
    emit_v f e;
    op0 f ~dv:(-2) ~di:0 B.op_store_deref
  | Tast.Lindex (a, i) ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:(-2) ~di:(-1) B.op_store_index
  | Tast.Lmap (m, k) ->
    emit_v f m;
    emit_v f k;
    op0 f ~dv:(-3) ~di:0 B.op_store_map
  | Tast.Lfield _ ->
    emit_addr f lv;
    op0 f ~dv:(-2) ~di:0 B.op_store_thru

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let free_kind_code = function
  | Tast.Free_slice -> 0
  | Tast.Free_map -> 1
  | Tast.Free_obj -> 2

(* Recognize [v = v + k] / [v = k + v] / [v = v - k] on a register
   local: the whole statement collapses to one in-place [rinc]. *)
let rinc_delta f (v : Tast.var) (e : Tast.expr) : int option =
  let same (a : Tast.expr) =
    match a.Tast.desc with
    | Tast.Tvar v2 -> (not (is_global v2)) && slot f v2 = slot f v
    | _ -> false
  in
  match e.Tast.desc with
  | Tast.Tbinop (Ast.Badd, a, { Tast.desc = Tast.Tint k; _ }) when same a ->
    Some k
  | Tast.Tbinop (Ast.Badd, { Tast.desc = Tast.Tint k; _ }, b) when same b ->
    Some k
  | Tast.Tbinop (Ast.Bsub, a, { Tast.desc = Tast.Tint k; _ }) when same a ->
    Some (-k)
  | _ -> None

(* [Some (k, name)] when [e] is [p.f + k], [k + p.f] or [p.f - k] for
   the int field [fidx], named [name], of local [p]: the right-hand side
   of a [finc]. *)
let field_delta (p : Tast.var) fidx (e : Tast.expr) =
  let field (a : Tast.expr) =
    match slot_field_of a with
    | Some (q, g, name) when q.Tast.v_id = p.Tast.v_id && g = fidx -> Some name
    | _ -> None
  in
  let delta k a = Option.map (fun name -> (k, name)) (field a) in
  match e.Tast.desc with
  | Tast.Tbinop (Ast.Badd, a, { Tast.desc = Tast.Tint k; _ }) -> delta k a
  | Tast.Tbinop (Ast.Badd, { Tast.desc = Tast.Tint k; _ }, b) -> delta k b
  | Tast.Tbinop (Ast.Bsub, a, { Tast.desc = Tast.Tint k; _ }) -> delta (-k) a
  | _ -> None

(* The value of [e] onto the I stack for a store into register local [v]. *)
let emit_reg_value f (v : Tast.var) e =
  if v.Tast.v_ty = Types.Bool then emit_b f e else emit_i f e

(* A counted loop's rotated back edge: when the condition emitted at
   [cond_at] is one compare-and-branch with a rotated form and the body
   at [body_at] opens with a lone statement safepoint, the rotated
   opcode and the test's operands (all but its target). *)
let rotation f ~cond_at ~body_at =
  let code = f.code.iv_a in
  if cond_at >= body_at || body_at >= f.code.iv_n then None
  else
    let op = code.(cond_at) in
    let width = 1 + B.arity op in
    match B.rotated op with
    | Some rop when cond_at + width = body_at && code.(body_at) = B.op_safepoint
      ->
      Some (rop, List.init (width - 2) (fun i -> code.(cond_at + 1 + i)))
    | _ -> None

let rec emit_stmt f (s : Tast.stmt) =
  match s with
  | Tast.Sdecl (v, init) when reg f v >= 0 ->
    opsafepoint f;
    (match init with
    | Some e -> emit_reg_value f v e
    | None -> op1 f ~dv:0 ~di:1 B.op_iconst 0);
    op2 f ~dv:0 ~di:(-1) B.op_rstore (reg f v) (name_idx f v.Tast.v_name)
  | Tast.Sdecl (v, init) -> begin
    opsafepoint f;
    let d = tbl_add f.decls (declare f.ctx v) in
    match init with
    | Some e ->
      emit_v_copy f e;
      op1 f ~dv:(-1) ~di:0 B.op_decl d
    | None ->
      let tenv = f.ctx.tenv in
      let ty = v.Tast.v_ty in
      let z = tbl_add f.zeros (fun () -> Value.zero tenv ty) in
      op2 f ~dv:0 ~di:0 B.op_decl_zero d z
  end
  | Tast.Smulti_decl (vars, e) ->
    opsafepoint f;
    emit_v f e;
    let n = List.length vars in
    op2 f ~dv:0 ~di:0 B.op_tuple_check n 0;
    List.iteri
      (fun i v ->
        let d = tbl_add f.decls (declare f.ctx v) in
        op1 f ~dv:1 ~di:0 B.op_tuple_get i;
        if is_struct v.Tast.v_ty then op0 f ~dv:0 ~di:0 B.op_copy;
        op1 f ~dv:(-1) ~di:0 B.op_decl d)
      vars;
    op0 f ~dv:(-1) ~di:0 B.op_pop_v
  | Tast.Sassign (lv, e) -> begin
    opsafepoint f;
    (* right-hand side first, then target resolution *)
    match lv with
    | Tast.Lvar v when reg f v >= 0 -> begin
      match rinc_delta f v e with
      | Some k ->
        op3 f ~dv:0 ~di:0 B.op_rinc (reg f v) k (name_idx f v.Tast.v_name)
      | None ->
        emit_reg_value f v e;
        op2 f ~dv:0 ~di:(-1) B.op_rstore (reg f v)
          (name_idx f v.Tast.v_name)
    end
    | Tast.Lfield (({ Tast.desc = Tast.Tvar p; _ } as base), fidx, _)
      when (match base.Tast.ty with Types.Ptr _ -> true | _ -> false)
           && field_delta p fidx e <> None -> begin
      (* [p.f = p.f + k]: [sfield_i; addk_i; vload; fstore_i] fused *)
      match field_delta p fidx e with
      | Some (k, name) ->
        opn f ~dv:0 ~di:0 B.op_finc
          [ slot f p; fidx; new_cache f; k; name_idx f p.Tast.v_name;
            name_idx f name ]
      | None -> assert false
    end
    | Tast.Lfield (base, fidx, _)
      when is_int e
           && (match e.Tast.desc with Tast.Tcall _ -> false | _ -> true)
           && (match base.Tast.ty with Types.Ptr _ -> true | _ -> false) ->
      (* RHS on the int stack, base pointer on the value stack, then
         the fused [addr_field_ptr; store_thru]: no boxed int and no
         interior VPtr record *)
      emit_i f e;
      emit_v f base;
      op1 f ~dv:(-1) ~di:(-1) B.op_fstore_i fidx
    | Tast.Lmap (m, k) when word_operand e ->
      (* an int or bool value, and key, stays on the I stack: no box *)
      let wk = word_operand k in
      emit_operand f e;
      emit_v f m;
      emit_operand f k;
      if wk then op0 f ~dv:(-1) ~di:(-2) B.op_store_map_ii
      else op0 f ~dv:(-2) ~di:(-1) B.op_store_map_vi
    | Tast.Lindex (a, i) when is_int_slice a -> begin
      (* the element stays on the I stack: no box *)
      emit_i f e;
      match (a.Tast.desc, i.Tast.desc) with
      | Tast.Tvar va, Tast.Tvar vi when frame_local f va && reg f vi >= 0 ->
        opn f ~dv:0 ~di:(-1) B.op_store_i_sr
          [ slot f va; name_idx f va.Tast.v_name; reg f vi;
            name_idx f vi.Tast.v_name ]
      | _ ->
        emit_v f a;
        emit_i f i;
        op0 f ~dv:(-1) ~di:(-2) B.op_store_index_i
    end
    | Tast.Lvar v
      when is_int e
           && (match e.Tast.desc with Tast.Tcall _ -> false | _ -> true) ->
      emit_i f e;
      let opc =
        if is_global v then B.op_store_gslot_i else B.op_store_slot_i
      in
      op2 f ~dv:0 ~di:(-1) opc (slot f v) (name_idx f v.Tast.v_name)
    | Tast.Lvar v
      when is_bool e
           && (match e.Tast.desc with Tast.Tcall _ -> false | _ -> true) ->
      emit_b f e;
      let opc =
        if is_global v then B.op_store_gslot_b else B.op_store_slot_b
      in
      op2 f ~dv:0 ~di:(-1) opc (slot f v) (name_idx f v.Tast.v_name)
    | _ ->
      emit_v f e;
      emit_assign f lv
  end
  | Tast.Smulti_assign (lvs, e) ->
    opsafepoint f;
    emit_v f e;
    let n = List.length lvs in
    op2 f ~dv:0 ~di:0 B.op_tuple_check n 1;
    List.iteri
      (fun i lv ->
        op1 f ~dv:1 ~di:0 B.op_tuple_get i;
        emit_assign f lv)
      lvs;
    op0 f ~dv:(-1) ~di:0 B.op_pop_v
  | Tast.Sexpr e ->
    opsafepoint f;
    emit_v f e;
    op0 f ~dv:(-1) ~di:0 B.op_pop_v
  | Tast.Sif (c, b1, b2) -> begin
    opsafepoint f;
    match b2 with
    | None ->
      let l_end = new_label f in
      emit_cond f c l_end;
      emit_block f b1;
      mark f l_end
    | Some b2 ->
      let l_else = new_label f in
      let l_end = new_label f in
      emit_cond f c l_else;
      emit_block f b1;
      opjmp f ~dv:0 ~di:0 B.op_jmp [] l_end;
      mark f l_else;
      emit_block f b2;
      mark f l_end
  end
  | Tast.Sfor (init, cond, post, body) ->
    opsafepoint f;
    (* the for scope covers init, condition, post and body *)
    let scoped = stack_allocates f { body with Tast.b_stmts = [ s ] } in
    if scoped then op0 f ~dv:0 ~di:0 B.op_push_scope;
    let l_head = new_label f in
    let l_post = new_label f in
    let l_exit = new_label f in
    f.scopes <- Kfor (l_exit, l_post) :: f.scopes;
    (match init with Some s -> emit_stmt f s | None -> ());
    mark f l_head;
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    (* a post statement [v += k] on a register local, the jump back and
       the head's safepoint fuse into one [loop_rinc] that lands just
       past that safepoint — or, rotated, into a back edge that also runs
       the head's test itself (see {!rotation}) *)
    let back =
      match post with
      | Some (Tast.Sassign (Tast.Lvar v, e)) when reg f v >= 0 ->
        Option.map (fun k -> (v, k)) (rinc_delta f v e)
      | _ -> None
    in
    let l_cond = new_label f in
    if back <> None then mark f l_cond;
    let cond_at = f.code.iv_n in
    (match cond with Some c -> emit_cond f c l_exit | None -> ());
    let body_at = f.code.iv_n in
    emit_block f body;
    mark f l_post;
    (match back with
    | Some (v, k) -> begin
      let operands = [ reg f v; k; name_idx f v.Tast.v_name ] in
      match rotation f ~cond_at ~body_at with
      | Some (op, test) ->
        (* the body just past its leading safepoint *)
        let l_body = new_label f in
        f.labels.(l_body) <- body_at + 1;
        opjmps f ~dv:0 ~di:0 op operands [ l_cond; l_body; l_exit ] test
      | None -> opjmp f ~dv:0 ~di:0 B.op_loop_rinc operands l_cond
    end
    | None ->
      Option.iter (emit_stmt f) post;
      opjmp f ~dv:0 ~di:0 B.op_jmp [] l_head);
    mark f l_exit;
    if scoped then op0 f ~dv:0 ~di:0 B.op_pop_scope;
    f.scopes <- List.tl f.scopes
  | Tast.Sforrange_map (v, m, body) ->
    opsafepoint f;
    emit_v f m;
    let l_next = new_label f in
    let l_end = new_label f in
    opjmp f ~dv:(-1) ~di:0 B.op_range_start [] l_end;
    f.scopes <- Krange (l_next, l_end) :: f.scopes;
    let d = tbl_add f.decls (declare f.ctx v) in
    mark f l_next;
    opjmp f ~dv:0 ~di:0 B.op_range_next [ d ] l_end;
    emit_block f body;
    opjmp f ~dv:0 ~di:0 B.op_jmp [] l_next;
    mark f l_end;
    f.scopes <- List.tl f.scopes
  | Tast.Sreturn es ->
    opsafepoint f;
    List.iter
      (fun e ->
        emit_v_copy f e)
      es;
    let n = List.length es in
    (* the VM pops the open scopes as it returns, innermost first like
       the reference walker's block handlers *)
    op1 f ~dv:(-n) ~di:0 B.op_ret n
  | Tast.Sblock b ->
    opsafepoint f;
    emit_block f b
  | Tast.Sgo (name, args) -> begin
    opsafepoint f;
    List.iter
      (fun e ->
        emit_v_copy f e)
      args;
    let n = List.length args in
    match Layout.func_id f.ctx.layout name with
    | Some fid -> op2 f ~dv:(-n) ~di:0 B.op_go fid n
    | None -> op2 f ~dv:(-n) ~di:0 B.op_go_undef (name_idx f name) n
  end
  | Tast.Sdefer (name, args) -> begin
    opsafepoint f;
    List.iter
      (fun e ->
        emit_v_copy f e)
      args;
    let n = List.length args in
    match Layout.func_id f.ctx.layout name with
    | Some fid -> op2 f ~dv:(-n) ~di:0 B.op_defer fid n
    | None -> op2 f ~dv:(-n) ~di:0 B.op_defer_undef (name_idx f name) n
  end
  | Tast.Spanic e ->
    opsafepoint f;
    emit_v f e;
    op0 f ~dv:(-1) ~di:0 B.op_panic
  | Tast.Sbreak -> begin
    opsafepoint f;
    (* pop the block scopes between here and the loop; the loop's own
       scope (Sfor) pops at its exit label *)
    let rec unwind = function
      | Kblock :: rest ->
        op0 f ~dv:0 ~di:0 B.op_pop_scope;
        unwind rest
      | Kfor (l_exit, _) :: _ -> opjmp f ~dv:0 ~di:0 B.op_jmp [] l_exit
      | Krange (_, l_end) :: _ ->
        op0 f ~dv:0 ~di:0 B.op_range_pop;
        opjmp f ~dv:0 ~di:0 B.op_jmp [] l_end
      | [] -> invalid_arg "Emit: break outside a loop"
    in
    unwind f.scopes
  end
  | Tast.Scontinue -> begin
    opsafepoint f;
    let rec unwind = function
      | Kblock :: rest ->
        op0 f ~dv:0 ~di:0 B.op_pop_scope;
        unwind rest
      | Kfor (_, l_post) :: _ -> opjmp f ~dv:0 ~di:0 B.op_jmp [] l_post
      | Krange (l_next, _) :: _ -> opjmp f ~dv:0 ~di:0 B.op_jmp [] l_next
      | [] -> invalid_arg "Emit: continue outside a loop"
    in
    unwind f.scopes
  end
  | Tast.Sdelete (m, k) ->
    opsafepoint f;
    emit_v f m;
    emit_v f k;
    op0 f ~dv:(-2) ~di:0 B.op_delete
  | Tast.Sprint es ->
    opsafepoint f;
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_tostr)
      es;
    op1 f ~dv:(-List.length es) ~di:0 B.op_print (List.length es)
  | Tast.Stcfree (v, kind) ->
    opsafepoint f;
    if v.Tast.v_kind <> Tast.Vglobal then
      op2 f ~dv:0 ~di:0 B.op_tcfree (slot f v) (free_kind_code kind)

and emit_block f (b : Tast.block) =
  if stack_allocates f b then begin
    op0 f ~dv:0 ~di:0 B.op_push_scope;
    f.scopes <- Kblock :: f.scopes;
    List.iter (fun s -> emit_stmt f s) b.Tast.b_stmts;
    op0 f ~dv:0 ~di:0 B.op_pop_scope;
    f.scopes <- List.tl f.scopes
  end
  else List.iter (fun s -> emit_stmt f s) b.Tast.b_stmts

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

(* Patch label operands, then thread jump-to-jump chains so a branch
   landing on an unconditional [jmp] goes straight to its final
   destination. *)
let patch_and_thread f =
  let code = f.code.iv_a in
  List.iter (fun (pos, l) -> code.(pos) <- f.labels.(l)) f.patches;
  let resolve target =
    let t = ref target in
    let hops = ref 0 in
    while !hops < 64 && !t < f.code.iv_n && code.(!t) = B.op_jmp do
      t := code.(!t + 1);
      incr hops
    done;
    !t
  in
  List.iter (fun (pos, _) -> code.(pos) <- resolve code.(pos)) f.patches

(* Each parameter's home: its register, or what {!declare} gives. *)
let param_homes ctx regs (fn : Tast.func) =
  Array.of_list
    (List.map
       (fun (v : Tast.var) ->
         let r = regs.(Layout.slot ctx.layout v) in
         if r < 0 then declare ctx v
         else if v.Tast.v_ty = Types.Bool then B.Hbool r
         else B.Hint r)
       fn.Tast.f_params)

let emit_func (ctx : ctx) (fn : Tast.func) fid : B.fn =
  let nslots = ctx.layout.Layout.l_nslots.(fid) in
  let regs, nregs = register_slots ctx fn nslots in
  let f = fctx ctx regs in
  emit_block f fn.Tast.f_body;
  op0 f ~dv:0 ~di:0 B.op_halt;
  patch_and_thread f;
  let tenv = ctx.tenv in
  let rtys = fn.Tast.f_results in
  {
    B.bf_name = fn.Tast.f_name;
    bf_nslots = nslots;
    bf_nregs = nregs;
    bf_max_v = f.max_v;
    bf_max_i = f.max_i;
    bf_code = Array.sub f.code.iv_a 0 f.code.iv_n;
    bf_consts = tbl_array f.consts;
    bf_sites = tbl_array f.sites;
    bf_zeros = tbl_array f.zeros;
    bf_binops = tbl_array f.binops;
    bf_names = tbl_array f.names;
    bf_decls = tbl_array f.decls;
    bf_caches = Array.init f.ncaches (fun _ -> B.fresh_cache ());
    bf_params = param_homes ctx regs fn;
    bf_pnames =
      Array.of_list
        (List.map (fun (v : Tast.var) -> v.Tast.v_name) fn.Tast.f_params);
    bf_zeros_ret =
      (match rtys with
      | [] -> fun _st -> Value.VUnit
      | _ ->
        fun _st ->
          Interp.pack_results (List.map (fun ty -> Value.zero tenv ty) rtys));
    bf_prog = [||];
  }

(* What an unlowered function id points to: nothing calls it, so entering
   it is a lowering bug, and falling off its empty body says so. *)
let unlowered (fn : Tast.func) : B.fn =
  {
    B.bf_name = fn.Tast.f_name;
    bf_nslots = 0;
    bf_nregs = 0;
    bf_max_v = 0;
    bf_max_i = 0;
    bf_code = [| B.op_halt |];
    bf_consts = [||];
    bf_sites = [||];
    bf_zeros = [||];
    bf_binops = [||];
    bf_names = [||];
    bf_decls = [||];
    bf_caches = [||];
    bf_params = [||];
    bf_pnames = [||];
    bf_zeros_ret =
      (fun _ ->
        failwith
          ("internal error: function " ^ fn.Tast.f_name ^ " was not lowered"));
    bf_prog = [||];
  }

(** Lower the functions reachable from [roots] to bytecode, once per
    program.  A call
    names its callee ([Tcall], [Sgo], [Sdefer]) and MiniGo has no
    function values, so {!Gofree_escape.Callgraph.callees_of} is exact:
    no other function can run.  Every other id gets a stub that fails,
    naming the function, if it is ever entered.  The ["emit"] trace span
    (next to parse/typecheck/escape/instrument) ends with how many of
    the program's functions were lowered. *)
let lower ~(roots : string list) (program : Tast.program)
    (decisions : Decisions.t) (layout : Layout.t) : B.program =
  let module Trace = Gofree_obs.Trace in
  let tid = Trace.domain_tid () in
  Trace.begin_span ~tid "emit";
  let ctx = { tenv = program.Tast.p_tenv; decisions; layout } in
  let funcs = layout.Layout.l_funcs in
  let reached = Array.make (Array.length funcs) false in
  let count = ref 0 in
  let rec visit = function
    | [] -> ()
    | name :: rest -> begin
      match Layout.func_id layout name with
      | Some fid when not reached.(fid) ->
        reached.(fid) <- true;
        incr count;
        visit
          (List.rev_append (Gofree_escape.Callgraph.callees_of funcs.(fid)) rest)
      | _ -> visit rest
    end
  in
  visit roots;
  let prog =
    Array.mapi
      (fun i fn -> if reached.(i) then emit_func ctx fn i else unlowered fn)
      funcs
  in
  Array.iter (fun f -> f.B.bf_prog <- prog) prog;
  Trace.end_span ~tid "emit"
    ~args:
      [ ("lowered", Gofree_obs.Json.Int !count);
        ("functions", Gofree_obs.Json.Int (Array.length funcs)) ];
  prog

(** Every function's name: the roots that lower the whole program. *)
let all_functions (layout : Layout.t) =
  Array.fold_right
    (fun (f : Tast.func) acc -> f.Tast.f_name :: acc)
    layout.Layout.l_funcs []

(** The functions a run enters from outside the code: [main] and every
    function a global initialiser calls. *)
let entry_points (program : Tast.program) =
  "main"
  :: List.concat_map
       (function
         | _, Some e -> Gofree_escape.Callgraph.expr_callees e
         | _, None -> [])
       program.Tast.p_globals
