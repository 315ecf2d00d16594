(** The bytecode dispatch loop: the fast execution engine.

    Each call runs one flat [int array] ({!Bytecode.fn}) over two
    operand stacks — boxed values and unboxed native ints (MiniGo ints
    and bools), so hot arithmetic/compare/branch sequences never touch
    the OCaml allocator.  Map-key and struct-field sites carry
    monomorphic inline caches.  A map-site cache holds only the map's
    identity (header object, header payload, version, bucket array):
    when the header object is physically the same and [md_version] is
    unchanged (it is bumped on every store/delete/grow/free), the key is
    probed in the cached bucket array directly, skipping the header and
    buckets payload reads and their freed checks, and the search finds
    the same physical value a full lookup would.

    Calls go through the one protocol, {!Interp.call_fn}, straight from
    the [call] opcode: the callee is found in the caller's program
    ([bf_prog]), and {!run} — the body [call_fn] runs on the frame it
    takes from the goroutine's pool — binds the parameters from the
    caller's operand-stack window, an int or bool register parameter
    straight into its register.  [ret] returns the packed results from
    the dispatch loop, and [halt] (falling off the end) the zero
    results.  Nothing is raised on a normal return: only a panic unwinds
    by exception.  On either path {!run} first releases the scopes still
    open, innermost first, so the defers [call_fn] runs next see the
    blocks already dead, as in the reference walker.  A call whose
    parameters are all registers allocates nothing.

    The dispatch loop is registerized: the program counter and both
    stack pointers are parameters of a self-tail-recursive top-level
    function, so every opcode ends in a jump rather than a call; stack
    and code accesses are unchecked.  That is safe because the emitter
    precomputes exact operand-stack bounds ([bf_max_v]/[bf_max_i]) and
    every jump operand is a patched label — invariants the differential
    suite exercises end to end.  The loop is split in two: {!loop}
    holds the hot opcodes, each calling nothing before its tail call, so
    OCaml keeps the four parameters in registers instead of saving them
    on every dispatch; every other opcode, and every shape of a hot
    opcode that would need a call, goes to {!full} at the same pc with
    nothing done yet.  Each opcode has one complete implementation.  It
    is in {!loop} when the opcode never calls a function (a value-stack
    store's write barrier aside) and never raises: the jumps, the
    compare-and-branches on the int stack, on two registers and on a
    register and a constant, int arithmetic and compares other than
    division and shifts, [iconst], [box_i], [pop_v], the
    register accesses and the register-operand forms other than
    [modk_r].  Every other opcode's implementation is in
    {!full}, and {!loop} may still complete its common shape (a
    safepoint with nothing to do, a live slice element, a frame cell
    holding a pointer to a struct, a division by a nonzero constant).
    Everything else the loop needs travels in one
    mutable {!regs} record, one per pooled frame, re-pointed at each
    call.  The operand stacks themselves are LIFO windows carved out of
    per-goroutine pooled arrays ([g_stk_v]/[g_stk_i]).  Calls within a
    goroutine are strictly LIFO even across yields and panics, and the
    windows are invisible to the simulated GC (value windows are dead
    at every safepoint; int windows, registers included, hold no
    pointers), so pooling cannot change observable behaviour.

    Storage is {!Value}'s: a [[]int] element is an unboxed word of an
    [int array] store, a struct element's fields are [w] consecutive
    slots of its flat store, any other slice element sits directly in
    its [value array] store, a struct field directly in its struct's
    [value array], and a frame variable or heap box is a one-element
    cell, so a load or store through a slot, an index, a field or a
    pointer is a single array access; [a[i].f] reads and addresses its
    slot in place ([elem_field_v], [elem_field_i], [addr_elem_field] and
    the [_sr] forms), and [append(s, T{...})] stores the literal's fields
    straight into it ([append_fields]).  Storing a whole struct writes
    its fields into the struct the location holds ({!Value.store}).  An int travels between the int
    operand stack and an int store with no box on either side
    ([index_i], [store_index_i], [append_i], [slice_lit_i]); a read that
    finds {!Value.poison_int} leaves the fast path for the poison check.
    An int or bool map key or value travels between the int stack and
    the int column of the map's typed buckets the same way
    ([mapget_ii], [store_map_ii], [store_map_vi]).

    Every opcode's implementation replicates the corresponding step of
    the reference walker ({!Interp.eval}, [Interp.exec_stmt]) and calls
    the same shared {!Interp} helpers in the same order, so allocation
    counts, free attempts, GC cycle points and scheduler interleavings
    are bit-identical across both engines.  The one departure is
    storage the program cannot observe: register locals and parameters
    ([rload]/[rstore]/[rinc]) live in the first [bf_nregs] words of the
    call's int-stack window rather than in frame cells, frames are
    pooled, and blocks with no stack-allocation site open no scope (see
    {!Emit}).

    Superinstructions fuse the hot sequences the emitter recognises,
    and only those a measured workload dispatches:
    - constant-operand arithmetic, compare-and-branch ([jlt_not],
      [jge_not], and [j<cmp>k_not] for every compare but [<]), field
      reads and stores;
    - the register-operand forms, an int op reading a register local in
      place: [I[top] op= R[r]] ([add_r], [sub_r]), [R[r] op k]
      ([addk_r], [mulk_r], [modk_r]) and the branch on [R[r] <cmp> k]
      ([j<cmp>_rk_not]);
    - the loop and indexing forms that read a register or frame slot in
      place: a counted loop's back edge ([loop_rinc]), [reg < len(local)]
      and [reg < reg] branches, slot-indexed int reads and stores, runs
      of statement safepoints ([safepoints n]);
    - the rotated back edges ([loop_lt_rr], [loop_lt_rlen],
      [loop_lt_rk]): [loop_rinc] followed by a copy of the loop head's
      one-instruction test, then, when the test holds, the body's
      leading statement safepoint, landing past it;
    - the field-operand forms of a local struct or struct pointer [p]:
      [p.f < len(p.g)], [p.f[p.g]], [len(p.f)] and [p.f = p.f + k].
    Each fused case is the literal composition of the cases it replaces
    and obeys the safepoint-exact rule: it calls {!vm_safepoint} exactly
    as often, in the same order relative to its other effects, as the
    unfused sequence, and raises the same errors in the same order, so
    step counts, yield points, GC points and the sampler's clock do not
    move.  A sample falling due is one more reason for the step guard to
    fail: it is folded into [yield_at], so the guard never tests for a
    sampler.  In {!loop}, fused safepoints take one step guard,
    {!steps_only}, checked once up front for all the safepoints the
    instruction may count (three for a rotated back edge, which counts
    two when the test fails); when it fails, {!full} runs the unfused
    safepoints one by one — for a rotated back edge, [loop_rinc]'s two,
    then on to the head's unchanged test.  The opcode numbers are
    {!Bytecode}'s; the literal patterns below must stay in sync, one
    name comment per number, which test_disasm checks. *)

open Minigo
module B = Bytecode
module Rt = Gofree_runtime

open Interp

(* Everything the dispatch loop needs besides pc and the two stack
   pointers.  One record per pooled frame, kept in its [ext] and
   re-pointed at each call the frame hosts ({!run}); [x_st] and [x_fr]
   never change, since a frame pool belongs to one goroutine. *)
type regs = {
  mutable x_f : B.fn;
  x_st : state;
  x_fr : frame;
  mutable x_code : int array;
  mutable x_stk_v : Value.value array;  (* this call's window of g_stk_v *)
  mutable x_stk_i : int array;  (* this call's window of g_stk_i *)
  mutable x_rb : int;  (* register 0 in x_stk_i; the operand stack follows *)
  mutable x_slots : binding array;  (* [x_fr.slots] *)
  mutable x_scopes : int;
      (* open lexical scopes, released by [run] after a [ret] or an
         exception *)
  mutable x_iters : Value.value list list;
      (* active range-loop key iterators, innermost first *)
}

type Interp.frame_ext += Regs of regs

let unbound_local (r : regs) nidx =
  raise (Runtime_error ("unbound variable " ^ r.x_f.B.bf_names.(nidx)))

let unbound_global (r : regs) nidx =
  raise (Runtime_error ("unbound global " ^ r.x_f.B.bf_names.(nidx)))

(* The rare tail of {!Interp.safepoint}, reached only when one of the
   fast-path guards fired; [st.steps] has already been incremented and
   the frame's temps cleared.  The shared slow path also handles the
   multi-domain stop-the-world handshake. *)
let safepoint_slow (r : regs) = Interp.safepoint_slow r.x_st

(* {!Interp.safepoint}, inlined for the dispatch loop: during a VM
   body the innermost frame of the current goroutine is [r.x_fr], so
   the [cur_frame] list walk is unnecessary.  The common step touches
   three fields and falls through. *)
let[@inline] vm_safepoint (r : regs) =
  let st = r.x_st in
  let steps = st.steps + 1 in
  st.steps <- steps;
  (* most statements pin nothing: skip the write barrier then *)
  if r.x_fr.temps != [] then r.x_fr.temps <- [];
  if
    steps >= st.yield_at || st.heap.Rt.Heap.gc_requested
    || steps > st.config.max_steps
  then safepoint_slow r

(* Raw cell and pointer access, restated here so the dispatch loop
   inlines them: dune's default profile compiles with [-opaque], which
   rules out cross-module inlining. *)
let[@inline] cget (c : Value.cell) = Array.unsafe_get c 0

let[@inline] cset (c : Value.cell) v = Array.unsafe_set c 0 v

let[@inline] vint n =
  if n >= 0 && n < Array.length Value.small_ints then
    Array.unsafe_get Value.small_ints n
  else Value.VInt n

let[@inline] pget (p : Value.ptr) =
  Array.unsafe_get p.Value.p_arr p.Value.p_idx

(* Whether the next [n] statement safepoints would each only count
   their step: no yield, sample, GC request or step limit falls due
   within them, and there are no pinned temps to clear.  The one step
   guard of {!loop}'s fused safepoints ([safepoint], [safepoints n],
   [loop_rinc] and the rotated back edges): when it holds they add
   their steps and nothing else, exactly as {!vm_safepoint} would;
   otherwise {!full} runs them one by one. *)
let[@inline] steps_only (r : regs) n =
  let st = r.x_st in
  let steps = st.steps + n in
  not
    (steps >= st.yield_at || st.heap.Rt.Heap.gc_requested
    || steps > st.config.max_steps
    || r.x_fr.temps != [])

let[@inline] count_steps (r : regs) n =
  let st = r.x_st in
  st.steps <- st.steps + n

(* Register [code.(at)] of this call. *)
let[@inline] reg_at (r : regs) (code : int array) at =
  Array.unsafe_get r.x_stk_i (r.x_rb + Array.unsafe_get code at)

(* [loop_rinc]'s and the rotated back edges' [rinc]: register
   [code.(pc + 1)] += [code.(pc + 2)]. *)
let[@inline] rinc_at (r : regs) (code : int array) pc =
  let i = r.x_rb + Array.unsafe_get code (pc + 1) in
  Array.unsafe_set r.x_stk_i i
    (Array.unsafe_get r.x_stk_i i + Array.unsafe_get code (pc + 2))

(* A rotated back edge past its [rinc], once the head's test has given
   [holds], with {!steps_only} [r 3] checked: the steps of the back
   edge's two safepoints and, when the test holds, of the body's leading
   one, and where to go on — the body past that safepoint, or the exit. *)
let[@inline] back_edge (r : regs) (code : int array) pc holds =
  if holds then begin
    count_steps r 3;
    Array.unsafe_get code (pc + 5)
  end
  else begin
    count_steps r 2;
    Array.unsafe_get code (pc + 6)
  end

(* The length of the slice or string in frame slot [s], or -1 when it
   holds anything else or is unbound (a map, nil, poison: left to
   {!full}). *)
let[@inline] slot_len (r : regs) s =
  match Array.unsafe_get r.x_slots s with
  | Bdirect c | Bboxed (_, c) -> begin
    match cget c with
    | Value.VIslice s -> s.i_len
    | Value.VSlice s -> s.Value.s_len
    | Value.VStr s -> String.length s
    | _ -> -1
  end
  | Bunbound -> -1

(* The n values most recently pushed, oldest first. *)
let popped (stk_v : Value.value array) sp_v n =
  let rec build i acc =
    if i < sp_v - n then acc
    else build (i - 1) (Array.unsafe_get stk_v i :: acc)
  in
  build (sp_v - 1) []

(* The n values most recently pushed, oldest first, as a fresh array:
   the fields of a struct literal. *)
let field_array (stk_v : Value.value array) sp_v n : Value.value array =
  Array.sub stk_v (sp_v - n) n

(* {!Value.poison_int}, restated so the dispatch loop compares against
   an immediate. *)
let poison_int = -0x3EAD_BEEF_DEAD_BEEF

let () = assert (poison_int = Value.poison_int)

(* [index_i]'s element read, shared with [index_i_sr]: the common case
   (an element of a live int slice, a byte of a string) inline, the rest
   through {!Interp.index_value}. *)
let[@inline] index_int heap (va : Value.value) (vi : int) : int =
  match va with
  | Value.VIslice s when vi >= 0 && vi < s.i_len ->
    Value.read_int heap s.i_obj s.i_ints (s.i_off + vi)
  | Value.VStr s when vi >= 0 && vi < String.length s ->
    (* byte of a string, sans the boxed VInt the generic path makes *)
    Char.code (String.unsafe_get s vi)
  | _ -> as_int (index_value heap va vi)

(* [store_index_i]'s write, shared with [store_i_sr]: an int into
   a live int slice in place, every other shape through
   {!Interp.store_index}. *)
let[@inline] store_int (va : Value.value) (vi : int) (n : int) =
  match va with
  | Value.VIslice s when vi >= 0 && vi < s.i_len ->
    Array.unsafe_set s.i_ints (s.i_off + vi) n
  | _ -> store_index va vi (Value.vint n)

(* [vload]'s read of a frame slot, for the superinstructions that read
   their slice operand in place: the same unbound and poison checks. *)
let[@inline] slot_value (r : regs) s nidx : Value.value =
  match Array.unsafe_get r.x_slots s with
  | Bdirect c | Bboxed (_, c) -> (
    match cget c with
    | Value.VPoison -> raise (Value.Corruption "read of freed memory")
    | v -> v)
  | Bunbound -> unbound_local r nidx

(* Count a hit of field site [cidx] whose cached base shape is [shape]
   (1 = struct value, 2 = pointer), or a miss that caches it. *)
let field_site (r : regs) cidx shape =
  let st = r.x_st in
  let c = r.x_f.B.bf_caches.(cidx) in
  if c.B.c_a = shape then st.ic_hits <- st.ic_hits + 1
  else begin
    st.ic_misses <- st.ic_misses + 1;
    c.B.c_a <- shape
  end

(* Shared by the three field opcodes: base normalization (implicit
   pointer dereference), the struct-shape inline-cache bookkeeping, and
   the field read. *)
let field_value (r : regs) (va : Value.value) fidx cidx nidx : Value.value =
  match va with
  | Value.VPtr p -> (
    match Value.read_ptr p with
    | Value.VStruct fields ->
      field_site r cidx 2;
      Value.read_elem fields fidx
    | _ ->
      raise
        (Runtime_error
           ("field access ." ^ r.x_f.B.bf_names.(nidx) ^ " on non-struct")))
  | Value.VEptr e ->
    field_site r cidx 2;
    Value.read_elem e.Value.e_arr (e.Value.e_base + fidx)
  | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
  | Value.VStruct fields ->
    field_site r cidx 1;
    Value.read_elem fields fidx
  | _ ->
    raise
      (Runtime_error
         ("field access ." ^ r.x_f.B.bf_names.(nidx) ^ " on non-struct"))

(* [sfield_v]'s read, shared with the field-operand forms: field [fidx]
   of the struct in frame slot [s], or of the struct it points to, with
   the unbound, poison and shape errors of [vload; field_v] and the
   inline-cache bookkeeping of site [cidx]. *)
let slot_field (r : regs) s fidx cidx nidx fnidx : Value.value =
  match Array.unsafe_get r.x_slots s with
  | Bdirect c | Bboxed (_, c) -> (
    match cget c with
    | Value.VPoison -> raise (Value.Corruption "read of freed memory")
    | va -> field_value r va fidx cidx fnidx)
  | Bunbound -> unbound_local r nidx

(* [fstore_i]'s write, shared with [finc]: int [n] into field [fidx] of
   the struct pointer [va] points to. *)
let store_field_int (va : Value.value) fidx n =
  match va with
  | Value.VPtr p -> begin
    match pget p with
    | Value.VStruct fields -> fields.(fidx) <- Value.vint n
    | Value.VPoison -> raise (Value.Corruption "read of freed memory")
    | _ -> raise (Runtime_error "field of non-struct")
  end
  | Value.VEptr e -> e.Value.e_arr.(e.Value.e_base + fidx) <- Value.vint n
  | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
  | _ -> raise (Runtime_error "field of non-pointer")

(* The fields of the struct that frame slot [s] points to, or [[||]]
   when it holds anything else (a field form's [Bunbound], nil, poison,
   struct-value and flat-store-element shapes, all left to {!full}): the
   shape the fast field forms of {!loop} read.  A struct the program
   reads a field of has at least one. *)
let[@inline] ptr_fields (r : regs) s : Value.value array =
  match Array.unsafe_get r.x_slots s with
  | Bdirect c | Bboxed (_, c) -> begin
    match cget c with
    | Value.VPtr p -> begin
      match pget p with Value.VStruct fields -> fields | _ -> [||]
    end
    | _ -> [||]
  end
  | Bunbound -> [||]

(* Count a hit of a field site whose cached shape is a pointer, or a
   miss that caches it: [field_value]'s bookkeeping for that shape. *)
let[@inline] ptr_site_hit (r : regs) cidx =
  let st = r.x_st in
  let c = r.x_f.B.bf_caches.(cidx) in
  if c.B.c_a = 2 then st.ic_hits <- st.ic_hits + 1
  else begin
    st.ic_misses <- st.ic_misses + 1;
    c.B.c_a <- 2
  end

(* The buckets of map [hdr], through the inline cache of the map-get
   site [cidx].  The cache holds the identity of the map the site last
   read (header object, header payload, version, typed buckets; see
   {!Bytecode.centry}).  On a hit the buckets come from the cache,
   skipping both payload reads; a miss reads them like [Interp.map_get]
   and updates the snapshot.  Either way the lookup that follows is
   [Interp.map_get]'s bucket search, so it finds the identical entry, and
   map reads allocate nothing in the simulated heap. *)
let cached_buckets (r : regs) hdr cidx : Value.buckets =
  let st = r.x_st in
  let c = r.x_f.B.bf_caches.(cidx) in
  (* one pointer load = one coherent snapshot, even when goroutines
     on other domains are racing to repopulate this site *)
  let e = c.B.c_e in
  if e.B.ce_a == hdr && e.B.ce_ver = e.B.ce_md.Value.md_version then begin
    st.ic_hits <- st.ic_hits + 1;
    e.B.ce_b
  end
  else begin
    st.ic_misses <- st.ic_misses + 1;
    let md = Interp.map_data st hdr in
    let ver = md.Value.md_version in
    let bk = Interp.map_buckets st md in
    if e.B.ce_a == hdr && e.B.ce_b == bk then e.B.ce_ver <- ver
    else c.B.c_e <- { B.ce_a = hdr; ce_md = md; ce_ver = ver; ce_b = bk };
    bk
  end

(* [mapget_v]: an absent key's zero value is freshly made per read.
   [mapget_i], [mapget_b] and [mapget_ii] push the value's int-stack
   word, 0 for an absent key. *)
let mapget_value (r : regs) (vm : Value.value) (vk : Value.value) zidx cidx :
    Value.value =
  match vm with
  | Value.VMap hdr ->
    let bk = cached_buckets r hdr cidx in
    let h = Value.hash_key vk in
    let b = Value.bucket_of bk h in
    let j = Value.find bk b h vk in
    let zero = r.x_f.B.bf_zeros.(zidx) in
    if j >= 0 then Value.value_at bk b j zero else zero ()
  | Value.VNil -> r.x_f.B.bf_zeros.(zidx) ()
  | _ -> raise (Runtime_error "not a map")

let mapget_word (r : regs) (vm : Value.value) (vk : Value.value) cidx =
  match vm with
  | Value.VMap hdr ->
    let bk = cached_buckets r hdr cidx in
    let h = Value.hash_key vk in
    let b = Value.bucket_of bk h in
    let j = Value.find bk b h vk in
    if j >= 0 then Value.int_at bk b j else 0
  | Value.VNil -> 0
  | _ -> raise (Runtime_error "not a map")

let mapget_ii (r : regs) (vm : Value.value) k cidx =
  match vm with
  | Value.VMap hdr ->
    let bk = cached_buckets r hdr cidx in
    let h = Hashtbl.hash k in
    let b = Value.bucket_of bk h in
    let j = Value.find_int bk b h k in
    if j >= 0 then Value.int_at bk b j else 0
  | Value.VNil -> 0
  | _ -> raise (Runtime_error "not a map")

(* A store to a nil map panics; anything else there is not a map. *)
let[@inline never] not_a_map_store = function
  | Value.VNil -> raise (Panic (Value.VStr "assignment to entry in nil map"))
  | _ -> raise (Runtime_error "not a map")

(* Bind a variable to a fresh value in its home, as the reference
   walker's [declare_var] does: an int or bool into its register, any
   other value into a fresh frame cell or heap box. *)
let bind_home st fr (stk_i : int array) rb (h : B.home) v =
  match h with
  | B.Hint reg ->
    Array.unsafe_set stk_i (rb + reg)
      (match v with Value.VInt n -> n | v -> as_int v)
  | B.Hbool reg -> Array.unsafe_set stk_i (rb + reg) (if truthy v then 1 else 0)
  | B.Hcell s -> fr.slots.(s) <- Bdirect [| v |]
  | B.Hbox (s, size) ->
    let c = [| v |] in
    let obj =
      alloc_heap_obj st ~category:Rt.Metrics.Cat_other ~size
        ~payload:(Value.Pcells c)
    in
    fr.slots.(s) <- Bboxed (obj, c)

(* [decl]'s binding: the declared local's home in this function. *)
let declare (r : regs) d v =
  bind_home r.x_st r.x_fr r.x_stk_i r.x_rb r.x_f.B.bf_decls.(d) v

(* The packed zero results of a recovered call: [call_fn]'s [zeros]. *)
let zeros_ret st (f : B.fn) = f.B.bf_zeros_ret st

(* {!run}, for the [call] opcode.  Tying the knot through a reference
   keeps [run], whose closure is passed to [call_fn] as a value, out of
   the dispatch loop's recursive group: compiled in one group with it,
   the loop ran measurably slower on call-free code. *)
let run_ref :
    (state -> frame -> B.fn -> Value.value array -> int -> Value.value) ref =
  ref (fun _ _ _ _ _ -> assert false)

(* The dispatch loop proper: the hot opcodes, each written so that it
   calls no function before its tail call — only a value-stack store
   calls the write barrier.  OCaml saves a value live across a call to
   the stack at the function's entry, on every path: here that is one
   stack pointer, where a single helper call in this function made
   every dispatch save [r], [pc] and both stack pointers and reload [r]
   three times.  Jumps, int arithmetic, constants and register
   accesses never need a call, and their cases here are their only
   implementation.  The other cases meet only their common shape — a
   live int slice element, a frame cell holding a pointer to a struct,
   a safepoint with nothing to do — and send every other shape, like
   every opcode not listed, to {!full} at the same pc with nothing done
   yet; each of those cases is {!full}'s case restricted to that shape,
   so behaviour cannot differ. *)
let rec loop (r : regs) pc sp_v sp_i =
  let code = r.x_code in
  let stk_i = r.x_stk_i in
  match Array.unsafe_get code pc with
  | 1 (* safepoint, when it only counts the step *) when steps_only r 1 ->
    count_steps r 1;
    loop r (pc + 1) sp_v sp_i
  | 122 (* safepoints n, when they only count their steps *)
    when steps_only r (Array.unsafe_get code (pc + 1)) ->
    count_steps r (Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 2 (* jmp *) -> loop r (Array.unsafe_get code (pc + 1)) sp_v sp_i
  | 3 (* jmpifnot *) ->
    if Array.unsafe_get stk_i (sp_i - 1) = 0 then
      loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 1)
    else loop r (pc + 2) sp_v (sp_i - 1)
  | 4 (* jmpif *) ->
    if Array.unsafe_get stk_i (sp_i - 1) <> 0 then
      loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 1)
    else loop r (pc + 2) sp_v (sp_i - 1)
  | 7 (* ret, one result *) when Array.unsafe_get code (pc + 1) = 1 ->
    Array.unsafe_get r.x_stk_v (sp_v - 1)
  | 8 (* iconst *) ->
    Array.unsafe_set stk_i sp_i (Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v (sp_i + 1)
  | 12 (* vload, of a bound cell *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) when cget c != Value.VPoison ->
      Array.unsafe_set r.x_stk_v sp_v (cget c);
      loop r (pc + 3) (sp_v + 1) sp_i
    | _ -> full r pc sp_v sp_i
  end
  | 16 (* box_i *) ->
    Array.unsafe_set r.x_stk_v sp_v (vint (Array.unsafe_get stk_i (sp_i - 1)));
    loop r (pc + 1) (sp_v + 1) (sp_i - 1)
  | 18 (* unbox_i, of an int *) -> begin
    match Array.unsafe_get r.x_stk_v (sp_v - 1) with
    | Value.VInt n ->
      Array.unsafe_set stk_i sp_i n;
      loop r (pc + 1) (sp_v - 1) (sp_i + 1)
    | _ -> full r pc sp_v sp_i
  end
  | 21 (* pop_v *) -> loop r (pc + 1) (sp_v - 1) sp_i
  | 22 (* add_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2) + Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 23 (* sub_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2) - Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 24 (* mul_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2) * Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 27 (* and_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2)
      land Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 28 (* or_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2)
      lor Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 29 (* xor_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2)
      lxor Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 32 (* neg_i *) ->
    Array.unsafe_set stk_i (sp_i - 1) (-Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v sp_i
  | 33 (* lt_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if Array.unsafe_get stk_i (sp_i - 2) < Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 34 (* le_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if
         Array.unsafe_get stk_i (sp_i - 2)
         <= Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 35 (* gt_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if Array.unsafe_get stk_i (sp_i - 2) > Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 36 (* ge_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if
         Array.unsafe_get stk_i (sp_i - 2)
         >= Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 37 (* eq_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if Array.unsafe_get stk_i (sp_i - 2) = Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 38 (* ne_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if
         Array.unsafe_get stk_i (sp_i - 2)
         <> Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 39 (* not_b *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) lxor 1);
    loop r (pc + 1) sp_v sp_i
  | 55 (* index_i, a live element of an int slice in range *) -> begin
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    match Array.unsafe_get r.x_stk_v (sp_v - 1) with
    | Value.VIslice s when vi >= 0 && vi < s.i_len ->
      let n = Array.unsafe_get s.i_ints (s.i_off + vi) in
      if n = poison_int then full r pc sp_v sp_i
      else begin
        Array.unsafe_set stk_i (sp_i - 1) n;
        loop r (pc + 1) (sp_v - 1) sp_i
      end
    | Value.VStr s when vi >= 0 && vi < String.length s ->
      Array.unsafe_set stk_i (sp_i - 1) (Char.code (String.unsafe_get s vi));
      loop r (pc + 1) (sp_v - 1) sp_i
    | _ -> full r pc sp_v sp_i
  end
  | 64 (* len, of a slice or string *) -> begin
    match Array.unsafe_get r.x_stk_v (sp_v - 1) with
    | Value.VIslice s ->
      Array.unsafe_set stk_i sp_i s.i_len;
      loop r (pc + 1) (sp_v - 1) (sp_i + 1)
    | Value.VSlice s ->
      Array.unsafe_set stk_i sp_i s.Value.s_len;
      loop r (pc + 1) (sp_v - 1) (sp_i + 1)
    | Value.VStr s ->
      Array.unsafe_set stk_i sp_i (String.length s);
      loop r (pc + 1) (sp_v - 1) (sp_i + 1)
    | _ -> full r pc sp_v sp_i
  end
  | 103 (* addk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) + Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 104 (* subk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) - Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 105 (* mulk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) * Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 106 (* divk_i, k <> 0 *) when Array.unsafe_get code (pc + 1) <> 0 ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) / Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 107 (* modk_i, k <> 0 *) when Array.unsafe_get code (pc + 1) <> 0 ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) mod Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 109 (* sfield_i, through a pointer, an int field *) -> begin
    match ptr_fields r (Array.unsafe_get code (pc + 1)) with
    | [||] -> full r pc sp_v sp_i
    | fields -> begin
      match fields.(Array.unsafe_get code (pc + 2)) with
      | Value.VInt n ->
        ptr_site_hit r (Array.unsafe_get code (pc + 3));
        Array.unsafe_set stk_i sp_i n;
        loop r (pc + 6) sp_v (sp_i + 1)
      | _ -> full r pc sp_v sp_i
    end
  end
  | 108 (* sfield_v, through a pointer *) -> begin
    match ptr_fields r (Array.unsafe_get code (pc + 1)) with
    | [||] -> full r pc sp_v sp_i
    | fields -> begin
      match fields.(Array.unsafe_get code (pc + 2)) with
      | Value.VPoison -> full r pc sp_v sp_i
      | v ->
        ptr_site_hit r (Array.unsafe_get code (pc + 3));
        Array.unsafe_set r.x_stk_v sp_v v;
        loop r (pc + 6) (sp_v + 1) sp_i
    end
  end
  | 111 (* jlt_not *) ->
    if Array.unsafe_get stk_i (sp_i - 2) < Array.unsafe_get stk_i (sp_i - 1)
    then loop r (pc + 2) sp_v (sp_i - 2)
    else loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 2)
  | 112 (* jge_not *) ->
    if Array.unsafe_get stk_i (sp_i - 2) >= Array.unsafe_get stk_i (sp_i - 1)
    then loop r (pc + 2) sp_v (sp_i - 2)
    else loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 2)
  | 113 (* jlek_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) <= Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 114 (* jgtk_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) > Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 115 (* jgek_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) >= Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 116 (* jeqk_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) = Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 117 (* jnek_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) <> Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 118 (* rload *) ->
    Array.unsafe_set stk_i sp_i
      (Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 1)));
    loop r (pc + 3) sp_v (sp_i + 1)
  | 119 (* rstore *) ->
    Array.unsafe_set stk_i
      (r.x_rb + Array.unsafe_get code (pc + 1))
      (Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 3) sp_v (sp_i - 1)
  | 120 (* rinc *) ->
    let i = r.x_rb + Array.unsafe_get code (pc + 1) in
    Array.unsafe_set stk_i i
      (Array.unsafe_get stk_i i + Array.unsafe_get code (pc + 2));
    loop r (pc + 4) sp_v sp_i
  | 123 (* loop_rinc, when both safepoints only count their step *)
    when steps_only r 2 ->
    count_steps r 2;
    rinc_at r code pc;
    loop r (Array.unsafe_get code (pc + 4)) sp_v sp_i
  | 124 (* jlt_rlen_not, of a slice or string in a bound cell *) ->
    let n = slot_len r (Array.unsafe_get code (pc + 3)) in
    if n < 0 then full r pc sp_v sp_i
    else if reg_at r code (pc + 1) < n then loop r (pc + 6) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 5)) sp_v sp_i
  | 125 (* jlt_rr_not *) ->
    if reg_at r code (pc + 1) < reg_at r code (pc + 3) then
      loop r (pc + 6) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 5)) sp_v sp_i
  (* Register-operand forms. *)
  | 135 (* add_r *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) + reg_at r code (pc + 1));
    loop r (pc + 3) sp_v sp_i
  | 136 (* sub_r *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) - reg_at r code (pc + 1));
    loop r (pc + 3) sp_v sp_i
  | 137 (* addk_r *) ->
    Array.unsafe_set stk_i sp_i
      (reg_at r code (pc + 1) + Array.unsafe_get code (pc + 2));
    loop r (pc + 4) sp_v (sp_i + 1)
  | 138 (* mulk_r *) ->
    Array.unsafe_set stk_i sp_i
      (reg_at r code (pc + 1) * Array.unsafe_get code (pc + 2));
    loop r (pc + 4) sp_v (sp_i + 1)
  | 139 (* modk_r, k <> 0 *) when Array.unsafe_get code (pc + 2) <> 0 ->
    Array.unsafe_set stk_i sp_i
      (reg_at r code (pc + 1) mod Array.unsafe_get code (pc + 2));
    loop r (pc + 4) sp_v (sp_i + 1)
  | 140 (* jlt_rk_not *) ->
    if reg_at r code (pc + 1) < Array.unsafe_get code (pc + 3) then
      loop r (pc + 5) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 4)) sp_v sp_i
  | 141 (* jle_rk_not *) ->
    if reg_at r code (pc + 1) <= Array.unsafe_get code (pc + 3) then
      loop r (pc + 5) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 4)) sp_v sp_i
  | 142 (* jgt_rk_not *) ->
    if reg_at r code (pc + 1) > Array.unsafe_get code (pc + 3) then
      loop r (pc + 5) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 4)) sp_v sp_i
  | 143 (* jge_rk_not *) ->
    if reg_at r code (pc + 1) >= Array.unsafe_get code (pc + 3) then
      loop r (pc + 5) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 4)) sp_v sp_i
  | 144 (* jeq_rk_not *) ->
    if reg_at r code (pc + 1) = Array.unsafe_get code (pc + 3) then
      loop r (pc + 5) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 4)) sp_v sp_i
  | 145 (* jne_rk_not *) ->
    if reg_at r code (pc + 1) <> Array.unsafe_get code (pc + 3) then
      loop r (pc + 5) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 4)) sp_v sp_i
  (* Rotated back edges, when their three safepoints only count their
     steps: [rinc], the head's test on its operands (from pc + 7 on),
     then {!back_edge}.  Any other case goes to {!full}'s [loop_rinc]
     with nothing done. *)
  | 146 (* loop_lt_rr *) when steps_only r 3 ->
    rinc_at r code pc;
    loop r
      (back_edge r code pc (reg_at r code (pc + 7) < reg_at r code (pc + 9)))
      sp_v sp_i
  | 147 (* loop_lt_rlen, of a slice or string in a bound cell *)
    when steps_only r 3 ->
    (* the slot is not the register: its length may be read first *)
    let n = slot_len r (Array.unsafe_get code (pc + 9)) in
    if n < 0 then full r pc sp_v sp_i
    else begin
      rinc_at r code pc;
      loop r (back_edge r code pc (reg_at r code (pc + 7) < n)) sp_v sp_i
    end
  | 148 (* loop_lt_rk *) when steps_only r 3 ->
    rinc_at r code pc;
    loop r
      (back_edge r code pc
         (reg_at r code (pc + 7) < Array.unsafe_get code (pc + 9)))
      sp_v sp_i
  | 126 (* index_i_sr, a live element of an int slice in range *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) -> begin
      let vi =
        Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 3))
      in
      match cget c with
      | Value.VIslice s when vi >= 0 && vi < s.i_len ->
        let n = Array.unsafe_get s.i_ints (s.i_off + vi) in
        if n = poison_int then full r pc sp_v sp_i
        else begin
          Array.unsafe_set stk_i sp_i n;
          loop r (pc + 5) sp_v (sp_i + 1)
        end
      | _ -> full r pc sp_v sp_i
    end
    | Bunbound -> full r pc sp_v sp_i
  end
  | 155 (* elem_field_i_sr, an int field of a live flat store's element *)
    -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) -> begin
      let vi =
        Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 3))
      in
      match cget c with
      | Value.VSlice s when s.Value.s_w > 0 && vi >= 0 && vi < s.Value.s_len
        -> begin
        match
          Array.unsafe_get s.Value.s_cells
            (((s.Value.s_off + vi) * s.Value.s_w) + Array.unsafe_get code (pc + 5))
        with
        | Value.VInt n ->
          Array.unsafe_set stk_i sp_i n;
          loop r (pc + 6) sp_v (sp_i + 1)
        | _ -> full r pc sp_v sp_i
      end
      | _ -> full r pc sp_v sp_i
    end
    | Bunbound -> full r pc sp_v sp_i
  end
  | 156 (* elem_field_v_sr, a field of a live flat store's element *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) -> begin
      let vi =
        Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 3))
      in
      match cget c with
      | Value.VSlice s when s.Value.s_w > 0 && vi >= 0 && vi < s.Value.s_len
        -> begin
        match
          Array.unsafe_get s.Value.s_cells
            (((s.Value.s_off + vi) * s.Value.s_w) + Array.unsafe_get code (pc + 5))
        with
        | Value.VPoison -> full r pc sp_v sp_i
        | v ->
          Array.unsafe_set r.x_stk_v sp_v v;
          loop r (pc + 6) (sp_v + 1) sp_i
      end
      | _ -> full r pc sp_v sp_i
    end
    | Bunbound -> full r pc sp_v sp_i
  end
  | 127 (* store_index_i, into a live int slice in range *) -> begin
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    match Array.unsafe_get r.x_stk_v (sp_v - 1) with
    | Value.VIslice s when vi >= 0 && vi < s.i_len ->
      Array.unsafe_set s.i_ints (s.i_off + vi)
        (Array.unsafe_get stk_i (sp_i - 2));
      loop r (pc + 1) (sp_v - 1) (sp_i - 2)
    | _ -> full r pc sp_v sp_i
  end
  | 128 (* store_i_sr, into a live int slice in range *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) -> begin
      let vi =
        Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 3))
      in
      match cget c with
      | Value.VIslice s when vi >= 0 && vi < s.i_len ->
        Array.unsafe_set s.i_ints (s.i_off + vi)
          (Array.unsafe_get stk_i (sp_i - 1));
        loop r (pc + 5) sp_v (sp_i - 1)
      | _ -> full r pc sp_v sp_i
    end
    | Bunbound -> full r pc sp_v sp_i
  end
  | 130 (* append_i, of one int, within the int slice's capacity *)
    when Array.unsafe_get code (pc + 2) = 1 -> begin
    match Array.unsafe_get r.x_stk_v (sp_v - 1) with
    | Value.VIslice s when s.i_off + s.i_len < Array.length s.i_ints ->
      Array.unsafe_set s.i_ints (s.i_off + s.i_len)
        (Array.unsafe_get stk_i (sp_i - 1));
      Array.unsafe_set r.x_stk_v (sp_v - 1)
        (Value.VIslice { s with i_len = s.i_len + 1 });
      loop r (pc + 3) sp_v (sp_i - 1)
    | _ -> full r pc sp_v sp_i
  end
  (* The field-operand forms, when the frame slot holds a pointer to a
     struct and the fields have the shapes the scanner reads: an int,
     and a string or a slice. *)
  | 131 (* flen *) -> begin
    match ptr_fields r (Array.unsafe_get code (pc + 1)) with
    | [||] -> full r pc sp_v sp_i
    | fields -> begin
      let n =
        match fields.(Array.unsafe_get code (pc + 2)) with
        | Value.VStr s -> String.length s
        | Value.VSlice s -> s.Value.s_len
        | Value.VIslice s -> s.i_len
        | _ -> -1
      in
      if n < 0 then full r pc sp_v sp_i
      else begin
        ptr_site_hit r (Array.unsafe_get code (pc + 3));
        Array.unsafe_set stk_i sp_i n;
        loop r (pc + 6) sp_v (sp_i + 1)
      end
    end
  end
  | 134 (* finc, an int field through a pointer *) -> begin
    match ptr_fields r (Array.unsafe_get code (pc + 1)) with
    | [||] -> full r pc sp_v sp_i
    | fields -> begin
      let fidx = Array.unsafe_get code (pc + 2) in
      match fields.(fidx) with
      | Value.VInt n ->
        ptr_site_hit r (Array.unsafe_get code (pc + 3));
        fields.(fidx) <- vint (n + Array.unsafe_get code (pc + 4));
        loop r (pc + 7) sp_v sp_i
      | _ -> full r pc sp_v sp_i
    end
  end
  | 132 (* index_ff, a byte of a string field at an int field *) -> begin
    match ptr_fields r (Array.unsafe_get code (pc + 1)) with
    | [||] -> full r pc sp_v sp_i
    | fields -> begin
      match
        ( fields.(Array.unsafe_get code (pc + 2)),
          fields.(Array.unsafe_get code (pc + 4)) )
      with
      | Value.VStr s, Value.VInt i when i >= 0 && i < String.length s ->
        ptr_site_hit r (Array.unsafe_get code (pc + 3));
        ptr_site_hit r (Array.unsafe_get code (pc + 5));
        Array.unsafe_set stk_i sp_i (Char.code (String.unsafe_get s i));
        loop r (pc + 9) sp_v (sp_i + 1)
      | _ -> full r pc sp_v sp_i
    end
  end
  | 133 (* jlt_flen_not, an int field against a string field's length *)
    -> begin
    match ptr_fields r (Array.unsafe_get code (pc + 1)) with
    | [||] -> full r pc sp_v sp_i
    | fields -> begin
      match
        ( fields.(Array.unsafe_get code (pc + 2)),
          fields.(Array.unsafe_get code (pc + 4)) )
      with
      | Value.VInt a, Value.VStr s ->
        ptr_site_hit r (Array.unsafe_get code (pc + 3));
        ptr_site_hit r (Array.unsafe_get code (pc + 5));
        if a < String.length s then loop r (pc + 10) sp_v sp_i
        else loop r (Array.unsafe_get code (pc + 9)) sp_v sp_i
      | _ -> full r pc sp_v sp_i
    end
  end
  | _ -> full r pc sp_v sp_i

(* Every opcode {!loop} does not complete, in every shape.  Entered
   only from {!loop}, at the instruction it declined; continues in
   {!loop}. *)
and full (r : regs) pc sp_v sp_i =
  let code = r.x_code in
  let stk_v = r.x_stk_v in
  let stk_i = r.x_stk_i in
  match Array.unsafe_get code pc with
  | 0 (* halt: fell off the end *) -> r.x_f.B.bf_zeros_ret r.x_st
  | 1 (* safepoint *) ->
    vm_safepoint r;
    loop r (pc + 1) sp_v sp_i
  | 5 (* push_scope *) ->
    push_scope r.x_fr;
    r.x_scopes <- r.x_scopes + 1;
    loop r (pc + 1) sp_v sp_i
  | 6 (* pop_scope *) ->
    pop_scope r.x_st r.x_fr;
    r.x_scopes <- r.x_scopes - 1;
    loop r (pc + 1) sp_v sp_i
  | 7 (* ret: the results, packed like Interp.pack_results *) -> begin
    match Array.unsafe_get code (pc + 1) with
    | 1 -> Array.unsafe_get stk_v (sp_v - 1)
    | 0 -> Value.VUnit
    | n -> Value.VTuple (popped stk_v sp_v n)
  end
  | 9 (* const *) ->
    Array.unsafe_set stk_v sp_v
      r.x_f.B.bf_consts.(Array.unsafe_get code (pc + 1));
    loop r (pc + 2) (sp_v + 1) sp_i
  | 10 (* iload *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match cget c with
      | Value.VInt n -> Array.unsafe_set stk_i sp_i n
      | _ -> Array.unsafe_set stk_i sp_i (as_int (Value.read_cell c)));
      loop r (pc + 3) sp_v (sp_i + 1)
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 11 (* bload *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match cget c with
      | Value.VBool b -> Array.unsafe_set stk_i sp_i (if b then 1 else 0)
      | _ ->
        Array.unsafe_set stk_i sp_i
          (if truthy (Value.read_cell c) then 1 else 0));
      loop r (pc + 3) sp_v (sp_i + 1)
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 12 (* vload *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (* Value.read_cell, inlined *)
      (match cget c with
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_v sp_v v);
      loop r (pc + 3) (sp_v + 1) sp_i
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 13 (* giload *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match cget c with
      | Value.VInt n -> Array.unsafe_set stk_i sp_i n
      | _ -> Array.unsafe_set stk_i sp_i (as_int (Value.read_cell c)));
      loop r (pc + 3) sp_v (sp_i + 1)
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 14 (* gbload *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match cget c with
      | Value.VBool b -> Array.unsafe_set stk_i sp_i (if b then 1 else 0)
      | _ ->
        Array.unsafe_set stk_i sp_i
          (if truthy (Value.read_cell c) then 1 else 0));
      loop r (pc + 3) sp_v (sp_i + 1)
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 15 (* gvload *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match cget c with
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_v sp_v v);
      loop r (pc + 3) (sp_v + 1) sp_i
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 17 (* box_b *) ->
    Array.unsafe_set stk_v sp_v
      (Value.vbool (Array.unsafe_get stk_i (sp_i - 1) <> 0));
    loop r (pc + 1) (sp_v + 1) (sp_i - 1)
  | 18 (* unbox_i *) ->
    Array.unsafe_set stk_i sp_i (as_int (Array.unsafe_get stk_v (sp_v - 1)));
    loop r (pc + 1) (sp_v - 1) (sp_i + 1)
  | 19 (* unbox_b *) ->
    Array.unsafe_set stk_i sp_i
      (if truthy (Array.unsafe_get stk_v (sp_v - 1)) then 1 else 0);
    loop r (pc + 1) (sp_v - 1) (sp_i + 1)
  | 20 (* copy *) ->
    Array.unsafe_set stk_v (sp_v - 1)
      (Value.copy (Array.unsafe_get stk_v (sp_v - 1)));
    loop r (pc + 1) sp_v sp_i
  | 25 (* div_i *) ->
    let b = Array.unsafe_get stk_i (sp_i - 1) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i (sp_i - 2) (Array.unsafe_get stk_i (sp_i - 2) / b);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 26 (* mod_i *) ->
    let b = Array.unsafe_get stk_i (sp_i - 1) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2) mod b);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 30 (* shl_i *) ->
    let b = Array.unsafe_get stk_i (sp_i - 1) in
    if b < 0 then raise (Panic (Value.VStr "negative shift amount"));
    Array.unsafe_set stk_i (sp_i - 2)
      (if b >= 63 then 0 else Array.unsafe_get stk_i (sp_i - 2) lsl b);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 31 (* shr_i *) ->
    let b = Array.unsafe_get stk_i (sp_i - 1) in
    if b < 0 then raise (Panic (Value.VStr "negative shift amount"));
    Array.unsafe_set stk_i (sp_i - 2)
      (if b >= 63 then 0 else Array.unsafe_get stk_i (sp_i - 2) asr b);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 40 (* binop *) ->
    let vb = Array.unsafe_get stk_v (sp_v - 1) in
    let va = Array.unsafe_get stk_v (sp_v - 2) in
    Array.unsafe_set stk_v (sp_v - 2)
      (eval_binop r.x_f.B.bf_binops.(Array.unsafe_get code (pc + 1)) va vb);
    loop r (pc + 2) (sp_v - 1) sp_i
  | 41 (* neg_v *) ->
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VInt n -> Array.unsafe_set stk_v (sp_v - 1) (Value.VInt (-n))
    | Value.VFloat x -> Array.unsafe_set stk_v (sp_v - 1) (Value.VFloat (-.x))
    | _ -> raise (Runtime_error "cannot negate"));
    loop r (pc + 1) sp_v sp_i
  | 42 (* decl *) ->
    declare r (Array.unsafe_get code (pc + 1)) (Array.unsafe_get stk_v (sp_v - 1));
    loop r (pc + 2) (sp_v - 1) sp_i
  | 43 (* decl_zero *) ->
    declare r (Array.unsafe_get code (pc + 1))
      (r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 2)) ());
    loop r (pc + 3) sp_v sp_i
  | 44 (* store_slot *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      Value.store c 0 (Array.unsafe_get stk_v (sp_v - 1));
      loop r (pc + 3) (sp_v - 1) sp_i
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 45 (* store_gslot *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      Value.store c 0 (Array.unsafe_get stk_v (sp_v - 1));
      loop r (pc + 3) (sp_v - 1) sp_i
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 46 (* store_slot_i *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      cset c (Value.vint (Array.unsafe_get stk_i (sp_i - 1)));
      loop r (pc + 3) sp_v (sp_i - 1)
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 47 (* store_gslot_i *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      cset c (Value.vint (Array.unsafe_get stk_i (sp_i - 1)));
      loop r (pc + 3) sp_v (sp_i - 1)
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 48 (* store_slot_b *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      cset c (Value.vbool (Array.unsafe_get stk_i (sp_i - 1) <> 0));
      loop r (pc + 3) sp_v (sp_i - 1)
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 49 (* store_gslot_b *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      cset c (Value.vbool (Array.unsafe_get stk_i (sp_i - 1) <> 0));
      loop r (pc + 3) sp_v (sp_i - 1)
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 50 (* store_deref *) ->
    store_deref
      (Array.unsafe_get stk_v (sp_v - 1))
      (Array.unsafe_get stk_v (sp_v - 2));
    loop r (pc + 1) (sp_v - 2) sp_i
  | 51 (* store_index *) ->
    store_index
      (Array.unsafe_get stk_v (sp_v - 1))
      (Array.unsafe_get stk_i (sp_i - 1))
      (Array.unsafe_get stk_v (sp_v - 2));
    loop r (pc + 1) (sp_v - 2) (sp_i - 1)
  | 52 (* store_map *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    let v = Array.unsafe_get stk_v (sp_v - 3) in
    (match vm with
    | Value.VMap hdr -> map_store r.x_st hdr vk (Value.copy v)
    | vm -> not_a_map_store vm);
    loop r (pc + 1) (sp_v - 3) sp_i
  | 150 (* store_map_ii *) ->
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VMap hdr ->
      map_store_ii r.x_st hdr
        (Array.unsafe_get stk_i (sp_i - 1))
        (Array.unsafe_get stk_i (sp_i - 2))
    | vm -> not_a_map_store vm);
    loop r (pc + 1) (sp_v - 1) (sp_i - 2)
  | 151 (* store_map_vi *) ->
    (match Array.unsafe_get stk_v (sp_v - 2) with
    | Value.VMap hdr ->
      map_store_vi r.x_st hdr
        (Array.unsafe_get stk_v (sp_v - 1))
        (Array.unsafe_get stk_i (sp_i - 1))
    | vm -> not_a_map_store vm);
    loop r (pc + 1) (sp_v - 2) (sp_i - 1)
  | 53 (* store_thru *) ->
    let p = Array.unsafe_get stk_v (sp_v - 1) in
    let v = Array.unsafe_get stk_v (sp_v - 2) in
    (match p with
    | Value.VPtr p -> Value.store p.Value.p_arr p.Value.p_idx v
    | _ -> raise (Runtime_error "bad field target"));
    loop r (pc + 1) (sp_v - 2) sp_i
  | 54 (* index_v *) ->
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    let va = Array.unsafe_get stk_v (sp_v - 1) in
    Array.unsafe_set stk_v (sp_v - 1) (index_value r.x_st.heap va vi);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 55 (* index_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (index_int r.x_st.heap
         (Array.unsafe_get stk_v (sp_v - 1))
         (Array.unsafe_get stk_i (sp_i - 1)));
    loop r (pc + 1) (sp_v - 1) sp_i
  | 56 (* index_b *) ->
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    let va = Array.unsafe_get stk_v (sp_v - 1) in
    Array.unsafe_set stk_i (sp_i - 1)
      (if truthy (index_value r.x_st.heap va vi) then 1 else 0);
    loop r (pc + 1) (sp_v - 1) sp_i
  | 57 (* field_v *) -> begin
    (* field_value, inlined for the two cached shapes *)
    match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VPtr p -> begin
      match pget p with
      | Value.VStruct fields ->
        let st = r.x_st in
        let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 2)) in
        if c.B.c_a = 2 then st.ic_hits <- st.ic_hits + 1
        else begin
          st.ic_misses <- st.ic_misses + 1;
          c.B.c_a <- 2
        end;
        (match fields.(Array.unsafe_get code (pc + 1)) with
        | Value.VPoison -> raise (Value.Corruption "read of freed memory")
        | v -> Array.unsafe_set stk_v (sp_v - 1) v);
        loop r (pc + 4) sp_v sp_i
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | _ ->
        raise
          (Runtime_error
             ("field access ."
             ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 3))
             ^ " on non-struct"))
    end
    | Value.VStruct fields ->
      let st = r.x_st in
      let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 2)) in
      if c.B.c_a = 1 then st.ic_hits <- st.ic_hits + 1
      else begin
        st.ic_misses <- st.ic_misses + 1;
        c.B.c_a <- 1
      end;
      (match fields.(Array.unsafe_get code (pc + 1)) with
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_v (sp_v - 1) v);
      loop r (pc + 4) sp_v sp_i
    | va ->
      Array.unsafe_set stk_v (sp_v - 1)
        (field_value r va
           (Array.unsafe_get code (pc + 1))
           (Array.unsafe_get code (pc + 2))
           (Array.unsafe_get code (pc + 3)));
      loop r (pc + 4) sp_v sp_i
  end
  | 58 (* field_i *) -> begin
    match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VPtr p -> begin
      match pget p with
      | Value.VStruct fields ->
        let st = r.x_st in
        let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 2)) in
        if c.B.c_a = 2 then st.ic_hits <- st.ic_hits + 1
        else begin
          st.ic_misses <- st.ic_misses + 1;
          c.B.c_a <- 2
        end;
        (match fields.(Array.unsafe_get code (pc + 1)) with
        | Value.VInt n -> Array.unsafe_set stk_i sp_i n
        | Value.VPoison -> raise (Value.Corruption "read of freed memory")
        | v -> Array.unsafe_set stk_i sp_i (as_int v));
        loop r (pc + 4) (sp_v - 1) (sp_i + 1)
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | _ ->
        raise
          (Runtime_error
             ("field access ."
             ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 3))
             ^ " on non-struct"))
    end
    | Value.VStruct fields ->
      let st = r.x_st in
      let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 2)) in
      if c.B.c_a = 1 then st.ic_hits <- st.ic_hits + 1
      else begin
        st.ic_misses <- st.ic_misses + 1;
        c.B.c_a <- 1
      end;
      (match fields.(Array.unsafe_get code (pc + 1)) with
      | Value.VInt n -> Array.unsafe_set stk_i sp_i n
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_i sp_i (as_int v));
      loop r (pc + 4) (sp_v - 1) (sp_i + 1)
    | va ->
      Array.unsafe_set stk_i sp_i
        (as_int
           (field_value r va
              (Array.unsafe_get code (pc + 1))
              (Array.unsafe_get code (pc + 2))
              (Array.unsafe_get code (pc + 3))));
      loop r (pc + 4) (sp_v - 1) (sp_i + 1)
  end
  | 59 (* field_b *) ->
    let va = Array.unsafe_get stk_v (sp_v - 1) in
    Array.unsafe_set stk_i sp_i
      (if
         truthy
           (field_value r va
              (Array.unsafe_get code (pc + 1))
              (Array.unsafe_get code (pc + 2))
              (Array.unsafe_get code (pc + 3)))
       then 1
       else 0);
    loop r (pc + 4) (sp_v - 1) (sp_i + 1)
  | 60 (* mapget_v *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    Array.unsafe_set stk_v (sp_v - 2)
      (mapget_value r vm vk
         (Array.unsafe_get code (pc + 1))
         (Array.unsafe_get code (pc + 2)));
    loop r (pc + 3) (sp_v - 1) sp_i
  | 61 (* mapget_i *) | 62 (* mapget_b *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    Array.unsafe_set stk_i sp_i
      (mapget_word r vm vk (Array.unsafe_get code (pc + 2)));
    loop r (pc + 3) (sp_v - 2) (sp_i + 1)
  | 149 (* mapget_ii *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (mapget_ii r
         (Array.unsafe_get stk_v (sp_v - 1))
         (Array.unsafe_get stk_i (sp_i - 1))
         (Array.unsafe_get code (pc + 1)));
    loop r (pc + 2) (sp_v - 1) sp_i
  | 63 (* mapget_ok *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    let zidx = Array.unsafe_get code (pc + 1) in
    let res =
      match vm with
      | Value.VMap hdr ->
        (* Interp.map_get's search, keeping the slot to tell presence *)
        let bk = map_buckets r.x_st (map_data r.x_st hdr) in
        let h = Value.hash_key vk in
        let b = Value.bucket_of bk h in
        let j = Value.find bk b h vk in
        let zero = r.x_f.B.bf_zeros.(zidx) in
        if j >= 0 then
          Value.VTuple [ Value.value_at bk b j zero; Value.vbool true ]
        else Value.VTuple [ r.x_f.B.bf_zeros.(zidx) (); Value.vbool false ]
      | Value.VNil ->
        Value.VTuple [ r.x_f.B.bf_zeros.(zidx) (); Value.vbool false ]
      | _ -> raise (Runtime_error "not a map")
    in
    Array.unsafe_set stk_v (sp_v - 2) res;
    loop r (pc + 2) (sp_v - 1) sp_i
  | 64 (* len *) ->
    Array.unsafe_set stk_i sp_i
      (length r.x_st (Array.unsafe_get stk_v (sp_v - 1)));
    loop r (pc + 1) (sp_v - 1) (sp_i + 1)
  | 65 (* cap *) ->
    Array.unsafe_set stk_i sp_i (capacity (Array.unsafe_get stk_v (sp_v - 1)));
    loop r (pc + 1) (sp_v - 1) (sp_i + 1)
  | 66 (* itoa *) ->
    Array.unsafe_set stk_v sp_v
      (Value.VStr (Value.itoa (Array.unsafe_get stk_i (sp_i - 1))));
    loop r (pc + 1) (sp_v + 1) (sp_i - 1)
  | 67 (* rand *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (rand_int r.x_st (Array.unsafe_get stk_i (sp_i - 1)));
    loop r (pc + 1) sp_v sp_i
  | 68 (* substr *) ->
    let hi = Array.unsafe_get stk_i (sp_i - 1) in
    let lo = Array.unsafe_get stk_i (sp_i - 2) in
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VStr s ->
      if lo < 0 || hi > String.length s || lo > hi then
        raise (Panic (Value.VStr "substr out of range"))
      else
        Array.unsafe_set stk_v (sp_v - 1)
          (Value.VStr (String.sub s lo (hi - lo)))
    | _ -> raise (Runtime_error "substr on non-string"));
    loop r (pc + 1) sp_v (sp_i - 2)
  | 69 (* slice_sub *) ->
    let flags = Array.unsafe_get code (pc + 1) in
    let npop = (flags land 1) + ((flags land 2) lsr 1) in
    let hi =
      if flags land 2 <> 0 then Some (Array.unsafe_get stk_i (sp_i - 1))
      else None
    in
    let lo =
      if flags land 1 <> 0 then Some (Array.unsafe_get stk_i (sp_i - npop))
      else None
    in
    Array.unsafe_set stk_v (sp_v - 1)
      (reslice (Array.unsafe_get stk_v (sp_v - 1)) lo hi);
    loop r (pc + 2) sp_v (sp_i - npop)
  | 70 (* slice_copy *) ->
    Array.unsafe_set stk_i sp_i
      (slice_copy r.x_st
         (Array.unsafe_get stk_v (sp_v - 2))
         (Array.unsafe_get stk_v (sp_v - 1)));
    loop r (pc + 1) (sp_v - 2) (sp_i + 1)
  | 71 (* deref *) ->
    Array.unsafe_set stk_v (sp_v - 1)
      (deref r.x_st.heap (Array.unsafe_get stk_v (sp_v - 1)));
    loop r (pc + 1) sp_v sp_i
  | 72 (* call *) ->
    let f = Array.unsafe_get r.x_f.B.bf_prog (Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    let st = r.x_st in
    (* the callee binds its arguments straight from this window *)
    Array.unsafe_set stk_v (sp_v - n)
      (pin st r.x_fr
         (call_fn st ~nslots:f.B.bf_nslots ~body:!run_ref ~zeros:zeros_ret f stk_v
            (sp_v - n)));
    loop r (pc + 3) (sp_v - n + 1) sp_i
  | 73 (* call_undef *) ->
    raise
      (Runtime_error
         ("undefined function "
         ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 1))))
  | 74 (* go *) ->
    let fid = Array.unsafe_get code (pc + 1) in
    let n = Array.unsafe_get code (pc + 2) in
    spawn_goroutine r.x_st fid (Array.sub stk_v (sp_v - n) n);
    loop r (pc + 3) (sp_v - n) sp_i
  | 75 (* go_undef *) ->
    raise
      (Runtime_error
         ("undefined function "
         ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 1))))
  | 76 (* defer *) ->
    let fid = Array.unsafe_get code (pc + 1) in
    let n = Array.unsafe_get code (pc + 2) in
    r.x_fr.defers <- (fid, Array.sub stk_v (sp_v - n) n) :: r.x_fr.defers;
    loop r (pc + 3) (sp_v - n) sp_i
  | 77 (* defer_undef *) ->
    raise
      (Runtime_error
         ("undefined function "
         ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 1))))
  | 78 (* check_len *) ->
    if Array.unsafe_get stk_i (sp_i - 1) < 0 then
      raise (Panic (Value.VStr "makeslice: negative length"));
    loop r (pc + 1) sp_v sp_i
  | 79 (* make_slice *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let zero_of = r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 2)) in
    let has_cap = Array.unsafe_get code (pc + 3) = 1 in
    let npop = if has_cap then 2 else 1 in
    let len = Array.unsafe_get stk_i (sp_i - npop) in
    let cap = if has_cap then Array.unsafe_get stk_i (sp_i - 1) else len in
    Array.unsafe_set stk_v sp_v
      (make_slice_obj r.x_st r.x_fr ~site ~len ~cap ~zero_of);
    loop r (pc + 4) (sp_v + 1) (sp_i - npop)
  | 80 (* make_map *) ->
    let cols = Array.unsafe_get code (pc + 2) in
    Array.unsafe_set stk_v sp_v
      (make_map_obj r.x_st r.x_fr
         ~site:r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1))
         ~key:B.map_key_kinds.(cols / 3) ~value:B.map_val_kinds.(cols mod 3));
    loop r (pc + 3) (sp_v + 1) sp_i
  | 81 (* new *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let c =
      Value.cell (r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 2)) ())
    in
    let obj =
      alloc_obj r.x_st r.x_fr ~site ~category:Rt.Metrics.Cat_other
        ~size:(max 8 site.Tast.site_elem_size)
        ~payload:(Value.Pcells c)
    in
    Array.unsafe_set stk_v sp_v
      (pin r.x_st r.x_fr
         (Value.VPtr (Value.cell_ptr obj c)));
    loop r (pc + 3) (sp_v + 1) sp_i
  | 82 (* slice_lit *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    let zero = r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 3)) () in
    Array.unsafe_set stk_v (sp_v - n)
      (alloc_slice r.x_st r.x_fr ~site ~growth:false
         (Value.grown_store zero [||] 0 0 stk_v (sp_v - n) n n)
         ~cap:n ~len:n);
    loop r (pc + 4) (sp_v - n + 1) sp_i
  | 83 (* struct_lit *) ->
    let n = Array.unsafe_get code (pc + 1) in
    Array.unsafe_set stk_v (sp_v - n)
      (Value.VStruct (field_array stk_v sp_v n));
    loop r (pc + 2) (sp_v - n + 1) sp_i
  | 84 (* addr_struct_lit *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    let v = Value.VStruct (field_array stk_v sp_v n) in
    let c = Value.cell v in
    let obj =
      alloc_obj r.x_st r.x_fr ~site ~category:Rt.Metrics.Cat_other
        ~size:(max 8 site.Tast.site_elem_size)
        ~payload:(Value.Pcells c)
    in
    Array.unsafe_set stk_v (sp_v - n)
      (pin r.x_st r.x_fr
         (Value.VPtr (Value.cell_ptr obj c)));
    loop r (pc + 3) (sp_v - n + 1) sp_i
  | 85 (* append *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    let zero_of = r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 3)) in
    let base = Array.unsafe_get stk_v (sp_v - n - 1) in
    Array.unsafe_set stk_v (sp_v - n - 1)
      (append_values r.x_st r.x_fr ~site ~zero_of base stk_v (sp_v - n) n);
    loop r (pc + 4) (sp_v - n) sp_i
  | 86 (* addr_slot *) ->
    (match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.cell_ptr Rt.Heap.no_obj c))
    | Bboxed (obj, c) ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.cell_ptr obj c))
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2)));
    loop r (pc + 3) (sp_v + 1) sp_i
  | 87 (* addr_gslot *) ->
    (match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.cell_ptr Rt.Heap.no_obj c))
    | Bboxed (obj, c) ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.cell_ptr obj c))
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2)));
    loop r (pc + 3) (sp_v + 1) sp_i
  | 88 (* addr_index *) ->
    Array.unsafe_set stk_v (sp_v - 1)
      (addr_index
         (Array.unsafe_get stk_v (sp_v - 1))
         (Array.unsafe_get stk_i (sp_i - 1)));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 89 (* addr_field_ptr *) ->
    let fidx = Array.unsafe_get code (pc + 1) in
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VPtr p -> begin
      match Value.read_ptr p with
      | Value.VStruct fields ->
        Array.unsafe_set stk_v (sp_v - 1)
          (Value.field_ptr p.Value.p_owner fields fidx)
      | _ -> raise (Runtime_error "field of non-struct")
    end
    | Value.VEptr e ->
      Array.unsafe_set stk_v (sp_v - 1)
        (Value.field_ptr e.Value.e_owner e.Value.e_arr (e.Value.e_base + fidx))
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | _ -> raise (Runtime_error "field of non-pointer"));
    loop r (pc + 2) sp_v sp_i
  | 90 (* addr_field_slot *) ->
    let fidx = Array.unsafe_get code (pc + 2) in
    let c, owner =
      match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
      | Bdirect c -> (c, Rt.Heap.no_obj)
      | Bboxed (obj, c) -> (c, obj)
      | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 3))
    in
    (match Value.read_cell c with
    | Value.VStruct fields ->
      Array.unsafe_set stk_v sp_v
        (Value.field_ptr owner fields fidx)
    | _ -> raise (Runtime_error "field of non-struct"));
    loop r (pc + 4) (sp_v + 1) sp_i
  | 91 (* addr_field_gslot *) ->
    let fidx = Array.unsafe_get code (pc + 2) in
    let c, owner =
      match
        Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1))
      with
      | Bdirect c -> (c, Rt.Heap.no_obj)
      | Bboxed (obj, c) -> (c, obj)
      | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 3))
    in
    (match Value.read_cell c with
    | Value.VStruct fields ->
      Array.unsafe_set stk_v sp_v
        (Value.field_ptr owner fields fidx)
    | _ -> raise (Runtime_error "field of non-struct"));
    loop r (pc + 4) (sp_v + 1) sp_i
  | 92 (* tuple_check *) ->
    let n = Array.unsafe_get code (pc + 1) in
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VTuple vs when List.length vs = n -> ()
    | _ ->
      raise
        (Runtime_error
           (if Array.unsafe_get code (pc + 2) = 0 then
              "multi-value declaration mismatch"
            else "multi-value assignment mismatch")));
    loop r (pc + 3) sp_v sp_i
  | 93 (* tuple_get *) ->
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VTuple vs ->
      Array.unsafe_set stk_v sp_v
        (List.nth vs (Array.unsafe_get code (pc + 1)))
    | _ -> raise (Runtime_error "expected a tuple"));
    loop r (pc + 2) (sp_v + 1) sp_i
  | 94 (* print *) ->
    let n = Array.unsafe_get code (pc + 1) in
    let parts = List.map (show r.x_st) (popped stk_v sp_v n) in
    Interp.emit_str r.x_st (String.concat " " parts ^ "\n");
    loop r (pc + 2) (sp_v - n) sp_i
  | 95 (* tostr *) ->
    Array.unsafe_set stk_v (sp_v - 1)
      (Value.VStr (show r.x_st (Array.unsafe_get stk_v (sp_v - 1))));
    loop r (pc + 1) sp_v sp_i
  | 96 (* tcfree *) ->
    let s = Array.unsafe_get code (pc + 1) in
    let kind =
      match Array.unsafe_get code (pc + 2) with
      | 0 -> Tast.Free_slice
      | 1 -> Tast.Free_map
      | _ -> Tast.Free_obj
    in
    (match r.x_slots.(s) with
    | Bunbound -> ()  (* declaration never executed on this path *)
    | b -> tcfree_binding r.x_st b kind);
    loop r (pc + 3) sp_v sp_i
  | 97 (* delete *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    (match vm with
    | Value.VMap hdr -> map_delete r.x_st hdr vk
    | Value.VNil -> ()
    | _ -> raise (Runtime_error "delete on non-map"));
    loop r (pc + 1) (sp_v - 2) sp_i
  | 98 (* panic *) -> raise (Panic (Array.unsafe_get stk_v (sp_v - 1)))
  | 99 (* recover *) ->
    (match r.x_st.unwinding with
    | Some v ->
      r.x_st.unwinding <- None;
      Array.unsafe_set stk_v sp_v (Value.VStr (show r.x_st v))
    | None -> Array.unsafe_set stk_v sp_v (Value.VStr ""));
    loop r (pc + 1) (sp_v + 1) sp_i
  | 100 (* range_start *) -> begin
    match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VMap hdr ->
      r.x_iters <- map_range_keys r.x_st hdr :: r.x_iters;
      loop r (pc + 2) (sp_v - 1) sp_i
    | Value.VNil -> loop r (Array.unsafe_get code (pc + 1)) (sp_v - 1) sp_i
    | _ -> raise (Runtime_error "range over non-map")
  end
  | 101 (* range_next *) -> begin
    match r.x_iters with
    | keys :: outer -> begin
      match keys with
      | [] ->
        r.x_iters <- outer;
        loop r (Array.unsafe_get code (pc + 2)) sp_v sp_i
      | key :: rest ->
        r.x_iters <- rest :: outer;
        vm_safepoint r;
        declare r (Array.unsafe_get code (pc + 1)) (Value.copy key);
        loop r (pc + 3) sp_v sp_i
    end
    | [] -> raise (Runtime_error "vm: range_next without iterator")
  end
  | 102 (* range_pop *) ->
    r.x_iters <- List.tl r.x_iters;
    loop r (pc + 1) sp_v sp_i
  (* Superinstructions.  Each case is the literal composition of its
     unfused expansion above — same evaluation order, same panics. *)
  | 106 (* divk_i *) ->
    let b = Array.unsafe_get code (pc + 1) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i (sp_i - 1) (Array.unsafe_get stk_i (sp_i - 1) / b);
    loop r (pc + 2) sp_v sp_i
  | 107 (* modk_i *) ->
    let b = Array.unsafe_get code (pc + 1) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) mod b);
    loop r (pc + 2) sp_v sp_i
  | 108 (* sfield_v = vload; field_v *) ->
    Array.unsafe_set stk_v sp_v
      (slot_field r
         (Array.unsafe_get code (pc + 1))
         (Array.unsafe_get code (pc + 2))
         (Array.unsafe_get code (pc + 3))
         (Array.unsafe_get code (pc + 4))
         (Array.unsafe_get code (pc + 5)));
    loop r (pc + 6) (sp_v + 1) sp_i
  | 109 (* sfield_i = vload; field_i *) ->
    Array.unsafe_set stk_i sp_i
      (as_int
         (slot_field r
            (Array.unsafe_get code (pc + 1))
            (Array.unsafe_get code (pc + 2))
            (Array.unsafe_get code (pc + 3))
            (Array.unsafe_get code (pc + 4))
            (Array.unsafe_get code (pc + 5))));
    loop r (pc + 6) sp_v (sp_i + 1)
  | 110 (* fstore_i = addr_field_ptr; store_thru, value from I *) ->
    store_field_int
      (Array.unsafe_get stk_v (sp_v - 1))
      (Array.unsafe_get code (pc + 1))
      (Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 2) (sp_v - 1) (sp_i - 1)
  | 152 (* elem_field_v *) ->
    Array.unsafe_set stk_v (sp_v - 1)
      (index_field r.x_st.heap
         (Array.unsafe_get stk_v (sp_v - 1))
         (Array.unsafe_get stk_i (sp_i - 1))
         (Array.unsafe_get code (pc + 1)));
    loop r (pc + 2) sp_v (sp_i - 1)
  | 153 (* elem_field_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (as_int
         (index_field r.x_st.heap
            (Array.unsafe_get stk_v (sp_v - 1))
            (Array.unsafe_get stk_i (sp_i - 1))
            (Array.unsafe_get code (pc + 1))));
    loop r (pc + 2) (sp_v - 1) sp_i
  | 155 (* elem_field_i_sr = vload; rload; elem_field_i *) ->
    let va =
      slot_value r (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get code (pc + 2))
    in
    Array.unsafe_set stk_i sp_i
      (as_int
         (index_field r.x_st.heap va
            (Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 3)))
            (Array.unsafe_get code (pc + 5))));
    loop r (pc + 6) sp_v (sp_i + 1)
  | 156 (* elem_field_v_sr = vload; rload; elem_field_v *) ->
    let va =
      slot_value r (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get code (pc + 2))
    in
    Array.unsafe_set stk_v sp_v
      (index_field r.x_st.heap va
         (Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 3)))
         (Array.unsafe_get code (pc + 5)));
    loop r (pc + 6) (sp_v + 1) sp_i
  | 157 (* append_fields *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    let zero_of = r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 3)) in
    let base = Array.unsafe_get stk_v (sp_v - n - 1) in
    Array.unsafe_set stk_v (sp_v - n - 1)
      (append_fields r.x_st r.x_fr ~site ~zero_of base stk_v (sp_v - n) n);
    loop r (pc + 4) (sp_v - n) sp_i
  | 154 (* addr_elem_field *) ->
    Array.unsafe_set stk_v (sp_v - 1)
      (addr_index_field r.x_st.heap
         (Array.unsafe_get stk_v (sp_v - 1))
         (Array.unsafe_get stk_i (sp_i - 1))
         (Array.unsafe_get code (pc + 1)));
    loop r (pc + 2) sp_v (sp_i - 1)
  (* Nested struct-value field address: the owner spine re-evaluated
     after the base, like [Interp.owner_of_struct_base].  The walker
     checks the base for a struct before the spine runs; the base's
     static type is a struct, so that error cannot fire in either. *)
  | 121 (* addr_field_val *) ->
    (match Array.unsafe_get stk_v (sp_v - 2) with
    | Value.VStruct fields ->
      Array.unsafe_set stk_v (sp_v - 2)
        (Value.field_ptr
           (Value.owner_of (Array.unsafe_get stk_v (sp_v - 1)))
           fields
           (Array.unsafe_get code (pc + 1)))
    | _ -> raise (Runtime_error "field of non-struct"));
    loop r (pc + 2) (sp_v - 1) sp_i
  (* Loop and indexing superinstructions.  Each performs the safepoints
     of the sequence it replaces, in the same order relative to its other
     effects, and raises the same errors in the same order. *)
  | 122 (* safepoints n *) ->
    for _ = 1 to Array.unsafe_get code (pc + 1) do
      vm_safepoint r
    done;
    loop r (pc + 2) sp_v sp_i
  | 123 (* loop_rinc = safepoint; rinc; jmp head; safepoint *)
  | 146 (* loop_lt_rr *) | 147 (* loop_lt_rlen *)
  | 148 (* loop_lt_rk: a rotated back edge runs its loop_rinc, then goes
           on to the head's unchanged test *) ->
    vm_safepoint r;
    rinc_at r code pc;
    vm_safepoint r;
    loop r (Array.unsafe_get code (pc + 4)) sp_v sp_i
  | 124 (* jlt_rlen_not = rload; vload; len; jlt_not *) ->
    let a = Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 1)) in
    let n =
      length r.x_st
        (slot_value r (Array.unsafe_get code (pc + 3))
           (Array.unsafe_get code (pc + 4)))
    in
    if a < n then loop r (pc + 6) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 5)) sp_v sp_i
  | 126 (* index_i_sr = vload; rload; index_i *) ->
    let va =
      slot_value r (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get code (pc + 2))
    in
    Array.unsafe_set stk_i sp_i
      (index_int r.x_st.heap va
         (Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 3))));
    loop r (pc + 5) sp_v (sp_i + 1)
  | 127 (* store_index_i *) ->
    store_int
      (Array.unsafe_get stk_v (sp_v - 1))
      (Array.unsafe_get stk_i (sp_i - 1))
      (Array.unsafe_get stk_i (sp_i - 2));
    loop r (pc + 1) (sp_v - 1) (sp_i - 2)
  | 128 (* store_i_sr = vload; rload; store_index_i *) ->
    let va =
      slot_value r (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get code (pc + 2))
    in
    store_int va
      (Array.unsafe_get stk_i (r.x_rb + Array.unsafe_get code (pc + 3)))
      (Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 5) sp_v (sp_i - 1)
  | 129 (* slice_lit_i *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    Array.unsafe_set stk_v sp_v
      (alloc_slice r.x_st r.x_fr ~site ~growth:false
         (Value.Ints (Array.sub stk_i (sp_i - n) n))
         ~cap:n ~len:n);
    loop r (pc + 3) (sp_v + 1) (sp_i - n)
  | 130 (* append_i *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    Array.unsafe_set stk_v (sp_v - 1)
      (append_ints r.x_st r.x_fr ~site
         (Array.unsafe_get stk_v (sp_v - 1))
         stk_i (sp_i - n) n);
    loop r (pc + 3) sp_v (sp_i - n)
  | 139 (* modk_r = rload; modk_i *) ->
    let a = reg_at r code (pc + 1) in
    let b = Array.unsafe_get code (pc + 2) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i sp_i (a mod b);
    loop r (pc + 4) sp_v (sp_i + 1)
  (* Field-operand forms: the reads of the [sfield_v]/[sfield_i] they
     replace, in the same order, through the same [slot_field]. *)
  | 131 (* flen = sfield_v; len *) ->
    Array.unsafe_set stk_i sp_i
      (length r.x_st
         (slot_field r
            (Array.unsafe_get code (pc + 1))
            (Array.unsafe_get code (pc + 2))
            (Array.unsafe_get code (pc + 3))
            (Array.unsafe_get code (pc + 4))
            (Array.unsafe_get code (pc + 5))));
    loop r (pc + 6) sp_v (sp_i + 1)
  | 132 (* index_ff = sfield_v p.f; sfield_i p.g; index_i *) ->
    let s = Array.unsafe_get code (pc + 1) in
    let np = Array.unsafe_get code (pc + 6) in
    let va =
      slot_field r s
        (Array.unsafe_get code (pc + 2))
        (Array.unsafe_get code (pc + 3))
        np
        (Array.unsafe_get code (pc + 7))
    in
    let vi =
      as_int
        (slot_field r s
           (Array.unsafe_get code (pc + 4))
           (Array.unsafe_get code (pc + 5))
           np
           (Array.unsafe_get code (pc + 8)))
    in
    Array.unsafe_set stk_i sp_i (index_int r.x_st.heap va vi);
    loop r (pc + 9) sp_v (sp_i + 1)
  | 133 (* jlt_flen_not = sfield_i p.f; sfield_v p.g; len; jlt_not *) ->
    let s = Array.unsafe_get code (pc + 1) in
    let np = Array.unsafe_get code (pc + 6) in
    let a =
      as_int
        (slot_field r s
           (Array.unsafe_get code (pc + 2))
           (Array.unsafe_get code (pc + 3))
           np
           (Array.unsafe_get code (pc + 7)))
    in
    let n =
      length r.x_st
        (slot_field r s
           (Array.unsafe_get code (pc + 4))
           (Array.unsafe_get code (pc + 5))
           np
           (Array.unsafe_get code (pc + 8)))
    in
    if a < n then loop r (pc + 10) sp_v sp_i
    else loop r (Array.unsafe_get code (pc + 9)) sp_v sp_i
  | 134 (* finc = sfield_i p.f; addk_i k; vload p; fstore_i f *) ->
    let s = Array.unsafe_get code (pc + 1) in
    let fidx = Array.unsafe_get code (pc + 2) in
    let np = Array.unsafe_get code (pc + 5) in
    let n =
      as_int
        (slot_field r s fidx
           (Array.unsafe_get code (pc + 3))
           np
           (Array.unsafe_get code (pc + 6)))
      + Array.unsafe_get code (pc + 4)
    in
    store_field_int (slot_value r s np) fidx n;
    loop r (pc + 7) sp_v sp_i
  (* the opcodes {!loop} completes never get here *)
  | op -> raise (Runtime_error ("vm: bad opcode " ^ string_of_int op))

(* Release the scopes a [ret] or an exception left open, innermost
   first, exactly like the reference walker's nested per-block handlers,
   before call_fn runs the defers (which must see the blocks already
   dead). *)
let release_scopes (r : regs) =
  while r.x_scopes > 0 do
    pop_scope r.x_st r.x_fr;
    r.x_scopes <- r.x_scopes - 1
  done

(* A bytecode body, as {!Interp.call_fn} runs it on a pooled frame:
   acquire the operand-stack windows, point the frame's registers at
   this call, bind the parameters from the argument window, run. *)
let run (st : state) (fr : frame) (f : B.fn) (args : Value.value array) off :
    Value.value =
  let g = st.current in
  (* Acquire LIFO windows from the goroutine's pooled operand stacks.
     On growth the array is replaced without copying: outer calls keep
     their windows in the old array (their registers still point at
     it), and LIFO order guarantees none of them runs again until every
     call using the replacement has released it. *)
  let need_v = f.B.bf_max_v in
  let base_v =
    if g.g_top_v + need_v <= Array.length g.g_stk_v then g.g_top_v
    else begin
      let len = max (2 * Array.length g.g_stk_v) (max (2 * need_v) 64) in
      g.g_stk_v <- Array.make len Value.VUnit;
      0
    end
  in
  g.g_top_v <- base_v + need_v;
  let need_i = f.B.bf_nregs + f.B.bf_max_i in
  let base_i =
    if g.g_top_i + need_i <= Array.length g.g_stk_i then g.g_top_i
    else begin
      let len = max (2 * Array.length g.g_stk_i) (max (2 * need_i) 64) in
      g.g_stk_i <- Array.make len 0;
      0
    end
  in
  g.g_top_i <- base_i + need_i;
  let r =
    match fr.ext with
    | Regs r -> r
    | _ ->
      let r =
        { x_f = f; x_st = st; x_fr = fr; x_code = f.B.bf_code;
          x_stk_v = g.g_stk_v; x_stk_i = g.g_stk_i; x_rb = base_i;
          x_slots = fr.slots; x_scopes = 0; x_iters = [] }
      in
      fr.ext <- Regs r;
      r
  in
  (* compare first: most fields already hold the right array, and a
     store into a long-lived record costs a write barrier *)
  if r.x_f != f then begin
    r.x_f <- f;
    r.x_code <- f.B.bf_code
  end;
  if r.x_stk_v != g.g_stk_v then r.x_stk_v <- g.g_stk_v;
  if r.x_stk_i != g.g_stk_i then r.x_stk_i <- g.g_stk_i;
  if r.x_slots != fr.slots then r.x_slots <- fr.slots;
  r.x_rb <- base_i;
  (* the parameters, in declaration order, struct values copied *)
  let params = f.B.bf_params in
  for i = 0 to Array.length params - 1 do
    bind_home st fr r.x_stk_i base_i (Array.unsafe_get params i)
      (match Array.unsafe_get args (off + i) with
      | Value.VStruct _ as v -> Value.copy v
      | v -> v)
  done;
  match loop r 0 base_v (base_i + f.B.bf_nregs) with
  | results ->
    if r.x_scopes > 0 then release_scopes r;
    if r.x_iters != [] then r.x_iters <- [];
    g.g_top_v <- base_v;
    g.g_top_i <- base_i;
    results
  | exception e ->
    release_scopes r;
    if r.x_iters != [] then r.x_iters <- [];
    g.g_top_v <- base_v;
    g.g_top_i <- base_i;
    raise e

let () = run_ref := run

(** A dispatch function executing bytecode bodies, suitable for
    [state.dispatch]: the entry point of [main], defers and goroutines.
    VM-to-VM calls take the same {!Interp.call_fn} path straight from
    the [call] opcode. *)
let dispatch (prog : B.program) :
    state -> int -> Value.value array -> int -> Value.value =
 fun st fid args off ->
  let f = prog.(fid) in
  call_fn st ~nslots:f.B.bf_nslots ~body:run ~zeros:zeros_ret f args off

(** Point [state.dispatch] at the bytecode. *)
let install (st : state) (prog : B.program) = st.dispatch <- dispatch prog
