(** Typed AST of MiniGo.

    Produced by {!Typecheck}; consumed by the escape analysis
    ([Gofree_escape]), the instrumentation pass and the interpreter.

    Every variable carries a unique id plus its declaration scope depth and
    loop depth — the [DeclDepth] and [LoopDepth] inputs of the paper's
    analysis (Defs 4.3 and 4.13).  Every allocation expression carries an
    {!alloc_site} that the analysis maps to an escape-graph location and the
    interpreter uses for per-site stack/heap accounting (Table 8). *)

type pos = Token.pos

(** A resolved variable.  Parameters and globals are flagged: parameters
    seed [Incomplete] (Def 4.12) and globals behave like the heap. *)
type var = {
  mutable v_id : int;
      (** unique; the instrumentation pass creates temporaries with a
          [-1] placeholder id and renumbers them program-wide at the end
          of compilation ({!val:program.p_nvars} grows accordingly) *)
  v_name : string;
  v_ty : Types.t;
  v_decl_depth : int;  (** nesting depth of the declaring scope; function body = 1 *)
  v_loop_depth : int;  (** number of enclosing loops at the declaration *)
  mutable v_scope : int;
      (** unique id of the declaring block; mutable, like [v_id], so a
          package typechecked at id base 0 can be {!relocate}d *)
  v_kind : var_kind;
}

and var_kind = Vlocal | Vparam | Vglobal | Vresult of int
    (** [Vresult i]: compiler temporary holding the i-th value returned by a
        multi-value call. *)

(** What an allocation site allocates; drives both the runtime object kind
    and the Table 8 / Table 9 accounting categories. *)
type site_kind =
  | Site_slice  (** [make(\[\]T, n)] or a slice literal's backing array *)
  | Site_map  (** [make(map\[K\]V)] *)
  | Site_new  (** [new(T)] or [&T{...}] *)
  | Site_append  (** implicit backing-array growth at an [append] *)
  | Site_string  (** string concatenation result *)

type alloc_site = {
  mutable site_id : int;  (** mutable for {!relocate} *)
  site_kind : site_kind;
  site_pos : pos;
  site_func : string;
  site_elem_size : int;  (** element size in bytes (slice/append) or object size (new/map bucket entry) *)
  site_const_len : int option;  (** compile-time-constant length, when known *)
}

type unop = Ast.unop
type binop = Ast.binop

type expr = { ty : Types.t; pos : pos; desc : desc }

and desc =
  | Tint of int
  | Tfloat of float
  | Tbool of bool
  | Tstring of string
  | Tnil
  | Tvar of var
  | Tbinop of binop * expr * expr
  | Tunop of unop * expr
  | Taddr of lvalue  (** [&lv] *)
  | Tderef of expr
  | Tindex of expr * expr  (** slice or string indexing *)
  | Tmap_get of expr * expr  (** [m\[k\]], single-value form *)
  | Tfield of expr * int * string
      (** [e.f]; if [e] is a pointer it is implicitly dereferenced *)
  | Tcall of string * expr list
      (** user-defined function; [ty] is [Tuple] for multi-value calls *)
  | Tmake_slice of alloc_site * Types.t * expr * expr option
      (** element type, length, optional capacity *)
  | Tmake_map of alloc_site * Types.t * Types.t
  | Tnew of alloc_site * Types.t
  | Tslice_lit of alloc_site * Types.t * expr list
  | Tstruct_lit of string * expr list
      (** field initializers in declaration order; a *value* — heap
          allocation only happens via [Taddr] on it *)
  | Taddr_struct_lit of alloc_site * string * expr list  (** [&T{...}] *)
  | Tappend of alloc_site * expr * expr list
  | Tlen of expr
  | Tcap of expr
  | Titoa of expr  (** built-in int-to-string conversion *)
  | Trand of expr  (** deterministic PRNG: [rand(n)] in [0, n) *)
  | Tsubstr of expr * expr * expr  (** [substr(s, start, end)] *)
  | Tslice_sub of expr * expr option * expr option
      (** [e\[lo:hi\]]: a view sharing the backing array (slices) or a
          substring (strings) *)
  | Tcopy of expr * expr  (** [copy(dst, src)]; yields elements copied *)
  | Tmap_get_ok of expr * expr
      (** the comma-ok form [v, ok := m\[k\]]; type is a (value, bool)
          tuple *)
  | Trecover
      (** [recover()]: during panic unwinding in a deferred call, stops
          the unwind and yields the panic message; otherwise "" (MiniGo
          returns string where Go returns interface{}) *)

and lvalue =
  | Lvar of var
  | Lderef of expr  (** [*p = ...] *)
  | Lindex of expr * expr  (** [a\[i\] = ...] (slice) *)
  | Lmap of expr * expr  (** [m\[k\] = ...] *)
  | Lfield of expr * int * string  (** [s.f = ...] *)

(** Which tcfree runtime entry point an inserted free uses (Table 4). *)
type free_kind = Free_slice | Free_map | Free_obj

type stmt =
  | Sdecl of var * expr option
  | Smulti_decl of var list * expr  (** [a, b := f()] *)
  | Sassign of lvalue * expr
  | Smulti_assign of lvalue list * expr
  | Sexpr of expr
  | Sif of expr * block * block option
  | Sfor of stmt option * expr option * stmt option * block
  | Sforrange_map of var * expr * block
      (** [for k := range m]: iterate the map's keys (deterministic bucket
          order in this runtime; Go randomizes) *)
  | Sreturn of expr list
  | Sblock of block
  | Sgo of string * expr list
  | Sdefer of string * expr list
  | Spanic of expr
  | Sbreak
  | Scontinue
  | Sdelete of expr * expr
  | Sprint of expr list
  | Stcfree of var * free_kind
      (** inserted by the GoFree instrumentation (§4.5); never written by
          the programmer *)

and block = {
  mutable b_scope : int;  (** unique block id; mutable for {!relocate} *)
  b_depth : int;  (** scope nesting depth; function body = 1 *)
  mutable b_stmts : stmt list;
      (** mutable so the instrumentation pass can insert tcfree calls *)
}

type func = {
  f_name : string;
  f_params : var list;
  f_results : Types.t list;
  f_body : block;
  f_pos : pos;
}

type program = {
  p_funcs : func list;
  p_globals : (var * expr option) list;
  p_tenv : Types.env;
  p_sites : alloc_site list;  (** all allocation sites, by id *)
  mutable p_nvars : int;  (** number of allocated variable ids *)
}

let find_func program name =
  List.find_opt (fun f -> String.equal f.f_name name) program.p_funcs

(* ---------------------------------------------------------------- *)
(* Traversal helpers shared by analyses.                              *)
(* ---------------------------------------------------------------- *)

(** Apply [f] to every statement in a block, recursing into nested
    blocks. *)
let rec iter_stmts f (b : block) =
  List.iter
    (fun s ->
      f s;
      match s with
      | Sif (_, b1, b2) ->
        iter_stmts f b1;
        Option.iter (iter_stmts f) b2
      | Sfor (init, _, post, body) ->
        Option.iter f init;
        Option.iter f post;
        iter_stmts f body
      | Sforrange_map (_, _, body) -> iter_stmts f body
      | Sblock b -> iter_stmts f b
      | Sdecl _ | Smulti_decl _ | Sassign _ | Smulti_assign _ | Sexpr _
      | Sreturn _ | Sgo _ | Sdefer _ | Spanic _ | Sbreak | Scontinue
      | Sdelete _ | Sprint _ | Stcfree _ ->
        ())
    b.b_stmts

(** Apply [f] to every expression in a statement (shallow in blocks: use
    with {!iter_stmts} to visit a whole function). *)
let iter_stmt_exprs f s =
  let fl = function
    | Lvar _ -> ()
    | Lderef e -> f e
    | Lindex (e1, e2) | Lmap (e1, e2) -> f e1; f e2
    | Lfield (e, _, _) -> f e
  in
  match s with
  | Sdecl (_, eo) -> Option.iter f eo
  | Smulti_decl (_, e) -> f e
  | Sassign (lv, e) -> fl lv; f e
  | Smulti_assign (lvs, e) -> List.iter fl lvs; f e
  | Sexpr e -> f e
  | Sif (c, _, _) -> f c
  | Sfor (_, cond, _, _) -> Option.iter f cond
  | Sforrange_map (_, m, _) -> f m
  | Sreturn es -> List.iter f es
  | Sgo (_, es) | Sdefer (_, es) -> List.iter f es
  | Spanic e -> f e
  | Sdelete (e1, e2) -> f e1; f e2
  | Sprint es -> List.iter f es
  | Sblock _ | Sbreak | Scontinue | Stcfree _ -> ()

(** Apply [f] to [e] and all its subexpressions, outermost first. *)
let rec iter_expr f (e : expr) =
  f e;
  let fl = function
    | Lvar _ -> ()
    | Lderef e -> iter_expr f e
    | Lindex (e1, e2) | Lmap (e1, e2) -> iter_expr f e1; iter_expr f e2
    | Lfield (e, _, _) -> iter_expr f e
  in
  match e.desc with
  | Tint _ | Tfloat _ | Tbool _ | Tstring _ | Tnil | Tvar _ -> ()
  | Tbinop (_, a, b) -> iter_expr f a; iter_expr f b
  | Tunop (_, a) | Tderef a | Tlen a | Tcap a | Titoa a | Trand a ->
    iter_expr f a
  | Tsubstr (a, b, c) -> iter_expr f a; iter_expr f b; iter_expr f c
  | Tslice_sub (e, lo, hi) ->
    iter_expr f e;
    Option.iter (iter_expr f) lo;
    Option.iter (iter_expr f) hi
  | Tcopy (dst, src) -> iter_expr f dst; iter_expr f src
  | Tmap_get_ok (m, k) -> iter_expr f m; iter_expr f k
  | Trecover -> ()
  | Taddr lv -> fl lv
  | Tindex (a, b) | Tmap_get (a, b) -> iter_expr f a; iter_expr f b
  | Tfield (a, _, _) -> iter_expr f a
  | Tcall (_, args) -> List.iter (iter_expr f) args
  | Tmake_slice (_, _, len, cap) ->
    iter_expr f len;
    Option.iter (iter_expr f) cap
  | Tmake_map _ -> ()
  | Tnew _ -> ()
  | Tslice_lit (_, _, es) | Tstruct_lit (_, es)
  | Taddr_struct_lit (_, _, es) ->
    List.iter (iter_expr f) es
  | Tappend (_, s, es) ->
    iter_expr f s;
    List.iter (iter_expr f) es

(* ---------------------------------------------------------------- *)
(* Relocation                                                         *)
(* ---------------------------------------------------------------- *)

(** Apply [f] to every variable the program declares, once each, in
    declaration order: the globals, then each function's parameters and
    the variables its body declares ([Sdecl], [Smulti_decl], map-range
    keys).  Every reference to a variable shares its declared record.
    [block] is applied to every block. *)
let iter_declared ?(block = fun (_ : block) -> ()) f (p : program) =
  let rec blk b =
    block b;
    List.iter stmt b.b_stmts
  and stmt = function
    | Sdecl (v, _) -> f v
    | Smulti_decl (vs, _) -> List.iter f vs
    | Sforrange_map (k, _, body) ->
      f k;
      blk body
    | Sif (_, b1, b2) ->
      blk b1;
      Option.iter blk b2
    | Sfor (init, _, post, body) ->
      Option.iter stmt init;
      Option.iter stmt post;
      blk body
    | Sblock b -> blk b
    | Sassign _ | Smulti_assign _ | Sexpr _ | Sreturn _ | Sgo _ | Sdefer _
    | Spanic _ | Sbreak | Scontinue | Sdelete _ | Sprint _ | Stcfree _ ->
      ()
  in
  List.iter (fun (v, _) -> f v) p.p_globals;
  List.iter
    (fun fn ->
      List.iter f fn.f_params;
      blk fn.f_body)
    p.p_funcs

(** Shift, in place, every id a package's typecheck allocated: variable
    ids by [var], scope ids by [scope], allocation-site ids by [site].
    A package checked at id base 0 and relocated to bases (v, s, a)
    equals the same package checked at those bases.

    Each variable the package declares is shifted once, at its
    declaration ({!iter_declared}).  An imported package's globals are
    referenced but never declared here, so they keep their ids.  Sites
    are shifted through [p_sites], whose records the allocation
    expressions share. *)
let relocate (p : program) ~var ~scope ~site =
  iter_declared
    ~block:(fun b -> b.b_scope <- b.b_scope + scope)
    (fun v ->
      v.v_id <- v.v_id + var;
      match v.v_kind with
      | Vglobal -> ()  (* declared outside every block: scope 0 stays *)
      | Vlocal | Vparam | Vresult _ -> v.v_scope <- v.v_scope + scope)
    p;
  List.iter (fun s -> s.site_id <- s.site_id + site) p.p_sites;
  p.p_nvars <- p.p_nvars + var
