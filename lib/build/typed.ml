(** Typed package records: a package's frontend output (its typed
    program, interface and id counts, all at id base 0) in a compact
    binary form that a warm build decodes instead of parsing and
    typechecking the package.

    The encoding writes each shared record once and refers to it by
    index afterwards: allocation sites (which [p_sites] and the
    allocating expressions share), the variables the package declares
    (which every reference shares) and the imported globals the program
    names.  Decoding restores that sharing, so the decoded program is
    indistinguishable from a freshly typechecked one.  Strings and
    composite types are interned per record.  Of the interface only the
    package and struct names are stored; the rest is derived from the
    program ({!Typecheck.iface_of_program}), as the typecheck derives it.

    Integers are zigzag varints ({!Gofree_escape.Codec}).  The format
    carries no version of its own: the store seals each record with a
    tag digested from this file, the codec and the sources of every
    type it encodes. *)

open Minigo

type header = {
  th_source : string;
  th_clause : string;
  th_imports : Ast.import_decl list;
  th_deps : (string * string) list;
  th_iface : string;
}

type body = {
  tb_program : Tast.program;
  tb_iface : Typecheck.pkg_iface;
  tb_counters : Typecheck.counters;
  tb_imported : (string * int * Tast.var) list;
}

(* ---------------------------------------------------------------- *)
(* Primitives                                                        *)
(* ---------------------------------------------------------------- *)

(* The shared primitives, with this record kind's own tables: a writer's
   [wx] is its type table, a reader's [rx] its types and last position. *)
open Gofree_escape.Codec

type tables = {
  mutable tys : Types.t array;
  mutable ntys : int;
  mutable last_pos : Token.pos;
}

type r = tables Gofree_escape.Codec.r

(* ---------------------------------------------------------------- *)
(* Leaves                                                            *)
(* ---------------------------------------------------------------- *)

let w_pos w (p : Token.pos) =
  w_int w p.Token.line;
  w_int w p.Token.col

(* Neighbouring nodes mostly share a position: reuse the last record. *)
let r_pos r : Token.pos =
  let line = r_int r in
  let col = r_int r in
  let last = r.rx.last_pos in
  if last.Token.line = line && last.Token.col = col then last
  else begin
    let p = { Token.line; col } in
    r.rx.last_pos <- p;
    p
  end

(* Scalar types are one byte.  Like strings, any other type's first
   occurrence is written inline (its components by reference) and later
   ones by table index. *)
let rec w_ty w (t : Types.t) =
  match t with
  | Types.Int -> w_int w 0
  | Types.Bool -> w_int w 1
  | Types.String -> w_int w 2
  | Types.Float -> w_int w 3
  | Types.Unit -> w_int w 4
  | Types.Nil -> w_int w 5
  | Types.Ptr _ | Types.Slice _ | Types.Map _ | Types.Struct _
  | Types.Tuple _ -> begin
    match Hashtbl.find_opt w.wx t with
    | Some i -> w_int w (6 + i)
    | None ->
      let i = Hashtbl.length w.wx in
      Hashtbl.replace w.wx t i;
      w_int w (6 + i);
      match t with
      | Types.Ptr t ->
        w_int w 0;
        w_ty w t
      | Types.Slice t ->
        w_int w 1;
        w_ty w t
      | Types.Map (k, v) ->
        w_int w 2;
        w_ty w k;
        w_ty w v
      | Types.Struct n ->
        w_int w 3;
        w_str w n
      | Types.Tuple ts ->
        w_int w 4;
        w_list w w_ty ts
      | Types.Int | Types.Bool | Types.String | Types.Float | Types.Unit
      | Types.Nil ->
        assert false
  end

let rec r_ty r : Types.t =
  match r_int r with
  | 0 -> Types.Int
  | 1 -> Types.Bool
  | 2 -> Types.String
  | 3 -> Types.Float
  | 4 -> Types.Unit
  | 5 -> Types.Nil
  | code ->
    let i = code - 6 in
    if i < r.rx.ntys then r.rx.tys.(i)
    else if i = r.rx.ntys then begin
      (* reserve the slot first: components take the indices after it *)
      if r.rx.ntys = Array.length r.rx.tys then begin
        let a = Array.make (max 16 (2 * r.rx.ntys)) Types.Unit in
        Array.blit r.rx.tys 0 a 0 r.rx.ntys;
        r.rx.tys <- a
      end;
      r.rx.ntys <- i + 1;
      let t =
        match r_int r with
        | 0 -> Types.Ptr (r_ty r)
        | 1 -> Types.Slice (r_ty r)
        | 2 ->
          let k = r_ty r in
          Types.Map (k, r_ty r)
        | 3 -> Types.Struct (r_str r)
        | 4 -> Types.Tuple (r_list r r_ty)
        | _ -> raise Malformed
      in
      r.rx.tys.(i) <- t;
      t
    end
    else raise Malformed

let binops =
  Ast.
    [| Badd; Bsub; Bmul; Bdiv; Bmod; Band_bits; Bor_bits; Bxor; Bshl; Bshr;
       Beq; Bne; Blt; Ble; Bgt; Bge; Band; Bor |]

let binop_code (op : Ast.binop) =
  let rec find i = if binops.(i) = op then i else find (i + 1) in
  find 0

let r_binop r =
  let i = r_int r in
  if i < 0 || i >= Array.length binops then raise Malformed else binops.(i)

(* A variable record in full (declarations and imported globals). *)
let w_var_record w (v : Tast.var) =
  w_int w v.Tast.v_id;
  w_str w v.Tast.v_name;
  w_ty w v.Tast.v_ty;
  w_int w v.Tast.v_decl_depth;
  w_int w v.Tast.v_loop_depth;
  w_int w v.Tast.v_scope;
  match v.Tast.v_kind with
  | Tast.Vlocal -> w_int w 0
  | Tast.Vparam -> w_int w 1
  | Tast.Vglobal -> w_int w 2
  | Tast.Vresult i ->
    w_int w 3;
    w_int w i

let r_var_record r : Tast.var =
  let v_id = r_int r in
  let v_name = r_str r in
  let v_ty = r_ty r in
  let v_decl_depth = r_int r in
  let v_loop_depth = r_int r in
  let v_scope = r_int r in
  let v_kind =
    match r_int r with
    | 0 -> Tast.Vlocal
    | 1 -> Tast.Vparam
    | 2 -> Tast.Vglobal
    | 3 -> Tast.Vresult (r_int r)
    | _ -> raise Malformed
  in
  { Tast.v_id; v_name; v_ty; v_decl_depth; v_loop_depth; v_scope; v_kind }

let site_kinds =
  Tast.[| Site_slice; Site_map; Site_new; Site_append; Site_string |]

let w_site_record w (s : Tast.alloc_site) =
  let rec kind i =
    if site_kinds.(i) = s.Tast.site_kind then i else kind (i + 1)
  in
  w_int w s.Tast.site_id;
  w_int w (kind 0);
  w_pos w s.Tast.site_pos;
  w_str w s.Tast.site_func;
  w_int w s.Tast.site_elem_size;
  w_opt w w_int s.Tast.site_const_len

let r_site_record r : Tast.alloc_site =
  let site_id = r_int r in
  let k = r_int r in
  if k < 0 || k >= Array.length site_kinds then raise Malformed;
  let site_pos = r_pos r in
  let site_func = r_str r in
  let site_elem_size = r_int r in
  let site_const_len = r_opt r r_int in
  { Tast.site_id; site_kind = site_kinds.(k); site_pos; site_func;
    site_elem_size; site_const_len }

(* ---------------------------------------------------------------- *)
(* Programs                                                          *)
(* ---------------------------------------------------------------- *)

let desc_code : Tast.desc -> int = function
  | Tast.Tint _ -> 0
  | Tast.Tfloat _ -> 1
  | Tast.Tbool _ -> 2
  | Tast.Tstring _ -> 3
  | Tast.Tnil -> 4
  | Tast.Tvar _ -> 5
  | Tast.Tbinop _ -> 6
  | Tast.Tunop _ -> 7
  | Tast.Taddr _ -> 8
  | Tast.Tderef _ -> 9
  | Tast.Tindex _ -> 10
  | Tast.Tmap_get _ -> 11
  | Tast.Tfield _ -> 12
  | Tast.Tcall _ -> 13
  | Tast.Tmake_slice _ -> 14
  | Tast.Tmake_map _ -> 15
  | Tast.Tnew _ -> 16
  | Tast.Tslice_lit _ -> 17
  | Tast.Tstruct_lit _ -> 18
  | Tast.Taddr_struct_lit _ -> 19
  | Tast.Tappend _ -> 20
  | Tast.Tlen _ -> 21
  | Tast.Tcap _ -> 22
  | Tast.Titoa _ -> 23
  | Tast.Trand _ -> 24
  | Tast.Tsubstr _ -> 25
  | Tast.Tslice_sub _ -> 26
  | Tast.Tcopy _ -> 27
  | Tast.Tmap_get_ok _ -> 28
  | Tast.Trecover -> 29

let stmt_code : Tast.stmt -> int = function
  | Tast.Sdecl _ -> 0
  | Tast.Smulti_decl _ -> 1
  | Tast.Sassign _ -> 2
  | Tast.Smulti_assign _ -> 3
  | Tast.Sexpr _ -> 4
  | Tast.Sif _ -> 5
  | Tast.Sfor _ -> 6
  | Tast.Sforrange_map _ -> 7
  | Tast.Sreturn _ -> 8
  | Tast.Sblock _ -> 9
  | Tast.Sgo _ -> 10
  | Tast.Sdefer _ -> 11
  | Tast.Spanic _ -> 12
  | Tast.Sbreak -> 13
  | Tast.Scontinue -> 14
  | Tast.Sdelete _ -> 15
  | Tast.Sprint _ -> 16
  | Tast.Stcfree _ -> 17

(* Variables by reference: a declared variable (whose id, at base 0, is
   unique and below [p_nvars]) is [2 * id], the k-th imported global
   [2k + 1].  Records are told apart physically, since an imported
   global's id may equal a local one's. *)
let encode_program w ~(imported : (string * int * Tast.var) list)
    ~(iface : Typecheck.pkg_iface) (p : Tast.program) =
  let own = ref [] in
  Tast.iter_declared (fun v -> own := v :: !own) p;
  let own = List.rev !own in
  let own_by_id = Array.make p.Tast.p_nvars None in
  List.iter
    (fun (v : Tast.var) -> own_by_id.(v.Tast.v_id) <- Some v)
    own;
  let foreign = Hashtbl.create 16 in
  List.iteri
    (fun k (_, _, (v : Tast.var)) -> Hashtbl.add foreign v.Tast.v_id (v, k))
    imported;
  let var w (v : Tast.var) =
    match own_by_id.(v.Tast.v_id) with
    | Some v' when v' == v -> w_int w (2 * v.Tast.v_id)
    | _ | (exception Invalid_argument _) -> begin
      match
        List.find_opt
          (fun (v', _) -> v' == v)
          (Hashtbl.find_all foreign v.Tast.v_id)
      with
      | Some (_, k) -> w_int w ((2 * k) + 1)
      | None -> invalid_arg ("Typed: undeclared variable " ^ v.Tast.v_name)
    end
  in
  let site w (s : Tast.alloc_site) = w_int w s.Tast.site_id in
  let rec expr w (e : Tast.expr) =
    w_ty w e.Tast.ty;
    w_pos w e.Tast.pos;
    w_int w (desc_code e.Tast.desc);
    match e.Tast.desc with
    | Tast.Tint n -> w_int w n
    | Tast.Tfloat f -> Buffer.add_int64_le w.buf (Int64.bits_of_float f)
    | Tast.Tbool b -> w_bool w b
    | Tast.Tstring s -> w_str w s
    | Tast.Tnil | Tast.Trecover -> ()
    | Tast.Tvar v -> var w v
    | Tast.Tbinop (op, a, b) ->
      w_int w (binop_code op);
      expr w a;
      expr w b
    | Tast.Tunop (op, a) ->
      w_bool w (op = Ast.Unot);
      expr w a
    | Tast.Taddr lv -> lvalue w lv
    | Tast.Tderef a | Tast.Tlen a | Tast.Tcap a | Tast.Titoa a | Tast.Trand a
      ->
      expr w a
    | Tast.Tindex (a, b) | Tast.Tmap_get (a, b) | Tast.Tcopy (a, b)
    | Tast.Tmap_get_ok (a, b) ->
      expr w a;
      expr w b
    | Tast.Tfield (a, i, n) ->
      expr w a;
      w_int w i;
      w_str w n
    | Tast.Tcall (f, args) ->
      w_str w f;
      w_list w expr args
    | Tast.Tmake_slice (s, t, len, cap) ->
      site w s;
      w_ty w t;
      expr w len;
      w_opt w expr cap
    | Tast.Tmake_map (s, k, v) ->
      site w s;
      w_ty w k;
      w_ty w v
    | Tast.Tnew (s, t) ->
      site w s;
      w_ty w t
    | Tast.Tslice_lit (s, t, es) ->
      site w s;
      w_ty w t;
      w_list w expr es
    | Tast.Tstruct_lit (n, es) ->
      w_str w n;
      w_list w expr es
    | Tast.Taddr_struct_lit (s, n, es) ->
      site w s;
      w_str w n;
      w_list w expr es
    | Tast.Tappend (s, a, es) ->
      site w s;
      expr w a;
      w_list w expr es
    | Tast.Tsubstr (a, b, c) ->
      expr w a;
      expr w b;
      expr w c
    | Tast.Tslice_sub (a, lo, hi) ->
      expr w a;
      w_opt w expr lo;
      w_opt w expr hi
  and lvalue w lv =
    w_int w
      (match lv with
      | Tast.Lvar _ -> 0
      | Tast.Lderef _ -> 1
      | Tast.Lindex _ -> 2
      | Tast.Lmap _ -> 3
      | Tast.Lfield _ -> 4);
    match lv with
    | Tast.Lvar v -> var w v
    | Tast.Lderef e -> expr w e
    | Tast.Lindex (a, b) | Tast.Lmap (a, b) ->
      expr w a;
      expr w b
    | Tast.Lfield (e, i, n) ->
      expr w e;
      w_int w i;
      w_str w n
  in
  let rec stmt w st =
    w_int w (stmt_code st);
    match st with
    | Tast.Sdecl (v, init) ->
      var w v;
      w_opt w expr init
    | Tast.Smulti_decl (vs, e) ->
      w_list w var vs;
      expr w e
    | Tast.Sassign (lv, e) ->
      lvalue w lv;
      expr w e
    | Tast.Smulti_assign (lvs, e) ->
      w_list w lvalue lvs;
      expr w e
    | Tast.Sexpr e | Tast.Spanic e -> expr w e
    | Tast.Sif (c, b1, b2) ->
      expr w c;
      block w b1;
      w_opt w block b2
    | Tast.Sfor (init, cond, post, body) ->
      w_opt w stmt init;
      w_opt w expr cond;
      w_opt w stmt post;
      block w body
    | Tast.Sforrange_map (k, m, body) ->
      var w k;
      expr w m;
      block w body
    | Tast.Sreturn es | Tast.Sprint es -> w_list w expr es
    | Tast.Sblock b -> block w b
    | Tast.Sgo (f, es) | Tast.Sdefer (f, es) ->
      w_str w f;
      w_list w expr es
    | Tast.Sbreak | Tast.Scontinue -> ()
    | Tast.Sdelete (a, b) ->
      expr w a;
      expr w b
    | Tast.Stcfree (v, k) ->
      var w v;
      w_free_kind w k
  and block w (b : Tast.block) =
    w_int w b.Tast.b_scope;
    w_int w b.Tast.b_depth;
    w_list w stmt b.Tast.b_stmts
  in
  let fields w fs =
    w_list w
      (fun w (n, t) ->
        w_str w n;
        w_ty w t)
      fs
  in
  (* shared records first, so every reference below resolves *)
  w_list w
    (fun w (pkg, rel, v) ->
      w_str w pkg;
      w_int w rel;
      w_var_record w v)
    imported;
  w_list w w_site_record p.Tast.p_sites;
  w_int w p.Tast.p_nvars;
  w_list w w_var_record own;
  let tenv = p.Tast.p_tenv.Types.structs in
  w_int w (Hashtbl.stats tenv).Hashtbl.num_buckets;
  w_list w
    (fun w (n, fs) ->
      w_str w n;
      fields w fs)
    (List.of_seq (Hashtbl.to_seq tenv));
  w_list w
    (fun w (v, init) ->
      var w v;
      w_opt w expr init)
    p.Tast.p_globals;
  w_list w
    (fun w (f : Tast.func) ->
      w_str w f.Tast.f_name;
      w_list w var f.Tast.f_params;
      w_list w w_ty f.Tast.f_results;
      block w f.Tast.f_body;
      w_pos w f.Tast.f_pos)
    p.Tast.p_funcs;
  (* the rest of the interface is derived from the program *)
  w_str w iface.Typecheck.pi_pkg;
  w_list w w_str (List.map fst iface.Typecheck.pi_structs)

(* fills the slots of ids no declaration holds; never referenced *)
let no_var =
  { Tast.v_id = -1; v_name = ""; v_ty = Types.Unit; v_decl_depth = 0;
    v_loop_depth = 0; v_scope = 0; v_kind = Tast.Vlocal }

let decode_program r =
  let imported =
    r_list r (fun r ->
        let pkg = r_str r in
        let rel = r_int r in
        (pkg, rel, r_var_record r))
  in
  let sites = Array.of_list (r_list r r_site_record) in
  let p_nvars = r_int r in
  let own = Array.make p_nvars no_var in
  List.iter
    (fun (v : Tast.var) -> own.(v.Tast.v_id) <- v)
    (r_list r r_var_record);
  let foreign = Array.of_list (List.map (fun (_, _, v) -> v) imported) in
  let var r =
    let k = r_int r in
    if k land 1 = 0 then own.(k lsr 1) else foreign.(k lsr 1)
  in
  let site r = sites.(r_int r) in
  let rec expr r : Tast.expr =
    let ty = r_ty r in
    let pos = r_pos r in
    let desc : Tast.desc =
      match r_int r with
      | 0 -> Tast.Tint (r_int r)
      | 1 ->
        let bits = String.get_int64_le r.s r.i in
        r.i <- r.i + 8;
        Tast.Tfloat (Int64.float_of_bits bits)
      | 2 -> Tast.Tbool (r_bool r)
      | 3 -> Tast.Tstring (r_str r)
      | 4 -> Tast.Tnil
      | 5 -> Tast.Tvar (var r)
      | 6 ->
        let op = r_binop r in
        let a = expr r in
        Tast.Tbinop (op, a, expr r)
      | 7 ->
        let op = if r_int r = 0 then Ast.Uneg else Ast.Unot in
        Tast.Tunop (op, expr r)
      | 8 -> Tast.Taddr (lvalue r)
      | (9 | 21 | 22 | 23 | 24) as k -> begin
        let a = expr r in
        match k with
        | 9 -> Tast.Tderef a
        | 21 -> Tast.Tlen a
        | 22 -> Tast.Tcap a
        | 23 -> Tast.Titoa a
        | _ -> Tast.Trand a
      end
      | (10 | 11 | 27 | 28) as k -> begin
        let a = expr r in
        let b = expr r in
        match k with
        | 10 -> Tast.Tindex (a, b)
        | 11 -> Tast.Tmap_get (a, b)
        | 27 -> Tast.Tcopy (a, b)
        | _ -> Tast.Tmap_get_ok (a, b)
      end
      | 12 ->
        let a = expr r in
        let i = r_int r in
        Tast.Tfield (a, i, r_str r)
      | 13 ->
        let f = r_str r in
        Tast.Tcall (f, r_list r expr)
      | 14 ->
        let s = site r in
        let t = r_ty r in
        let len = expr r in
        Tast.Tmake_slice (s, t, len, r_opt r expr)
      | 15 ->
        let s = site r in
        let k = r_ty r in
        Tast.Tmake_map (s, k, r_ty r)
      | 16 ->
        let s = site r in
        Tast.Tnew (s, r_ty r)
      | 17 ->
        let s = site r in
        let t = r_ty r in
        Tast.Tslice_lit (s, t, r_list r expr)
      | 18 ->
        let n = r_str r in
        Tast.Tstruct_lit (n, r_list r expr)
      | 19 ->
        let s = site r in
        let n = r_str r in
        Tast.Taddr_struct_lit (s, n, r_list r expr)
      | 20 ->
        let s = site r in
        let a = expr r in
        Tast.Tappend (s, a, r_list r expr)
      | 25 ->
        let a = expr r in
        let b = expr r in
        Tast.Tsubstr (a, b, expr r)
      | 26 ->
        let a = expr r in
        let lo = r_opt r expr in
        Tast.Tslice_sub (a, lo, r_opt r expr)
      | 29 -> Tast.Trecover
      | _ -> raise Malformed
    in
    { Tast.ty; pos; desc }
  and lvalue r : Tast.lvalue =
    match r_int r with
    | 0 -> Tast.Lvar (var r)
    | 1 -> Tast.Lderef (expr r)
    | (2 | 3) as k ->
      let a = expr r in
      let b = expr r in
      if k = 2 then Tast.Lindex (a, b) else Tast.Lmap (a, b)
    | 4 ->
      let e = expr r in
      let i = r_int r in
      Tast.Lfield (e, i, r_str r)
    | _ -> raise Malformed
  in
  let rec stmt r : Tast.stmt =
    match r_int r with
    | 0 ->
      let v = var r in
      Tast.Sdecl (v, r_opt r expr)
    | 1 ->
      let vs = r_list r var in
      Tast.Smulti_decl (vs, expr r)
    | 2 ->
      let lv = lvalue r in
      Tast.Sassign (lv, expr r)
    | 3 ->
      let lvs = r_list r lvalue in
      Tast.Smulti_assign (lvs, expr r)
    | (4 | 12) as k ->
      let e = expr r in
      if k = 4 then Tast.Sexpr e else Tast.Spanic e
    | 5 ->
      let c = expr r in
      let b1 = block r in
      Tast.Sif (c, b1, r_opt r block)
    | 6 ->
      let init = r_opt r stmt in
      let cond = r_opt r expr in
      let post = r_opt r stmt in
      Tast.Sfor (init, cond, post, block r)
    | 7 ->
      let k = var r in
      let m = expr r in
      Tast.Sforrange_map (k, m, block r)
    | (8 | 16) as k ->
      let es = r_list r expr in
      if k = 8 then Tast.Sreturn es else Tast.Sprint es
    | 9 -> Tast.Sblock (block r)
    | (10 | 11) as k ->
      let f = r_str r in
      let es = r_list r expr in
      if k = 10 then Tast.Sgo (f, es) else Tast.Sdefer (f, es)
    | 13 -> Tast.Sbreak
    | 14 -> Tast.Scontinue
    | 15 ->
      let a = expr r in
      Tast.Sdelete (a, expr r)
    | 17 ->
      let v = var r in
      Tast.Stcfree (v, r_free_kind r)
    | _ -> raise Malformed
  and block r : Tast.block =
    let b_scope = r_int r in
    let b_depth = r_int r in
    { Tast.b_scope; b_depth; b_stmts = r_list r stmt }
  in
  let fields r =
    r_list r (fun r ->
        let n = r_str r in
        (n, r_ty r))
  in
  let structs = Hashtbl.create (r_int r) in
  (* re-adding in reverse iteration order rebuilds every bucket as it
     was, so the table iterates in the original order *)
  List.iter
    (fun (n, fs) -> Hashtbl.add structs n fs)
    (List.rev
       (r_list r (fun r ->
            let n = r_str r in
            (n, fields r))));
  let p_globals =
    r_list r (fun r ->
        let v = var r in
        (v, r_opt r expr))
  in
  let p_funcs =
    r_list r (fun r : Tast.func ->
        let f_name = r_str r in
        let f_params = r_list r var in
        let f_results = r_list r r_ty in
        let f_body = block r in
        { Tast.f_name; f_params; f_results; f_body; f_pos = r_pos r })
  in
  let program =
    { Tast.p_funcs; p_globals; p_tenv = { Types.structs };
      p_sites = Array.to_list sites; p_nvars }
  in
  let pkg = r_str r in
  let structs = r_list r r_str in
  (program, Typecheck.iface_of_program ~pkg ~structs program, imported)

(* ---------------------------------------------------------------- *)
(* Records                                                           *)
(* ---------------------------------------------------------------- *)

let encode (h : header) (b : body) : string =
  let w = writer ~size:8192 (Hashtbl.create 64) in
  w_str w h.th_source;
  w_str w h.th_clause;
  w_list w
    (fun w (i : Ast.import_decl) ->
      w_str w i.Ast.imp_path;
      w_str w i.Ast.imp_alias;
      w_pos w i.Ast.imp_pos)
    h.th_imports;
  w_list w
    (fun w (d, digest) ->
      w_str w d;
      w_str w digest)
    h.th_deps;
  w_str w h.th_iface;
  let c = b.tb_counters in
  w_int w c.Typecheck.c_next_var;
  w_int w c.Typecheck.c_next_scope;
  w_int w c.Typecheck.c_next_site;
  encode_program w ~imported:b.tb_imported ~iface:b.tb_iface b.tb_program;
  contents w

let guard f =
  try Ok (f ()) with Malformed | Invalid_argument _ ->
    Error "malformed typed record"

type cursor = r

let decode_header (s : string) ~off ~len : (header * cursor, string) result =
  guard (fun () ->
      let r =
        reader s ~off ~len
          { tys = [||]; ntys = 0; last_pos = Token.dummy_pos }
      in
      let th_source = r_str r in
      let th_clause = r_str r in
      let th_imports =
        r_list r (fun r : Ast.import_decl ->
            let imp_path = r_str r in
            let imp_alias = r_str r in
            { Ast.imp_path; imp_alias; imp_pos = r_pos r })
      in
      let th_deps =
        r_list r (fun r ->
            let d = r_str r in
            (d, r_str r))
      in
      let th_iface = r_str r in
      ({ th_source; th_clause; th_imports; th_deps; th_iface }, r))

let decode_body (cursor : cursor) : (body, string) result =
  guard (fun () ->
      (* a copy of the position and the type table's fill, so the body
         can be decoded again *)
      let rx = { cursor.rx with ntys = cursor.rx.ntys } in
      let r = { cursor with i = cursor.i; rx } in
      let c_next_var = r_int r in
      let c_next_scope = r_int r in
      let c_next_site = r_int r in
      let program, iface, imported = decode_program r in
      if r.i <> r.stop then raise Malformed;
      {
        tb_program = program;
        tb_iface = iface;
        tb_counters = { Typecheck.c_next_var; c_next_scope; c_next_site };
        tb_imported = imported;
      })
