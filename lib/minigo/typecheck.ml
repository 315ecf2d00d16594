(** Name resolution and type checking: lowers the surface {!Ast} to the
    typed {!Tast}.

    Besides checking, this pass computes the per-variable [DeclDepth] /
    [LoopDepth] values the escape analysis needs (paper Defs 4.3, 4.13) and
    allocates one {!Tast.alloc_site} per allocation expression. *)

exception Error of string * Token.pos

let error pos fmt = Format.kasprintf (fun s -> raise (Error (s, pos))) fmt

type func_sig = { sig_params : Types.t list; sig_results : Types.t list }

type state = {
  tenv : Types.env;
  sigs : (string, func_sig) Hashtbl.t;
  globals : (string, Tast.var) Hashtbl.t;
  pkg : string;
      (** qualification prefix for top-level names; [""] for the main
          package / whole-program mode (names stay plain) *)
  aliases : (string, string) Hashtbl.t;
      (** import alias → package name, for resolving [alias.Sel] *)
  mutable scopes : (string, Tast.var) Hashtbl.t list;  (** innermost first *)
  var_base : int;
      (** the package's first variable id; names derived from ids are
          relative to it, so they do not depend on the package's base *)
  mutable next_var : int;
  mutable next_scope : int;
  mutable next_site : int;
  mutable sites : Tast.alloc_site list;  (** reverse order *)
  mutable decl_depth : int;
  mutable loop_depth : int;
  mutable cur_func : string;
  mutable cur_results : Types.t list;
  mutable cur_scope : int;
}

let create ?(pkg = "") ?(first_var = 0) ?(first_scope = 0) ?(first_site = 0)
    () =
  {
    tenv = Types.create_env ();
    sigs = Hashtbl.create 16;
    globals = Hashtbl.create 16;
    pkg;
    aliases = Hashtbl.create 4;
    scopes = [];
    var_base = first_var;
    next_var = first_var;
    next_scope = first_scope;
    next_site = first_site;
    sites = [];
    decl_depth = 0;
    loop_depth = 0;
    cur_func = "";
    cur_results = [];
    cur_scope = 0;
  }

(* ------------------------------------------------------------------ *)
(* Package-qualified names                                             *)
(* ------------------------------------------------------------------ *)

(* The qualified name a top-level declaration of this package goes by:
   [pkg.name], or just [name] in main/whole-program mode. *)
let qualify st name = if st.pkg = "" then name else st.pkg ^ "." ^ name

let split_qualified name =
  match String.index_opt name '.' with
  | None -> None
  | Some i ->
    Some
      ( String.sub name 0 i,
        String.sub name (i + 1) (String.length name - i - 1) )

(* Go's visibility rule: a capitalized first letter means exported. *)
let is_exported name =
  String.length name > 0 && name.[0] >= 'A' && name.[0] <= 'Z'

(* Canonical qualified name of an imported reference [alias.Sel]:
   resolves the alias to its package name and enforces the
   capitalization rule. *)
let resolve_qualified st pos name =
  match split_qualified name with
  | None -> name
  | Some (alias, sel) ->
    let pkg =
      match Hashtbl.find_opt st.aliases alias with
      | Some p -> p
      | None -> error pos "unknown package %s" alias
    in
    if not (is_exported sel) then
      error pos "%s is not exported by package %s" sel pkg;
    pkg ^ "." ^ sel

(* Cross-package field accesses must name exported fields. *)
let check_field_access st pos sname fname =
  match split_qualified sname with
  | Some (p, _) when p <> st.pkg && not (is_exported fname) ->
    error pos "field %s of %s is not exported by package %s" fname sname p
  | _ -> ()

(* Canonical name of a struct type reference: own-package names resolve
   to their qualified form first, then to a plain (imported-main or
   whole-program) name; [alias.Sel] resolves through the alias table. *)
let find_struct st pos n =
  if String.contains n '.' then begin
    let qn = resolve_qualified st pos n in
    if Hashtbl.mem st.tenv.Types.structs qn then Some qn else None
  end
  else begin
    let qn = qualify st n in
    if Hashtbl.mem st.tenv.Types.structs qn then Some qn
    else if Hashtbl.mem st.tenv.Types.structs n then Some n
    else None
  end

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec resolve_ty st pos : Ast.ty -> Types.t = function
  | Ast.Tyint -> Types.Int
  | Ast.Tybool -> Types.Bool
  | Ast.Tystring -> Types.String
  | Ast.Tyfloat -> Types.Float
  | Ast.Typtr t -> Types.Ptr (resolve_ty st pos t)
  | Ast.Tyslice t -> Types.Slice (resolve_ty st pos t)
  | Ast.Tymap (k, v) ->
    let k = resolve_ty st pos k in
    (match k with
    | Types.Int | Types.String | Types.Bool | Types.Float -> ()
    | _ -> error pos "map key type must be a scalar or string");
    Types.Map (k, resolve_ty st pos v)
  | Ast.Tyname n -> begin
    match find_struct st pos n with
    | Some qn -> Types.Struct qn
    | None -> error pos "unknown type %s" n
  end

(* ------------------------------------------------------------------ *)
(* Variables and scopes                                                *)
(* ------------------------------------------------------------------ *)

let fresh_var st name ty kind : Tast.var =
  let id = st.next_var in
  st.next_var <- id + 1;
  {
    Tast.v_id = id;
    v_name = name;
    v_ty = ty;
    v_decl_depth = st.decl_depth;
    v_loop_depth = st.loop_depth;
    v_scope = st.cur_scope;
    v_kind = kind;
  }

let declare st pos name ty kind =
  match st.scopes with
  | [] -> error pos "internal: no open scope"
  | scope :: _ ->
    if Hashtbl.mem scope name then
      error pos "%s is already declared in this scope" name;
    let v = fresh_var st name ty kind in
    Hashtbl.replace scope name v;
    v

let lookup st pos name : Tast.var =
  let rec search = function
    | [] -> begin
      let found =
        if String.contains name '.' then
          Hashtbl.find_opt st.globals (resolve_qualified st pos name)
        else begin
          match Hashtbl.find_opt st.globals (qualify st name) with
          | Some v -> Some v
          | None -> Hashtbl.find_opt st.globals name
        end
      in
      match found with
      | Some v -> v
      | None -> error pos "undefined variable %s" name
    end
    | scope :: rest -> begin
      match Hashtbl.find_opt scope name with
      | Some v -> v
      | None -> search rest
    end
  in
  search st.scopes

(* Run [f] inside a fresh nested scope; returns the scope id and result. *)
let in_scope st f =
  let id = st.next_scope in
  st.next_scope <- id + 1;
  let saved_scope = st.cur_scope in
  st.scopes <- Hashtbl.create 8 :: st.scopes;
  st.decl_depth <- st.decl_depth + 1;
  st.cur_scope <- id;
  let finish () =
    st.scopes <- List.tl st.scopes;
    st.decl_depth <- st.decl_depth - 1;
    st.cur_scope <- saved_scope
  in
  match f id with
  | result ->
    finish ();
    result
  | exception e ->
    finish ();
    raise e

let fresh_site st pos kind ~elem_size ~const_len : Tast.alloc_site =
  let id = st.next_site in
  st.next_site <- id + 1;
  let site =
    {
      Tast.site_id = id;
      site_kind = kind;
      site_pos = pos;
      site_func = st.cur_func;
      site_elem_size = elem_size;
      site_const_len = const_len;
    }
  in
  st.sites <- site :: st.sites;
  site

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let mk ty pos desc : Tast.expr = { Tast.ty; pos; desc }

let is_arith = function Types.Int | Types.Float -> true | _ -> false

let const_len (e : Tast.expr) =
  match e.Tast.desc with Tast.Tint n -> Some n | _ -> None

let rec check_expr st (e : Ast.expr) : Tast.expr =
  let pos = e.Ast.pos in
  match e.Ast.desc with
  | Ast.Eint n -> mk Types.Int pos (Tast.Tint n)
  | Ast.Efloat f -> mk Types.Float pos (Tast.Tfloat f)
  | Ast.Ebool b -> mk Types.Bool pos (Tast.Tbool b)
  | Ast.Estring s -> mk Types.String pos (Tast.Tstring s)
  | Ast.Enil -> mk Types.Nil pos Tast.Tnil
  | Ast.Eident name ->
    let v = lookup st pos name in
    mk v.Tast.v_ty pos (Tast.Tvar v)
  | Ast.Ebinop (op, a, b) -> check_binop st pos op a b
  | Ast.Eunop (Ast.Uneg, a) ->
    let a = check_expr st a in
    if not (is_arith a.Tast.ty) then
      error pos "operand of unary '-' must be numeric, got %s"
        (Types.to_string a.Tast.ty);
    mk a.Tast.ty pos (Tast.Tunop (Ast.Uneg, a))
  | Ast.Eunop (Ast.Unot, a) ->
    let a = check_expr st a in
    if a.Tast.ty <> Types.Bool then
      error pos "operand of '!' must be bool, got %s"
        (Types.to_string a.Tast.ty);
    mk Types.Bool pos (Tast.Tunop (Ast.Unot, a))
  | Ast.Eaddr inner -> begin
    match inner.Ast.desc with
    | Ast.Ecomposite (Ast.Tyname sname, fields) ->
      (* &T{...}: a heap-allocatable object, one allocation site *)
      let sname =
        match find_struct st pos sname with
        | Some qn -> qn
        | None -> error pos "unknown struct type %s" sname
      in
      let inits = check_struct_lit st pos sname fields in
      let size = Types.size_of st.tenv (Types.Struct sname) in
      let site =
        fresh_site st pos Tast.Site_new ~elem_size:size ~const_len:(Some 1)
      in
      mk (Types.Ptr (Types.Struct sname)) pos
        (Tast.Taddr_struct_lit (site, sname, inits))
    | _ -> begin
      match check_lvalue st inner with
      | Tast.Lmap _, _ -> error pos "cannot take address of map element"
      | lv, ty -> mk (Types.Ptr ty) pos (Tast.Taddr lv)
    end
  end
  | Ast.Ederef a ->
    let a = check_expr st a in
    (match a.Tast.ty with
    | Types.Ptr t -> mk t pos (Tast.Tderef a)
    | t -> error pos "cannot dereference a value of type %s"
             (Types.to_string t))
  | Ast.Eindex (a, i) ->
    let a = check_expr st a in
    let i = check_expr st i in
    (match a.Tast.ty with
    | Types.Slice t ->
      if i.Tast.ty <> Types.Int then error pos "slice index must be int";
      mk t pos (Tast.Tindex (a, i))
    | Types.String ->
      if i.Tast.ty <> Types.Int then error pos "string index must be int";
      mk Types.Int pos (Tast.Tindex (a, i))
    | Types.Map (k, v) ->
      if not (Types.compatible i.Tast.ty k) then
        error pos "map key has type %s but %s is required"
          (Types.to_string i.Tast.ty) (Types.to_string k);
      mk v pos (Tast.Tmap_get (a, i))
    | t -> error pos "cannot index a value of type %s" (Types.to_string t))
  | Ast.Eslice (a, lo, hi) ->
    let a = check_expr st a in
    let check_bound b =
      Option.map
        (fun e ->
          let e = check_expr st e in
          if e.Tast.ty <> Types.Int then
            error pos "slice bound must be int";
          e)
        b
    in
    let lo = check_bound lo and hi = check_bound hi in
    (match a.Tast.ty with
    | Types.Slice _ | Types.String ->
      mk a.Tast.ty pos (Tast.Tslice_sub (a, lo, hi))
    | t -> error pos "cannot slice a value of type %s" (Types.to_string t))
  | Ast.Efield (a, fname) ->
    let a = check_expr st a in
    let sname =
      match a.Tast.ty with
      | Types.Struct s -> s
      | Types.Ptr (Types.Struct s) -> s
      | t -> error pos "cannot select field %s on type %s" fname
               (Types.to_string t)
    in
    check_field_access st pos sname fname;
    (match Types.field_index st.tenv sname fname with
    | Some (idx, fty) -> mk fty pos (Tast.Tfield (a, idx, fname))
    | None -> error pos "struct %s has no field %s" sname fname)
  | Ast.Ecall ("itoa", [ a ]) ->
    let a = check_expr st a in
    if a.Tast.ty <> Types.Int then error pos "itoa takes an int";
    mk Types.String pos (Tast.Titoa a)
  | Ast.Ecall ("rand", [ a ]) ->
    let a = check_expr st a in
    if a.Tast.ty <> Types.Int then error pos "rand takes an int";
    mk Types.Int pos (Tast.Trand a)
  | Ast.Ecall ("recover", []) -> mk Types.String pos Tast.Trecover
  | Ast.Ecall ("copy", [ dst; src ]) ->
    let dst = check_expr st dst in
    let src = check_expr st src in
    (match (dst.Tast.ty, src.Tast.ty) with
    | Types.Slice a, Types.Slice b when Types.equal a b ->
      mk Types.Int pos (Tast.Tcopy (dst, src))
    | _ -> error pos "copy takes two slices of the same element type")
  | Ast.Ecall ("substr", [ s; a; b ]) ->
    let s = check_expr st s in
    let a = check_expr st a in
    let b = check_expr st b in
    if s.Tast.ty <> Types.String then
      error pos "substr takes a string and two ints";
    if a.Tast.ty <> Types.Int || b.Tast.ty <> Types.Int then
      error pos "substr bounds must be ints";
    mk Types.String pos (Tast.Tsubstr (s, a, b))
  | Ast.Ecall (name, args) -> begin
    let resolved =
      if String.contains name '.' then begin
        let qn = resolve_qualified st pos name in
        if Hashtbl.mem st.sigs qn then Some qn else None
      end
      else begin
        let qn = qualify st name in
        if Hashtbl.mem st.sigs qn then Some qn
        else if Hashtbl.mem st.sigs name then Some name
        else None
      end
    in
    match resolved with
    | None -> error pos "call to undefined function %s" name
    | Some rname ->
      let fsig = Hashtbl.find st.sigs rname in
      let args = List.map (check_expr st) args in
      let nexpected = List.length fsig.sig_params in
      if List.length args <> nexpected then
        error pos "%s expects %d argument(s), got %d" name nexpected
          (List.length args);
      List.iteri
        (fun i (arg : Tast.expr) ->
          let want = List.nth fsig.sig_params i in
          if not (Types.compatible arg.Tast.ty want) then
            error arg.Tast.pos
              "argument %d of %s has type %s but %s is required" (i + 1)
              name
              (Types.to_string arg.Tast.ty)
              (Types.to_string want))
        args;
      let ty =
        match fsig.sig_results with
        | [] -> Types.Unit
        | [ t ] -> t
        | ts -> Types.Tuple ts
      in
      mk ty pos (Tast.Tcall (rname, args))
  end
  | Ast.Emake (Ast.Tyslice elem, args) ->
    let elem = resolve_ty st pos elem in
    let len, cap =
      match args with
      | [ l ] -> (check_expr st l, None)
      | [ l; c ] -> (check_expr st l, Some (check_expr st c))
      | _ -> error pos "make([]T) takes a length and an optional capacity"
    in
    if len.Tast.ty <> Types.Int then error pos "slice length must be int";
    Option.iter
      (fun (c : Tast.expr) ->
        if c.Tast.ty <> Types.Int then error pos "slice capacity must be int")
      cap;
    let site =
      fresh_site st pos Tast.Site_slice
        ~elem_size:(Types.size_of st.tenv elem)
        ~const_len:
          (match cap with Some c -> const_len c | None -> const_len len)
    in
    mk (Types.Slice elem) pos (Tast.Tmake_slice (site, elem, len, cap))
  | Ast.Emake (Ast.Tymap (k, v), args) ->
    if args <> [] then error pos "make(map[K]V) takes no size argument";
    let kv =
      match resolve_ty st pos (Ast.Tymap (k, v)) with
      | Types.Map (k, v) -> (k, v)
      | _ -> assert false
    in
    let k, v = kv in
    let entry = Types.size_of st.tenv k + Types.size_of st.tenv v in
    let site =
      fresh_site st pos Tast.Site_map ~elem_size:entry ~const_len:(Some 0)
    in
    mk (Types.Map (k, v)) pos (Tast.Tmake_map (site, k, v))
  | Ast.Emake (t, _) ->
    error pos "make requires a slice or map type, got %s" (Ast.ty_to_string t)
  | Ast.Enew t ->
    let t = resolve_ty st pos t in
    let site =
      fresh_site st pos Tast.Site_new
        ~elem_size:(Types.size_of st.tenv t)
        ~const_len:(Some 1)
    in
    mk (Types.Ptr t) pos (Tast.Tnew (site, t))
  | Ast.Ecomposite (Ast.Tyname sname, fields) ->
    let sname =
      match find_struct st pos sname with
      | Some qn -> qn
      | None -> error pos "unknown struct type %s" sname
    in
    let inits = check_struct_lit st pos sname fields in
    mk (Types.Struct sname) pos (Tast.Tstruct_lit (sname, inits))
  | Ast.Ecomposite (Ast.Tyslice elem, entries) ->
    let elem = resolve_ty st pos elem in
    let exprs =
      List.map
        (fun (fname, e) ->
          if fname <> None then
            error pos "slice literals cannot use field names";
          let e = check_expr st e in
          if not (Types.compatible e.Tast.ty elem) then
            error e.Tast.pos "slice literal element has type %s, want %s"
              (Types.to_string e.Tast.ty) (Types.to_string elem);
          e)
        entries
    in
    let site =
      fresh_site st pos Tast.Site_slice
        ~elem_size:(Types.size_of st.tenv elem)
        ~const_len:(Some (List.length exprs))
    in
    mk (Types.Slice elem) pos (Tast.Tslice_lit (site, elem, exprs))
  | Ast.Ecomposite (t, _) ->
    error pos "composite literal requires a struct or slice type, got %s"
      (Ast.ty_to_string t)
  | Ast.Eappend (s, elems) ->
    let s = check_expr st s in
    let elem_ty =
      match s.Tast.ty with
      | Types.Slice t -> t
      | t -> error pos "append requires a slice, got %s" (Types.to_string t)
    in
    let elems =
      List.map
        (fun e ->
          let e = check_expr st e in
          if not (Types.compatible e.Tast.ty elem_ty) then
            error e.Tast.pos "appended element has type %s, want %s"
              (Types.to_string e.Tast.ty)
              (Types.to_string elem_ty);
          e)
        elems
    in
    let site =
      fresh_site st pos Tast.Site_append
        ~elem_size:(Types.size_of st.tenv elem_ty)
        ~const_len:None
    in
    mk s.Tast.ty pos (Tast.Tappend (site, s, elems))
  | Ast.Elen a ->
    let a = check_expr st a in
    (match a.Tast.ty with
    | Types.Slice _ | Types.Map _ | Types.String ->
      mk Types.Int pos (Tast.Tlen a)
    | t -> error pos "len is not defined on %s" (Types.to_string t))
  | Ast.Ecap a ->
    let a = check_expr st a in
    (match a.Tast.ty with
    | Types.Slice _ -> mk Types.Int pos (Tast.Tcap a)
    | t -> error pos "cap is not defined on %s" (Types.to_string t))

and check_binop st pos op a b : Tast.expr =
  let a = check_expr st a in
  let b = check_expr st b in
  let ta = a.Tast.ty and tb = b.Tast.ty in
  let result =
    match op with
    | Ast.Badd ->
      if Types.equal ta tb && (is_arith ta || ta = Types.String) then ta
      else
        error pos "invalid operands %s + %s" (Types.to_string ta)
          (Types.to_string tb)
    | Ast.Bsub | Ast.Bmul | Ast.Bdiv ->
      if Types.equal ta tb && is_arith ta then ta
      else
        error pos "invalid numeric operands %s, %s" (Types.to_string ta)
          (Types.to_string tb)
    | Ast.Bmod ->
      if ta = Types.Int && tb = Types.Int then Types.Int
      else error pos "'%%' requires int operands"
    | Ast.Band_bits | Ast.Bor_bits | Ast.Bxor | Ast.Bshl | Ast.Bshr ->
      if ta = Types.Int && tb = Types.Int then Types.Int
      else error pos "bitwise operators require int operands"
    | Ast.Beq | Ast.Bne ->
      if Types.compatible ta tb then Types.Bool
      else
        error pos "cannot compare %s and %s" (Types.to_string ta)
          (Types.to_string tb)
    | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge ->
      if Types.equal ta tb && (is_arith ta || ta = Types.String) then
        Types.Bool
      else
        error pos "cannot order %s and %s" (Types.to_string ta)
          (Types.to_string tb)
    | Ast.Band | Ast.Bor ->
      if ta = Types.Bool && tb = Types.Bool then Types.Bool
      else error pos "logical operators require bool operands"
  in
  mk result pos (Tast.Tbinop (op, a, b))

and check_struct_lit st pos sname fields : Tast.expr list =
  let decl_fields = Types.struct_fields st.tenv sname in
  let named = List.exists (fun (n, _) -> n <> None) fields in
  if named && List.exists (fun (n, _) -> n = None) fields then
    error pos "cannot mix named and positional fields in a struct literal";
  if named then
    List.iter
      (fun (n, _) ->
        Option.iter (fun f -> check_field_access st pos sname f) n)
      fields;
  if named then
    (* one initializer per named field; missing fields get zero values *)
    List.map
      (fun (fname, fty) ->
        match
          List.find_opt (fun (n, _) -> n = Some fname) fields
        with
        | Some (_, e) ->
          let e = check_expr st e in
          if not (Types.compatible e.Tast.ty fty) then
            error e.Tast.pos "field %s has type %s, want %s" fname
              (Types.to_string e.Tast.ty)
              (Types.to_string fty);
          e
        | None -> zero_value_expr st pos fty)
      decl_fields
  else if fields = [] then
    List.map (fun (_, fty) -> zero_value_expr st pos fty) decl_fields
  else begin
    if List.length fields <> List.length decl_fields then
      error pos "struct %s has %d field(s), literal provides %d" sname
        (List.length decl_fields) (List.length fields);
    List.map2
      (fun (_, e) (fname, fty) ->
        let e = check_expr st e in
        if not (Types.compatible e.Tast.ty fty) then
          error e.Tast.pos "field %s has type %s, want %s" fname
            (Types.to_string e.Tast.ty)
            (Types.to_string fty);
        e)
      fields decl_fields
  end

(* A synthesized expression producing the zero value of [ty]. *)
and zero_value_expr st pos (ty : Types.t) : Tast.expr =
  match ty with
  | Types.Int -> mk Types.Int pos (Tast.Tint 0)
  | Types.Float -> mk Types.Float pos (Tast.Tfloat 0.0)
  | Types.Bool -> mk Types.Bool pos (Tast.Tbool false)
  | Types.String -> mk Types.String pos (Tast.Tstring "")
  | Types.Ptr _ | Types.Slice _ | Types.Map _ -> mk ty pos Tast.Tnil
  | Types.Struct sname ->
    let inits =
      List.map
        (fun (_, fty) -> zero_value_expr st pos fty)
        (Types.struct_fields st.tenv sname)
    in
    mk ty pos (Tast.Tstruct_lit (sname, inits))
  | Types.Tuple _ | Types.Unit | Types.Nil ->
    error pos "internal: no zero value for %s" (Types.to_string ty)

and check_lvalue st (e : Ast.expr) : Tast.lvalue * Types.t =
  let pos = e.Ast.pos in
  match e.Ast.desc with
  | Ast.Eident name ->
    let v = lookup st pos name in
    (Tast.Lvar v, v.Tast.v_ty)
  | Ast.Ederef a ->
    let a = check_expr st a in
    (match a.Tast.ty with
    | Types.Ptr t -> (Tast.Lderef a, t)
    | t -> error pos "cannot assign through a value of type %s"
             (Types.to_string t))
  | Ast.Eindex (a, i) ->
    let a = check_expr st a in
    let i = check_expr st i in
    (match a.Tast.ty with
    | Types.Slice t ->
      if i.Tast.ty <> Types.Int then error pos "slice index must be int";
      (Tast.Lindex (a, i), t)
    | Types.Map (k, v) ->
      if not (Types.compatible i.Tast.ty k) then
        error pos "map key has type %s but %s is required"
          (Types.to_string i.Tast.ty) (Types.to_string k);
      (Tast.Lmap (a, i), v)
    | t -> error pos "cannot assign into a value of type %s"
             (Types.to_string t))
  | Ast.Efield (a, fname) ->
    let a = check_expr st a in
    let sname =
      match a.Tast.ty with
      | Types.Struct s | Types.Ptr (Types.Struct s) -> s
      | t -> error pos "cannot select field %s on type %s" fname
               (Types.to_string t)
    in
    check_field_access st pos sname fname;
    if in_map_element a then
      error pos "field %s of a map element is not addressable" fname;
    (match Types.field_index st.tenv sname fname with
    | Some (idx, fty) -> (Tast.Lfield (a, idx, fname), fty)
    | None -> error pos "struct %s has no field %s" sname fname)
  | _ -> error pos "expression is not assignable"

(* A struct value stored in a map, or a struct-valued field of one, at
   any depth: not addressable, as in Go.  A pointer element ([m[k].f]
   with [map[K]*T]) is, since the field then lives in the pointee. *)
and in_map_element (e : Tast.expr) =
  match e.Tast.ty, e.Tast.desc with
  | Types.Struct _, Tast.Tmap_get _ -> true
  | Types.Struct _, Tast.Tfield (b, _, _) -> in_map_element b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec check_block st (stmts : Ast.block) : Tast.block =
  in_scope st (fun scope_id ->
      let depth = st.decl_depth in
      let checked = List.concat_map (check_stmt st) stmts in
      { Tast.b_scope = scope_id; b_depth = depth; b_stmts = checked })

(* One surface statement can lower to several typed statements
   (e.g. paired multi-assignment). *)
and check_stmt st (s : Ast.stmt) : Tast.stmt list =
  let pos = s.Ast.spos in
  match s.Ast.sdesc with
  | Ast.Sdecl (names, ty_opt, inits) -> check_decl st pos names ty_opt inits
  | Ast.Sassign (lhss, rhss) -> check_assign st pos lhss rhss
  | Ast.Sop_assign (lhs, op, rhs) ->
    let lv, lty = check_lvalue st lhs in
    let rhs = check_expr st rhs in
    let lhs_expr = expr_of_lvalue st pos lv lty in
    let combined =
      check_binop_typed st pos op lhs_expr rhs
    in
    [ Tast.Sassign (lv, combined) ]
  | Ast.Sincr lhs ->
    let lv, lty = check_lvalue st lhs in
    if lty <> Types.Int then error pos "'++' requires an int operand";
    let one = mk Types.Int pos (Tast.Tint 1) in
    let cur = expr_of_lvalue st pos lv lty in
    [ Tast.Sassign (lv, mk Types.Int pos (Tast.Tbinop (Ast.Badd, cur, one))) ]
  | Ast.Sdecr lhs ->
    let lv, lty = check_lvalue st lhs in
    if lty <> Types.Int then error pos "'--' requires an int operand";
    let one = mk Types.Int pos (Tast.Tint 1) in
    let cur = expr_of_lvalue st pos lv lty in
    [ Tast.Sassign (lv, mk Types.Int pos (Tast.Tbinop (Ast.Bsub, cur, one))) ]
  | Ast.Sexpr e ->
    let e = check_expr st e in
    (match e.Tast.desc with
    | Tast.Tcall _ | Tast.Tcopy _ -> ()
    | _ -> error pos "expression statement must be a function call");
    [ Tast.Sexpr e ]
  | Ast.Sif (cond, body, else_opt) ->
    let cond = check_expr st cond in
    if cond.Tast.ty <> Types.Bool then
      error pos "if condition must be bool, got %s"
        (Types.to_string cond.Tast.ty);
    let body = check_block st body in
    let else_blk =
      match else_opt with
      | None -> None
      | Some { Ast.sdesc = Ast.Sblock b; _ } -> Some (check_block st b)
      | Some ({ Ast.sdesc = Ast.Sif _; _ } as elif) ->
        (* wrap "else if" into a block of its own *)
        Some
          (in_scope st (fun scope_id ->
               {
                 Tast.b_scope = scope_id;
                 b_depth = st.decl_depth;
                 b_stmts = check_stmt st elif;
               }))
      | Some _ -> error pos "internal: malformed else branch"
    in
    [ Tast.Sif (cond, body, else_blk) ]
  | Ast.Sfor (init, cond, post, body) ->
    (* The init variable lives in an implicit scope around the loop; the
       whole for statement (incl. init) is at loop depth + 1, as in Go's
       escape analysis. *)
    st.loop_depth <- st.loop_depth + 1;
    let result =
      in_scope st (fun scope_id ->
          let init = Option.map (fun s -> one_stmt st pos (check_stmt st s)) init in
          let cond =
            Option.map
              (fun c ->
                let c = check_expr st c in
                if c.Tast.ty <> Types.Bool then
                  error pos "for condition must be bool";
                c)
              cond
          in
          let post = Option.map (fun s -> one_stmt st pos (check_stmt st s)) post in
          let body = check_block st body in
          {
            Tast.b_scope = scope_id;
            b_depth = st.decl_depth;
            b_stmts = [ Tast.Sfor (init, cond, post, body) ];
          })
    in
    st.loop_depth <- st.loop_depth - 1;
    [ Tast.Sblock result ]
  | Ast.Sforrange (name, e, body) when
      (match (check_expr st e).Tast.ty with
       | Types.Map _ -> true
       | _ -> false) ->
    (* range over a map: iterate keys directly (no integer desugaring) *)
    let e = check_expr st e in
    let key_ty =
      match e.Tast.ty with Types.Map (k, _) -> k | _ -> assert false
    in
    st.loop_depth <- st.loop_depth + 1;
    let result =
      in_scope st (fun scope_id ->
          let k = declare st pos name key_ty Tast.Vlocal in
          let body = check_block st body in
          {
            Tast.b_scope = scope_id;
            b_depth = st.decl_depth;
            b_stmts = [ Tast.Sforrange_map (k, e, body) ];
          })
    in
    st.loop_depth <- st.loop_depth - 1;
    [ Tast.Sblock result ]
  | Ast.Sforrange (name, e, body) ->
    (* Desugar:  for i := range e  ==>
         { bound := <len e or e>; for i := 0; i < bound; i++ { body } } *)
    let e = check_expr st e in
    let bound_expr =
      match e.Tast.ty with
      | Types.Int -> e
      | Types.Slice _ -> mk Types.Int pos (Tast.Tlen e)
      | t -> error pos "cannot range over %s" (Types.to_string t)
    in
    let outer =
      in_scope st (fun outer_id ->
          let bound = declare st pos ("range$" ^ name) Types.Int Tast.Vlocal in
          let bound_decl = Tast.Sdecl (bound, Some bound_expr) in
          st.loop_depth <- st.loop_depth + 1;
          let loop =
            in_scope st (fun for_id ->
                let i = declare st pos name Types.Int Tast.Vlocal in
                let init = Tast.Sdecl (i, Some (mk Types.Int pos (Tast.Tint 0))) in
                let cond =
                  mk Types.Bool pos
                    (Tast.Tbinop
                       ( Ast.Blt,
                         mk Types.Int pos (Tast.Tvar i),
                         mk Types.Int pos (Tast.Tvar bound) ))
                in
                let post =
                  Tast.Sassign
                    ( Tast.Lvar i,
                      mk Types.Int pos
                        (Tast.Tbinop
                           ( Ast.Badd,
                             mk Types.Int pos (Tast.Tvar i),
                             mk Types.Int pos (Tast.Tint 1) )) )
                in
                let body = check_block st body in
                {
                  Tast.b_scope = for_id;
                  b_depth = st.decl_depth;
                  b_stmts = [ Tast.Sfor (Some init, Some cond, Some post, body) ];
                })
          in
          st.loop_depth <- st.loop_depth - 1;
          {
            Tast.b_scope = outer_id;
            b_depth = st.decl_depth;
            b_stmts = [ bound_decl; Tast.Sblock loop ];
          })
    in
    [ Tast.Sblock outer ]
  | Ast.Sreturn exprs ->
    let exprs = List.map (check_expr st) exprs in
    let want = st.cur_results in
    if List.length exprs <> List.length want then
      error pos "%s returns %d value(s), got %d" st.cur_func
        (List.length want) (List.length exprs);
    List.iteri
      (fun i (e : Tast.expr) ->
        let w = List.nth want i in
        if not (Types.compatible e.Tast.ty w) then
          error e.Tast.pos "return value %d has type %s, want %s" (i + 1)
            (Types.to_string e.Tast.ty)
            (Types.to_string w))
      exprs;
    [ Tast.Sreturn exprs ]
  | Ast.Sblock b -> [ Tast.Sblock (check_block st b) ]
  | Ast.Sgo e -> begin
    match check_expr st e with
    | { Tast.desc = Tast.Tcall (name, args); _ } -> [ Tast.Sgo (name, args) ]
    | _ -> error pos "go requires a function call"
  end
  | Ast.Sdefer e -> begin
    match check_expr st e with
    | { Tast.desc = Tast.Tcall (name, args); _ } ->
      [ Tast.Sdefer (name, args) ]
    | _ -> error pos "defer requires a function call"
  end
  | Ast.Spanic e -> [ Tast.Spanic (check_expr st e) ]
  | Ast.Sbreak ->
    if st.loop_depth = 0 then error pos "break is not in a loop";
    [ Tast.Sbreak ]
  | Ast.Scontinue ->
    if st.loop_depth = 0 then error pos "continue is not in a loop";
    [ Tast.Scontinue ]
  | Ast.Sdelete (m, k) ->
    let m = check_expr st m in
    let k = check_expr st k in
    (match m.Tast.ty with
    | Types.Map (kt, _) ->
      if not (Types.compatible k.Tast.ty kt) then
        error pos "delete key has type %s, want %s"
          (Types.to_string k.Tast.ty) (Types.to_string kt);
      [ Tast.Sdelete (m, k) ]
    | t -> error pos "delete requires a map, got %s" (Types.to_string t))
  | Ast.Sprint es -> [ Tast.Sprint (List.map (check_expr st) es) ]

and one_stmt _st pos = function
  | [ s ] -> s
  | _ -> error pos "this statement form is not allowed in a for clause"

and expr_of_lvalue st pos (lv : Tast.lvalue) ty : Tast.expr =
  ignore st;
  match lv with
  | Tast.Lvar v -> mk ty pos (Tast.Tvar v)
  | Tast.Lderef e -> mk ty pos (Tast.Tderef e)
  | Tast.Lindex (a, i) -> mk ty pos (Tast.Tindex (a, i))
  | Tast.Lmap (m, k) -> mk ty pos (Tast.Tmap_get (m, k))
  | Tast.Lfield (e, idx, name) -> mk ty pos (Tast.Tfield (e, idx, name))

and check_binop_typed st pos op (a : Tast.expr) (b : Tast.expr) : Tast.expr =
  ignore st;
  let ta = a.Tast.ty in
  (match op with
  | Ast.Badd ->
    if not (is_arith ta || ta = Types.String) then
      error pos "invalid '+=' operand type %s" (Types.to_string ta)
  | Ast.Bsub | Ast.Bmul ->
    if not (is_arith ta) then
      error pos "invalid compound assignment operand type %s"
        (Types.to_string ta)
  | _ -> error pos "unsupported compound assignment");
  if not (Types.equal ta b.Tast.ty) then
    error pos "mismatched compound assignment operands %s and %s"
      (Types.to_string ta)
      (Types.to_string b.Tast.ty);
  mk ta pos (Tast.Tbinop (op, a, b))

and check_decl st pos names ty_opt inits : Tast.stmt list =
  let declared_ty = Option.map (resolve_ty st pos) ty_opt in
  match (names, inits) with
  | _, [] ->
    (* var x, y T  — zero values *)
    let ty =
      match declared_ty with
      | Some t -> t
      | None -> error pos "declaration needs a type or an initializer"
    in
    List.map
      (fun name ->
        let v = declare st pos name ty Tast.Vlocal in
        Tast.Sdecl (v, None))
      names
  | [ name ], [ init ] ->
    let init = check_expr st init in
    let ty =
      match declared_ty with
      | Some t ->
        if not (Types.compatible init.Tast.ty t) then
          error pos "cannot initialize %s (%s) with %s" name
            (Types.to_string t)
            (Types.to_string init.Tast.ty);
        t
      | None -> begin
        match init.Tast.ty with
        | Types.Unit -> error pos "%s has no value" name
        | Types.Tuple _ ->
          error pos "multiple-value call needs multiple targets"
        | Types.Nil -> error pos "cannot infer a type from nil"
        | t -> t
      end
    in
    let v = declare st pos name ty Tast.Vlocal in
    [ Tast.Sdecl (v, Some init) ]
  | names, [ init ] when List.length names > 1 ->
    (* a, b := f() — one multi-value call; or the comma-ok map form *)
    let init = check_expr st init in
    let init =
      match (init.Tast.desc, names) with
      | Tast.Tmap_get (m, k), [ _; _ ] ->
        mk
          (Types.Tuple [ init.Tast.ty; Types.Bool ])
          pos
          (Tast.Tmap_get_ok (m, k))
      | _ -> init
    in
    (match init.Tast.ty with
    | Types.Tuple tys when List.length tys = List.length names ->
      let vars =
        List.map2 (fun name ty -> declare st pos name ty Tast.Vlocal) names
          tys
      in
      [ Tast.Smulti_decl (vars, init) ]
    | Types.Tuple tys ->
      error pos "call returns %d values but %d targets given"
        (List.length tys) (List.length names)
    | _ -> error pos "multiple targets require a multiple-value call")
  | names, inits ->
    if List.length names <> List.length inits then
      error pos "declaration has %d name(s) but %d value(s)"
        (List.length names) (List.length inits);
    (* a, b := e1, e2 — element-wise; rhs evaluated before any binding is
       visible, which holds because each rhs is checked in the current
       scope before the names are declared. *)
    let checked = List.map (check_expr st) inits in
    List.map2
      (fun name (init : Tast.expr) ->
        let ty =
          match declared_ty with
          | Some t -> t
          | None -> begin
            match init.Tast.ty with
            | Types.Nil -> error pos "cannot infer a type from nil"
            | Types.Unit | Types.Tuple _ ->
              error pos "invalid initializer for %s" name
            | t -> t
          end
        in
        let v = declare st pos name ty Tast.Vlocal in
        Tast.Sdecl (v, Some init))
      names checked

and check_assign st pos lhss rhss : Tast.stmt list =
  match (lhss, rhss) with
  | [ lhs ], [ rhs ] ->
    let lv, lty = check_lvalue st lhs in
    let rhs = check_expr st rhs in
    if not (Types.compatible rhs.Tast.ty lty) then
      error pos "cannot assign %s to %s"
        (Types.to_string rhs.Tast.ty)
        (Types.to_string lty);
    [ Tast.Sassign (lv, rhs) ]
  | lhss, [ rhs ] when List.length lhss > 1 ->
    let rhs = check_expr st rhs in
    let rhs =
      match (rhs.Tast.desc, lhss) with
      | Tast.Tmap_get (m, k), [ _; _ ] ->
        mk
          (Types.Tuple [ rhs.Tast.ty; Types.Bool ])
          pos
          (Tast.Tmap_get_ok (m, k))
      | _ -> rhs
    in
    (match rhs.Tast.ty with
    | Types.Tuple tys when List.length tys = List.length lhss ->
      let lvs =
        List.map2
          (fun lhs ty ->
            let lv, lty = check_lvalue st lhs in
            if not (Types.compatible ty lty) then
              error pos "cannot assign %s to %s" (Types.to_string ty)
                (Types.to_string lty);
            lv)
          lhss tys
      in
      [ Tast.Smulti_assign (lvs, rhs) ]
    | Types.Tuple tys ->
      error pos "call returns %d values but %d targets given"
        (List.length tys) (List.length lhss)
    | _ -> error pos "multiple targets require a multiple-value call")
  | lhss, rhss ->
    if List.length lhss <> List.length rhss then
      error pos "assignment has %d target(s) but %d value(s)"
        (List.length lhss) (List.length rhss);
    (* a, b = e1, e2: evaluate all of the rhs into temporaries first so
       that swaps work, then assign. *)
    in_scope st (fun scope_id ->
        let temps =
          List.map
            (fun rhs ->
              let rhs = check_expr st rhs in
              let v =
                declare st pos
                  (Printf.sprintf "swap$%d" (st.next_var - st.var_base))
                  rhs.Tast.ty Tast.Vlocal
              in
              (v, rhs))
            rhss
        in
        let decls =
          List.map (fun (v, rhs) -> Tast.Sdecl (v, Some rhs)) temps
        in
        let assigns =
          List.map2
            (fun lhs (v, (rhs : Tast.expr)) ->
              let lv, lty = check_lvalue st lhs in
              if not (Types.compatible rhs.Tast.ty lty) then
                error pos "cannot assign %s to %s"
                  (Types.to_string rhs.Tast.ty)
                  (Types.to_string lty);
              Tast.Sassign (lv, mk lty pos (Tast.Tvar v)))
            lhss temps
        in
        [ Tast.Sblock
            {
              Tast.b_scope = scope_id;
              b_depth = st.decl_depth;
              b_stmts = decls @ assigns;
            } ])

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let check_func st (fd : Ast.func_decl) : Tast.func =
  st.cur_func <- qualify st fd.Ast.fd_name;
  st.decl_depth <- 0;
  st.loop_depth <- 0;
  let results =
    List.map (resolve_ty st fd.Ast.fd_pos) fd.Ast.fd_results
  in
  st.cur_results <- results;
  let body =
    in_scope st (fun scope_id ->
        (* parameters live in the body scope (depth 1), like Go *)
        let params =
          List.map
            (fun (name, ty) ->
              declare st fd.Ast.fd_pos name
                (resolve_ty st fd.Ast.fd_pos ty)
                Tast.Vparam)
            fd.Ast.fd_params
        in
        let depth = st.decl_depth in
        let stmts = List.concat_map (check_stmt st) fd.Ast.fd_body in
        ( params,
          { Tast.b_scope = scope_id; b_depth = depth; b_stmts = stmts } ))
  in
  let params, body = body in
  {
    Tast.f_name = qualify st fd.Ast.fd_name;
    f_params = params;
    f_results = results;
    f_body = body;
    f_pos = fd.Ast.fd_pos;
  }

(* Check one program's declarations against an already-initialized state
   (possibly holding imported interfaces and id bases). *)
let check_decls st (prog : Ast.program) : Tast.program =
  (* Pass 1: struct declarations (names first so they can be mutually
     recursive through pointers). *)
  List.iter
    (function
      | Ast.Dstruct sd -> Types.add_struct st.tenv (qualify st sd.Ast.sd_name) []
      | Ast.Dfunc _ | Ast.Dglobal _ -> ())
    prog;
  List.iter
    (function
      | Ast.Dstruct sd ->
        let fields =
          List.map
            (fun (n, ty) -> (n, resolve_ty st sd.Ast.sd_pos ty))
            sd.Ast.sd_fields
        in
        Types.add_struct st.tenv (qualify st sd.Ast.sd_name) fields
      | Ast.Dfunc _ | Ast.Dglobal _ -> ())
    prog;
  (* Reject value-recursive structs (infinite size). *)
  List.iter
    (function
      | Ast.Dstruct sd ->
        let name = qualify st sd.Ast.sd_name in
        let rec occurs seen = function
          | Types.Struct s ->
            if List.mem s seen then
              error sd.Ast.sd_pos "struct %s is recursive by value" name
            else
              List.iter
                (fun (_, ty) -> occurs (s :: seen) ty)
                (Types.struct_fields st.tenv s)
          | Types.Tuple ts -> List.iter (occurs seen) ts
          | Types.Int | Types.Bool | Types.String | Types.Float
          | Types.Ptr _ | Types.Slice _ | Types.Map _ | Types.Unit
          | Types.Nil ->
            ()
        in
        List.iter
          (fun (_, ty) -> occurs [ name ] ty)
          (Types.struct_fields st.tenv name)
      | Ast.Dfunc _ | Ast.Dglobal _ -> ())
    prog;
  (* Pass 2: function signatures. *)
  List.iter
    (function
      | Ast.Dfunc fd ->
        if Hashtbl.mem st.sigs (qualify st fd.Ast.fd_name) then
          error fd.Ast.fd_pos "function %s is declared twice" fd.Ast.fd_name;
        Hashtbl.replace st.sigs (qualify st fd.Ast.fd_name)
          {
            sig_params =
              List.map
                (fun (_, ty) -> resolve_ty st fd.Ast.fd_pos ty)
                fd.Ast.fd_params;
            sig_results =
              List.map (resolve_ty st fd.Ast.fd_pos) fd.Ast.fd_results;
          }
      | Ast.Dstruct _ | Ast.Dglobal _ -> ())
    prog;
  (* Pass 3: globals (initializers may call functions). *)
  let globals =
    List.filter_map
      (function
        | Ast.Dglobal gd ->
          let init = Option.map (check_expr st) gd.Ast.gd_init in
          let ty =
            match (Option.map (resolve_ty st gd.Ast.gd_pos) gd.Ast.gd_ty,
                   init)
            with
            | Some t, Some i ->
              if not (Types.compatible i.Tast.ty t) then
                error gd.Ast.gd_pos "global %s initializer type mismatch"
                  gd.Ast.gd_name;
              t
            | Some t, None -> t
            | None, Some i -> i.Tast.ty
            | None, None ->
              error gd.Ast.gd_pos "global %s needs a type or initializer"
                gd.Ast.gd_name
          in
          if Hashtbl.mem st.globals (qualify st gd.Ast.gd_name) then
            error gd.Ast.gd_pos "global %s is declared twice" gd.Ast.gd_name;
          let v = fresh_var st (qualify st gd.Ast.gd_name) ty Tast.Vglobal in
          Hashtbl.replace st.globals (qualify st gd.Ast.gd_name) v;
          Some (v, init)
        | Ast.Dfunc _ | Ast.Dstruct _ -> None)
      prog
  in
  (* Pass 4: function bodies. *)
  let funcs =
    List.filter_map
      (function
        | Ast.Dfunc fd -> Some (check_func st fd)
        | Ast.Dstruct _ | Ast.Dglobal _ -> None)
      prog
  in
  {
    Tast.p_funcs = funcs;
    p_globals = globals;
    p_tenv = st.tenv;
    p_sites = List.rev st.sites;
    p_nvars = st.next_var;
  }

(** Check a whole program.  Raises {!Error} on the first type error. *)
let check (prog : Ast.program) : Tast.program = check_decls (create ()) prog

(* ------------------------------------------------------------------ *)
(* Package mode                                                        *)
(* ------------------------------------------------------------------ *)

type pkg_iface = {
  pi_pkg : string;
  pi_structs : (string * (string * Types.t) list) list;
  pi_funcs : (string * func_sig) list;
  pi_globals : (string * Tast.var) list;
}

type counters = { c_next_var : int; c_next_scope : int; c_next_site : int }

let iface_of_program ~pkg ~structs (p : Tast.program) : pkg_iface =
  {
    pi_pkg = pkg;
    pi_structs =
      List.map (fun n -> (n, Types.struct_fields p.Tast.p_tenv n)) structs;
    pi_funcs =
      List.map
        (fun (f : Tast.func) ->
          ( f.Tast.f_name,
            {
              sig_params =
                List.map (fun (v : Tast.var) -> v.Tast.v_ty) f.Tast.f_params;
              sig_results = f.Tast.f_results;
            } ))
        p.Tast.p_funcs;
    pi_globals =
      List.map (fun ((v : Tast.var), _) -> (v.Tast.v_name, v)) p.Tast.p_globals;
  }

(* Globals are declared outside every function, so their scope and
   depths are fixed; the text records them anyway, since importers copy
   the whole variable record. *)
let iface_text (pi : pkg_iface) : string =
  let b = Buffer.create 256 in
  let ty = Types.to_string in
  let tys ts = String.concat "," (List.map ty ts) in
  Printf.bprintf b "package %s\n" pi.pi_pkg;
  List.iter
    (fun (n, fields) ->
      Printf.bprintf b "struct %s {%s}\n" n
        (String.concat ";"
           (List.map (fun (f, t) -> f ^ " " ^ ty t) fields)))
    pi.pi_structs;
  List.iter
    (fun (n, s) ->
      Printf.bprintf b "func %s (%s) (%s)\n" n (tys s.sig_params)
        (tys s.sig_results))
    pi.pi_funcs;
  List.iter
    (fun (n, (v : Tast.var)) ->
      Printf.bprintf b "global %s %s %d %d %d %d\n" n (ty v.Tast.v_ty)
        v.Tast.v_id v.Tast.v_decl_depth v.Tast.v_loop_depth
        v.Tast.v_scope)
    pi.pi_globals;
  Buffer.contents b

let check_package ?(imports = []) ?(first_var = 0) ?(first_scope = 0)
    ?(first_site = 0) (file : Ast.file) :
    Tast.program * pkg_iface * counters =
  let pkg = file.Ast.file_package in
  (* The main package keeps plain names so the interpreter's "main" entry
     point and single-file compiles line up; other packages qualify every
     top-level name as [pkg.name]. *)
  let st =
    create
      ~pkg:(if pkg = "main" then "" else pkg)
      ~first_var ~first_scope ~first_site ()
  in
  List.iter
    (fun (imp : Ast.import_decl) ->
      let pname = Ast.import_base imp.Ast.imp_path in
      (match Hashtbl.find_opt st.aliases imp.Ast.imp_alias with
      | Some existing when existing <> pname ->
        error imp.Ast.imp_pos "duplicate import alias %s" imp.Ast.imp_alias
      | _ -> ());
      if not (List.exists (fun pi -> pi.pi_pkg = pname) imports) then
        error imp.Ast.imp_pos "import %S: cannot find package %s"
          imp.Ast.imp_path pname;
      Hashtbl.replace st.aliases imp.Ast.imp_alias pname)
    file.Ast.file_imports;
  (* Pre-load the interfaces of the imported packages: their (qualified)
     struct types, function signatures and globals become visible exactly
     as if their declarations preceded this package's. *)
  List.iter
    (fun pi ->
      List.iter
        (fun (n, fields) -> Types.add_struct st.tenv n fields)
        pi.pi_structs;
      List.iter (fun (n, s) -> Hashtbl.replace st.sigs n s) pi.pi_funcs;
      List.iter (fun (n, v) -> Hashtbl.replace st.globals n v) pi.pi_globals)
    imports;
  let tprog = check_decls st file.Ast.file_decls in
  let iface =
    iface_of_program ~pkg
      ~structs:
        (List.filter_map
           (function
             | Ast.Dstruct sd -> Some (qualify st sd.Ast.sd_name)
             | Ast.Dfunc _ | Ast.Dglobal _ -> None)
           file.Ast.file_decls)
      tprog
  in
  let counters =
    {
      c_next_var = st.next_var;
      c_next_scope = st.next_scope;
      c_next_site = st.next_site;
    }
  in
  (tprog, iface, counters)
