(** tcfree instrumentation (paper §4.5).

    For every variable whose location satisfies [ToFree] (Def 4.17) and
    whose type is in the configured target set, a [Stcfree] statement is
    inserted into the variable's declaration scope.  Placement follows
    the configured precision:

    - [Scope_exit] (the paper's placement): last statement of the scope,
      before a trailing [return]/[break]/[continue]/[panic] so the free
      is live.  If the trailing return still mentions the variable the
      free is skipped (left to GC) rather than risking a use-after-free
      in the return expression.
    - [Last_use]: directly after the last scope-level statement that
      mentions the variable or any of its syntactic aliases (any
      variable assigned from an expression mentioning a member of the
      closure — this covers sub-slices, field loads, and values routed
      through calls such as [w := f(v)]).  A trailing return that is
      itself the last use is rewritten to [tmp := e; tcfree(v);
      return tmp]: the return expression is fully evaluated before the
      free, and [ToFree] already guarantees the returned value cannot
      reference the freed object.  Functions containing [defer] or [go]
      fall back to scope-exit placement wholesale (§5's safety
      protocol).

    Field-sensitive mode additionally frees per-field slots
    ({!Gofree_escape.Analysis.to_free_fields}) by loading the field into
    a compiler temporary and freeing the temporary — always at scope
    exit, and always {e before} the base variable's own free so the
    field load never reads a freed object.  Temporaries carry a [-1]
    placeholder id until {!assign_temp_ids} renumbers them
    program-wide. *)

open Minigo

type inserted = {
  ins_func : string;
  ins_var : Tast.var;  (** the base variable *)
  ins_field : (int * string) option;
      (** [Some (index, name)] for a field-slot free *)
  ins_kind : Tast.free_kind;
}

let free_kind_of_type (targets : Config.free_targets) (ty : Types.t) :
    Tast.free_kind option =
  match (ty, targets) with
  | Types.Slice _, _ -> Some Tast.Free_slice
  | Types.Map _, _ -> Some Tast.Free_map
  | Types.Ptr _, Config.All_pointers -> Some Tast.Free_obj
  | Types.Ptr _, Config.Slices_and_maps -> None
  | _ -> None

(* Does the expression mention variable [v]? *)
let mentions_var (v : Tast.var) (e : Tast.expr) =
  let found = ref false in
  Tast.iter_expr
    (fun e ->
      match e.Tast.desc with
      | Tast.Tvar v' when v'.Tast.v_id = v.Tast.v_id -> found := true
      | _ -> ())
    e;
  !found

let stmt_mentions_var v s =
  let found = ref false in
  Tast.iter_stmt_exprs (fun e -> if mentions_var v e then found := true) s;
  !found

(* Insert [free_stmts] at the end of [stmts], before a trailing control
   transfer.  Returns None when the insertion would be unsafe (the
   trailing statement still uses the variable). *)
let insert_seq_at_end (v : Tast.var) free_stmts stmts =
  let rec split_last acc = function
    | [] -> (List.rev acc, None)
    | [ last ] -> (List.rev acc, Some last)
    | s :: rest -> split_last (s :: acc) rest
  in
  match split_last [] stmts with
  | prefix, Some ((Tast.Sreturn _ | Tast.Spanic _) as last) ->
    if stmt_mentions_var v last then None
    else Some (prefix @ free_stmts @ [ last ])
  | prefix, Some ((Tast.Sbreak | Tast.Scontinue) as last) ->
    Some (prefix @ free_stmts @ [ last ])
  | _, Some _ | _, None -> Some (stmts @ free_stmts)

let insert_at_end v free_stmt stmts = insert_seq_at_end v [ free_stmt ] stmts

(* Find the block with scope id [scope] inside [b]. *)
let rec find_block (b : Tast.block) scope : Tast.block option =
  if b.Tast.b_scope = scope then Some b
  else begin
    let found = ref None in
    let check_block b' =
      if !found = None then found := find_block b' scope
    in
    List.iter
      (fun s ->
        match s with
        | Tast.Sif (_, b1, b2) ->
          check_block b1;
          Option.iter check_block b2
        | Tast.Sfor (_, _, _, body) -> check_block body
        | Tast.Sforrange_map (_, _, body) -> check_block body
        | Tast.Sblock b' -> check_block b'
        | _ -> ())
      b.Tast.b_stmts;
    !found
  end

(* ------------------------------------------------------------------ *)
(* Last-use placement (purely syntactic: identical on fresh analysis    *)
(* and on cache replay)                                                 *)
(* ------------------------------------------------------------------ *)

let func_has_defer_or_go (f : Tast.func) =
  let found = ref false in
  Tast.iter_stmts
    (fun s ->
      match s with
      | Tast.Sdefer _ | Tast.Sgo _ -> found := true
      | _ -> ())
    f.Tast.f_body;
  !found

(* Apply [f] to [s] and every statement nested inside it. *)
let rec iter_stmt_deep f (s : Tast.stmt) =
  f s;
  let block b = List.iter (iter_stmt_deep f) b.Tast.b_stmts in
  match s with
  | Tast.Sif (_, b1, b2) ->
    block b1;
    Option.iter block b2
  | Tast.Sfor (init, _, post, body) ->
    Option.iter (iter_stmt_deep f) init;
    Option.iter (iter_stmt_deep f) post;
    block body
  | Tast.Sforrange_map (_, _, body) -> block body
  | Tast.Sblock b -> block b
  | _ -> ()

(* The syntactic alias closure of [v]: every variable bound from an
   expression that mentions a member.  Over-approximates may-alias —
   arithmetic on a member also taints — which only delays the free. *)
let alias_closure (f : Tast.func) (v : Tast.var) : (int, unit) Hashtbl.t =
  let members = Hashtbl.create 8 in
  Hashtbl.replace members v.Tast.v_id ();
  let mentions_member e =
    let found = ref false in
    Tast.iter_expr
      (fun e ->
        match e.Tast.desc with
        | Tast.Tvar w when Hashtbl.mem members w.Tast.v_id -> found := true
        | _ -> ())
      e;
    !found
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let add (w : Tast.var) =
      if not (Hashtbl.mem members w.Tast.v_id) then begin
        Hashtbl.replace members w.Tast.v_id ();
        changed := true
      end
    in
    Tast.iter_stmts
      (fun s ->
        match s with
        | Tast.Sdecl (w, Some e) when mentions_member e -> add w
        | Tast.Smulti_decl (ws, e) when mentions_member e ->
          List.iter add ws
        | Tast.Sassign (Tast.Lvar w, e) when mentions_member e -> add w
        | Tast.Smulti_assign (lvs, e) when mentions_member e ->
          List.iter (function Tast.Lvar w -> add w | _ -> ()) lvs
        | _ -> ())
      f.Tast.f_body
  done;
  members

(* Does [s] (deeply) mention or bind any closure member? *)
let stmt_mentions_members members (s : Tast.stmt) =
  let found = ref false in
  let mem (w : Tast.var) = Hashtbl.mem members w.Tast.v_id in
  let check_e e =
    Tast.iter_expr
      (fun e ->
        match e.Tast.desc with
        | Tast.Tvar w when mem w -> found := true
        | _ -> ())
      e
  in
  iter_stmt_deep
    (fun s' ->
      Tast.iter_stmt_exprs check_e s';
      match s' with
      | Tast.Stcfree (w, _) when mem w -> found := true
      | Tast.Sdecl (w, _) when mem w -> found := true
      | Tast.Smulti_decl (ws, _) when List.exists mem ws -> found := true
      | Tast.Sforrange_map (w, _, _) when mem w -> found := true
      | Tast.Sassign (Tast.Lvar w, _) when mem w -> found := true
      | _ -> ())
    s;
  !found

(* A compiler temporary; the placeholder id is renumbered program-wide
   by {!assign_temp_ids}.  The name must be derived from the insertion
   itself (never from a counter): the names feed build fingerprints,
   which must not depend on the order functions are instrumented or
   replayed in. *)
let mk_temp ~name ~ty (block : Tast.block) (v : Tast.var) : Tast.var =
  {
    Tast.v_id = -1;
    v_name = name;
    v_ty = ty;
    v_decl_depth = block.Tast.b_depth;
    v_loop_depth = v.Tast.v_loop_depth;
    v_scope = block.Tast.b_scope;
    v_kind = Tast.Vlocal;
  }

let tvar_expr (v : Tast.var) : Tast.expr =
  { Tast.ty = v.Tast.v_ty; pos = Token.dummy_pos; desc = Tast.Tvar v }

(* Insert [free_stmts] after the last scope-level statement mentioning a
   closure member.  A trailing return that is the last use is hoisted
   into temporaries so the free runs after the return expression is
   evaluated but before control leaves the frame. *)
let insert_last_use members free_stmts (block : Tast.block)
    (v : Tast.var) stmts =
  let arr = Array.of_list stmts in
  let last = ref (-1) in
  Array.iteri
    (fun i s -> if stmt_mentions_members members s then last := i)
    arr;
  if !last < 0 then Some (stmts @ free_stmts)
  else if !last = Array.length arr - 1 then begin
    match arr.(!last) with
    | Tast.Sreturn es when es <> [] ->
      let prefix = Array.to_list (Array.sub arr 0 (!last)) in
      let temps =
        List.mapi
          (fun i (e : Tast.expr) ->
            mk_temp ~name:(Printf.sprintf "__ret%d" i) ~ty:e.Tast.ty block v)
          es
      in
      let decls = List.map2 (fun t e -> Tast.Sdecl (t, Some e)) temps es in
      Some
        (prefix @ decls @ free_stmts
        @ [ Tast.Sreturn (List.map tvar_expr temps) ])
    | Tast.Sreturn _ | Tast.Spanic _ -> None
    | Tast.Sbreak | Tast.Scontinue ->
      let prefix = Array.to_list (Array.sub arr 0 (!last)) in
      Some (prefix @ free_stmts @ [ arr.(!last) ])
    | _ -> Some (stmts @ free_stmts)
  end
  else begin
    let n = Array.length arr in
    let prefix = Array.to_list (Array.sub arr 0 (!last + 1)) in
    let suffix = Array.to_list (Array.sub arr (!last + 1) (n - !last - 1)) in
    Some (prefix @ free_stmts @ suffix)
  end

(* ------------------------------------------------------------------ *)
(* Free application (shared by fresh instrumentation and cache replay)  *)
(* ------------------------------------------------------------------ *)

(* One free to place: a whole variable, or one field slot of it. *)
type free_item = {
  fi_var : Tast.var;
  fi_field : (int * string * Types.t) option;
  fi_kind : Tast.free_kind;
}

(* The struct-field load [v.f] (through the pointer for pointer bases). *)
let field_load_expr (v : Tast.var) idx fname fty : Tast.expr =
  {
    Tast.ty = fty;
    pos = Token.dummy_pos;
    desc = Tast.Tfield (tvar_expr v, idx, fname);
  }

(** Place a list of frees in [f], in canonical order: field slots first
    (so the field load never reads an already-freed base object), then
    whole variables; each group by (base id, field index).  The same
    routine runs on fresh analysis results and on cache replay, so both
    paths place byte-identical statements. *)
let apply_frees (config : Config.t) (f : Tast.func)
    (items : free_item list) : inserted list =
  let last_use =
    config.Config.precision.Config.placement = Config.Last_use
    && not (func_has_defer_or_go f)
  in
  let rank it =
    ( (match it.fi_field with Some _ -> 0 | None -> 1),
      it.fi_var.Tast.v_id,
      match it.fi_field with Some (i, _, _) -> i | None -> -1 )
  in
  let items = List.sort (fun a b -> compare (rank a) (rank b)) items in
  List.filter_map
    (fun it ->
      let v = it.fi_var in
      match v.Tast.v_kind with
      | Tast.Vglobal -> None  (* globals live forever *)
      | Tast.Vparam | Tast.Vlocal | Tast.Vresult _ -> begin
        match find_block f.Tast.f_body v.Tast.v_scope with
        | None -> None
        | Some block -> begin
          let placed =
            match it.fi_field with
            | Some (idx, fname, fty) ->
              let tmp =
                mk_temp
                  ~name:
                    (Printf.sprintf "__free_%s_%s" v.Tast.v_name fname)
                  ~ty:fty block v
              in
              let stmts =
                [
                  Tast.Sdecl (tmp, Some (field_load_expr v idx fname fty));
                  Tast.Stcfree (tmp, it.fi_kind);
                ]
              in
              insert_seq_at_end v stmts block.Tast.b_stmts
            | None ->
              let free_stmt = Tast.Stcfree (v, it.fi_kind) in
              if last_use then
                insert_last_use (alias_closure f v) [ free_stmt ] block v
                  block.Tast.b_stmts
              else insert_at_end v free_stmt block.Tast.b_stmts
          in
          match placed with
          | None -> None
          | Some stmts ->
            block.Tast.b_stmts <- stmts;
            Some
              {
                ins_func = f.Tast.f_name;
                ins_var = v;
                ins_field =
                  Option.map (fun (i, n, _) -> (i, n)) it.fi_field;
                ins_kind = it.fi_kind;
              }
        end
      end)
    items

(* Field name and type of field [idx] of [v]'s (pointer-to-)struct
   type. *)
let resolve_field tenv (v : Tast.var) idx : (string * Types.t) option =
  let sname =
    match v.Tast.v_ty with
    | Types.Struct s | Types.Ptr (Types.Struct s) -> Some s
    | _ -> None
  in
  Option.bind sname (fun s ->
      List.nth_opt (Types.struct_fields tenv s) idx)

(** Instrument one function in place; returns the inserted frees. *)
let instrument_function ~tenv (analysis : Gofree_escape.Analysis.t)
    (config : Config.t) (f : Tast.func) : inserted list =
  if not config.Config.insert_tcfree then []
  else begin
    let var_items =
      List.filter_map
        (fun ((v : Tast.var), _loc) ->
          Option.map
            (fun kind -> { fi_var = v; fi_field = None; fi_kind = kind })
            (free_kind_of_type config.Config.targets v.Tast.v_ty))
        (Gofree_escape.Analysis.to_free_vars analysis ~func:f.Tast.f_name)
    in
    let field_items =
      if not config.Config.precision.Config.field_sensitive then []
      else
        List.filter_map
          (fun ((v : Tast.var), idx, fname, _slot) ->
            match resolve_field tenv v idx with
            | Some (fname', fty) when fname' = fname ->
              Option.map
                (fun kind ->
                  { fi_var = v; fi_field = Some (idx, fname, fty);
                    fi_kind = kind })
                (free_kind_of_type config.Config.targets fty)
            | _ -> None)
          (Gofree_escape.Analysis.to_free_fields analysis
             ~func:f.Tast.f_name)
    in
    apply_frees config f (field_items @ var_items)
  end

(** Renumber the [-1] placeholder ids of instrumentation temporaries,
    scanning functions in program order — deterministic however the
    per-package instrumentation was scheduled — and grow
    [p.p_nvars] so frame layouts size their slot tables correctly.
    Idempotent. *)
let assign_temp_ids (p : Tast.program) =
  let next = ref p.Tast.p_nvars in
  List.iter
    (fun (f : Tast.func) ->
      Tast.iter_stmts
        (fun s ->
          match s with
          | Tast.Sdecl (v, _) when v.Tast.v_id < 0 ->
            v.Tast.v_id <- !next;
            incr next
          | _ -> ())
        f.Tast.f_body)
    p.Tast.p_funcs;
  p.Tast.p_nvars <- !next

(** Instrument a whole program in place. *)
let instrument (analysis : Gofree_escape.Analysis.t) (config : Config.t)
    (p : Tast.program) : inserted list =
  let ins =
    List.concat_map
      (instrument_function ~tenv:p.Tast.p_tenv analysis config)
      p.Tast.p_funcs
  in
  assign_temp_ids p;
  ins

(* All variables declared anywhere in a function (params included). *)
let func_vars (f : Tast.func) : Tast.var list =
  let acc = ref (List.rev f.Tast.f_params) in
  Tast.iter_stmts
    (fun s ->
      match s with
      | Tast.Sdecl (v, _) -> acc := v :: !acc
      | Tast.Smulti_decl (vs, _) -> acc := List.rev_append vs !acc
      | Tast.Sforrange_map (v, _, _) -> acc := v :: !acc
      | _ -> ())
    f.Tast.f_body;
  List.rev !acc

(** Re-apply recorded frees to a freshly typechecked function — the
    cache-hit path of the incremental build driver, which has the
    (variable id, field index, kind) triples from a previous run but no
    analysis ([field < 0] means a whole-variable free).  The same
    placement rules run again under the same configuration, so the
    result is exactly what {!instrument_function} produced
    originally. *)
let replay_function ~tenv ~(config : Config.t) (f : Tast.func)
    (frees : (int * int * Tast.free_kind) list) : inserted list =
  let vars = func_vars f in
  let items =
    List.filter_map
      (fun (var_id, fidx, kind) ->
        match
          List.find_opt (fun (v : Tast.var) -> v.Tast.v_id = var_id) vars
        with
        | None -> None
        | Some v ->
          if fidx < 0 then
            Some { fi_var = v; fi_field = None; fi_kind = kind }
          else
            Option.map
              (fun (fname, fty) ->
                { fi_var = v; fi_field = Some (fidx, fname, fty);
                  fi_kind = kind })
              (resolve_field tenv v fidx))
      frees
  in
  apply_frees config f items
