(** Function summaries: Go's parameter tags extended with GoFree's content
    tags (paper §4.4).

    A summary compresses a callee's escape graph into:
    - flows from each parameter to each return value (with [MinDerefs]
      weights), and from each parameter to the heap — Go's parameter tag;
    - per return value, a content tag recording whether the returned value
      may point at a fresh heap allocation ([ct_heap_alloc], from the
      callee's [PointsToHeap]) and whether its points-to set may be
      incomplete because of indirect stores {e inside the callee}
      ([ct_incomplete]); plus the return value's own store-origin
      incompleteness ([ret_incomplete], the paper's
      [Incomplete(l) = Incomplete(m)] adjustment).

    The [default] summary is used for unknown callees (recursion, §4.4):
    all parameters flow to the heap, all return values come from the heap
    with incomplete points-to sets. *)

type param_flow = {
  pf_param : int;  (** parameter index *)
  pf_target : [ `Return of int | `Heap | `Defer | `Param_field of int * int ];
      (** [`Param_field (i, f)]: the flow lands in field [f] of the
          object parameter [i] refers to (field-sensitive mode only) *)
  pf_derefs : int;  (** MinDerefs along the compressed edge *)
}

(** Field-projected fact about one parameter's field slot
    (field-sensitive mode): everything a caller must replay onto the
    matching field location of its argument variable. *)
type field_fact = {
  ff_param : int;  (** parameter index of the base object *)
  ff_field : int;  (** field index within the base struct *)
  ff_heap : bool;
      (** the slot may point at a fresh callee heap allocation — a
          deallocation opportunity for the caller *)
  ff_content_incomplete : bool;
      (** the pointed-at content's cells may hold untracked values
          (indirect stores inside the callee) *)
  ff_slot_incomplete : bool;
      (** the slot itself may be written through an untracked path
          inside the callee (its address leaked) *)
}

type content_tag = {
  ct_heap_alloc : bool;
      (** the return value may point at a heap allocation made by the
          callee: a deallocation opportunity for the caller *)
  ct_incomplete : bool;
      (** indirect stores inside the callee may have put untracked values
          behind this return value *)
  ret_incomplete : bool;
      (** store-origin incompleteness of the return value itself *)
}

type t = {
  s_name : string;
  s_nparams : int;
  s_flows : param_flow list;
  s_contents : content_tag array;  (** one per return value *)
  s_fields : field_fact list;
      (** field-projected parameter facts; always empty outside
          field-sensitive mode *)
}

(** Conservative summary for an unknown callee. *)
let default ~name ~nparams ~nresults =
  {
    s_name = name;
    s_nparams = nparams;
    s_flows =
      List.init nparams (fun i ->
          { pf_param = i; pf_target = `Heap; pf_derefs = 0 });
    s_contents =
      Array.init nresults (fun _ ->
          { ct_heap_alloc = true; ct_incomplete = true;
            ret_incomplete = true });
    s_fields = [];
  }

(* -------------------------------------------------------------- *)
(* Serialization (paper §4.4: a callee's extended parameter tag is
   everything a caller needs, which is what makes separate compilation
   possible — the build driver stores these per package, and the
   analysis unit keys digest each callee's [encode]d record).        *)
(* -------------------------------------------------------------- *)

let write w s =
  let open Codec in
  w_str w s.s_name;
  w_int w s.s_nparams;
  w_list w
    (fun w f ->
      w_int w f.pf_param;
      (match f.pf_target with
      | `Return i ->
        w_int w 0;
        w_int w i
      | `Heap -> w_int w 1
      | `Defer -> w_int w 2
      | `Param_field (i, fld) ->
        w_int w 3;
        w_int w i;
        w_int w fld);
      w_int w f.pf_derefs)
    s.s_flows;
  w_list w
    (fun w ct ->
      w_bool w ct.ct_heap_alloc;
      w_bool w ct.ct_incomplete;
      w_bool w ct.ret_incomplete)
    (Array.to_list s.s_contents);
  w_list w
    (fun w ff ->
      w_int w ff.ff_param;
      w_int w ff.ff_field;
      w_bool w ff.ff_heap;
      w_bool w ff.ff_content_incomplete;
      w_bool w ff.ff_slot_incomplete)
    s.s_fields

let encode s =
  let w = Codec.writer ~size:64 () in
  write w s;
  Codec.contents w

(* Each field is bound in writing order: OCaml does not evaluate a
   record's fields in order. *)
let read r =
  let open Codec in
  let s_name = r_str r in
  let s_nparams = r_int r in
  let s_flows =
    r_list r (fun r ->
        let pf_param = r_int r in
        let pf_target =
          match r_int r with
          | 0 -> `Return (r_int r)
          | 1 -> `Heap
          | 2 -> `Defer
          | 3 ->
            let i = r_int r in
            `Param_field (i, r_int r)
          | _ -> raise Malformed
        in
        { pf_param; pf_target; pf_derefs = r_int r })
  in
  let s_contents =
    r_list r (fun r ->
        let ct_heap_alloc = r_bool r in
        let ct_incomplete = r_bool r in
        { ct_heap_alloc; ct_incomplete; ret_incomplete = r_bool r })
  in
  let s_fields =
    r_list r (fun r ->
        let ff_param = r_int r in
        let ff_field = r_int r in
        let ff_heap = r_bool r in
        let ff_content_incomplete = r_bool r in
        { ff_param; ff_field; ff_heap; ff_content_incomplete;
          ff_slot_incomplete = r_bool r })
  in
  { s_name; s_nparams; s_flows; s_contents = Array.of_list s_contents;
    s_fields }

let pp fmt s =
  let target_str = function
    | `Return i -> Printf.sprintf "return%d" i
    | `Heap -> "heapLoc"
    | `Defer -> "deferLoc"
    | `Param_field (i, f) -> Printf.sprintf "param%d.field%d" i f
  in
  Format.fprintf fmt "@[<v 2>summary %s:" s.s_name;
  List.iter
    (fun f ->
      Format.fprintf fmt "@,param%d --%d--> %s" f.pf_param f.pf_derefs
        (target_str f.pf_target))
    s.s_flows;
  Array.iteri
    (fun i ct ->
      Format.fprintf fmt
        "@,content%d: heap_alloc=%b incomplete=%b ret_incomplete=%b" i
        ct.ct_heap_alloc ct.ct_incomplete ct.ret_incomplete)
    s.s_contents;
  List.iter
    (fun ff ->
      Format.fprintf fmt
        "@,param%d.field%d: heap=%b content_incomplete=%b \
         slot_incomplete=%b"
        ff.ff_param ff.ff_field ff.ff_heap ff.ff_content_incomplete
        ff.ff_slot_incomplete)
    s.s_fields;
  Format.fprintf fmt "@]"
