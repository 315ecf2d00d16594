(** Function summaries: Go's parameter tags extended with GoFree's
    content tags (paper §4.4). *)

(** A compressed dataflow from one parameter to a return value, the
    heap, the defer sink, or (field-sensitive mode) a field slot of
    another parameter's object, with the [MinDerefs] weight along the
    path. *)
type param_flow = {
  pf_param : int;
  pf_target : [ `Return of int | `Heap | `Defer | `Param_field of int * int ];
  pf_derefs : int;
}

(** Field-projected fact about one parameter's field slot
    (field-sensitive mode): what the callee did to field [ff_field] of
    the object parameter [ff_param] refers to. *)
type field_fact = {
  ff_param : int;
  ff_field : int;
  ff_heap : bool;
      (** the slot may point at a fresh callee heap allocation *)
  ff_content_incomplete : bool;
      (** the callee wrote through the slot's value: the pointed-at
          object's cells are incomplete *)
  ff_slot_incomplete : bool;
      (** the slot's address leaked inside the callee: the slot itself
          may be rewritten through untracked paths *)
}

(** Per-return-value content tag: what the caller may assume about the
    object the return value points at. *)
type content_tag = {
  ct_heap_alloc : bool;
      (** the return value may point at a callee heap allocation — a
          deallocation opportunity for the caller *)
  ct_incomplete : bool;
      (** indirect stores inside the callee compromised the points-to
          set; the caller must not free through this value *)
  ret_incomplete : bool;
      (** store-origin incompleteness of the return value itself (the
          paper's [Incomplete(l) = Incomplete(m)] adjustment) *)
}

type t = {
  s_name : string;
  s_nparams : int;
  s_flows : param_flow list;
  s_contents : content_tag array;
  s_fields : field_fact list;
      (** always empty outside field-sensitive mode *)
}

(** Conservative tag for an unknown callee (recursion, §4.4): parameters
    flow to the heap, returns come from the heap, incomplete. *)
val default : name:string -> nparams:int -> nresults:int -> t

(** Serialization, the paper's separate-compilation story (§4.4): a
    callee's stored tag is all a caller's analysis needs.  The build
    cache stores summaries in the binary encoding of {!Codec}: [read]
    accepts exactly what [write] produces and raises {!Codec.Malformed}
    (or [Invalid_argument] past the end of its input) on anything else.
    [encode] is one summary's record with a string table of its own:
    equal summaries give equal bytes, which the analysis unit keys
    digest. *)

val write : _ Codec.w -> t -> unit

val read : _ Codec.r -> t

val encode : t -> string

val pp : Format.formatter -> t -> unit
