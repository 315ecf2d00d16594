(** Static layout of a program for the slot-resolved interpreter:
    variable ids → dense frame/global slots, function names → interned
    integer ids.  Computed once per run; shared by the reference
    tree-walker and the bytecode emitter. *)

open Minigo

type t = {
  l_funcs : Tast.func array;  (** function bodies, by interned id *)
  l_func_ids : (string, int) Hashtbl.t;
      (** name → id; duplicates keep the last definition *)
  l_nslots : int array;  (** frame slots needed, by function id *)
  l_slots : int array;
      (** variable id → frame slot (locals) or global slot (globals);
          [-1] for ids never mentioned by the program *)
  l_nglobals : int;
}

val of_program : Tast.program -> t

(** Interned id of a function name, if defined. *)
val func_id : t -> string -> int option

(** The resolved slot of a variable (frame slot for locals/params,
    global slot for globals). *)
val slot : t -> Tast.var -> int
