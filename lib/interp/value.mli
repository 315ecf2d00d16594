(** Runtime values of MiniGo and their payload representation inside the
    simulated heap.

    Mutable storage is a flat [value array]: a slice's backing store
    holds its elements directly, and every other mutable location is a
    {!cell}, a one-element array.  A pointer is an (owner address, array,
    index) triple so the GC can keep the owning heap object alive while
    the interpreter mutates through the array directly. *)

type value =
  | VUnit
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VStr of string
  | VNil
  | VPtr of ptr
  | VSlice of slice
  | VMap of int  (** address of the map header object *)
  | VStruct of cell array  (** value semantics: copied on assignment *)
  | VTuple of value list  (** multi-value call result *)
  | VPoison  (** contents of mock-freed memory (§6.8) *)

and cell = value array  (** always exactly one element *)

and ptr = {
  p_owner : int;  (** heap/stack object owning the storage; 0 = frame slot *)
  p_arr : value array;  (** a cell, or a slice backing store *)
  p_idx : int;  (** the element of [p_arr] pointed at *)
}

and slice = {
  s_addr : int;  (** backing-array object *)
  s_cells : value array;  (** shared backing store, one element each *)
  s_off : int;  (** view offset into the backing array *)
  s_len : int;  (** view length; capacity = Array.length s_cells − s_off *)
}

type map_data = {
  mutable md_buckets : int;
  mutable md_nbuckets : int;
  mutable md_count : int;
  md_entry_size : int;
  mutable md_version : int;
      (** bumped on every store/delete/grow/free; invalidates the
          bytecode engine's map-site inline caches *)
}

type Gofree_runtime.Heap.payload +=
  | Pcells of value array
      (** slice backing store, or a box (whose payload is its own cell) *)
  | Pmap of map_data
  | Pbuckets of (value * value) list array

exception Corruption of string
(** read of poisoned memory: a wrong explicit free was observed *)

val cell : value -> cell

(** Raw (unchecked, poison-blind) read and write of a cell. *)
val get : cell -> value

val set : cell -> value -> unit

(** A pointer to a whole cell owned by the object at the given address. *)
val cell_ptr : int -> cell -> ptr

(** Write through a pointer. *)
val ptr_set : ptr -> value -> unit

(** [VInt n], from a shared pool of boxes when [n] is small.  [VInt] is
    immutable and compared structurally everywhere, so sharing is
    invisible; small ints dominate cell stores. *)
val vint : int -> value

(** Read a cell; raises {!Corruption} on poison. *)
val read_cell : cell -> value

(** Read element [i] of a backing store; raises {!Corruption} on poison. *)
val read_elem : value array -> int -> value

(** Read through a pointer; raises {!Corruption} on poison. *)
val read_ptr : ptr -> value

(** [make_store n zero_of]: a backing store of [n] zero values, one
    fresh struct per element when the zero is a struct. *)
val make_store : int -> (unit -> value) -> value array

(** Assignment copy: deep for struct values, identity otherwise. *)
val copy : value -> value

(** Zero value of a type (Go semantics). *)
val zero : Minigo.Types.env -> Minigo.Types.t -> value

(** Heap addresses referenced by a value (GC tracing). *)
val trace : value -> (int -> unit) -> unit

(** Payload tracer registered with the heap. *)
val trace_payload : Gofree_runtime.Heap.payload -> (int -> unit) -> unit

(** Poison-mode payload corruption: every owned element becomes [VPoison]. *)
val poison_payload : Gofree_runtime.Heap.payload -> unit

(** Structural equality for map keys. *)
val equal_key : value -> value -> bool

val hash_key : value -> int

(** Deterministic textual form for [println] (addresses hidden so output
    is identical across compiler settings). *)
val to_string : value -> string
