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

(** A map's bucket array, flat: bucket [b] holds [bk_n.(b)] entries in
    [bk_kv.(b)], oldest first, each a key at [2j] and its value at
    [2j + 1]; slots past them are spare capacity.  Every bucket that
    never held an entry shares one empty array.  Iteration order is the
    buckets in index order, each newest entry first. *)
type buckets = { bk_n : int array; bk_kv : value array array }

type Gofree_runtime.Heap.payload +=
  | Pcells of value array
      (** slice backing store, or a box (whose payload is its own cell) *)
  | Pmap of map_data
  | Pbuckets of buckets

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

(** The pool {!vint} draws from: [small_ints.(n)] is [VInt n] for
    [0 <= n < Array.length small_ints]. *)
val small_ints : value array

(** [VBool b], one of two shared boxes; invisible for the same reason. *)
val vbool : bool -> value

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

(** {2 Map buckets}

    None of these allocates except when a bucket outgrows its
    capacity. *)

(** [n] empty buckets. *)
val make_buckets : int -> buckets

(** The bucket a key hashes to. *)
val bucket_index : buckets -> value -> int

(** [bucket_find bk b key]: the slot of [key]'s entry in bucket [b], or
    [-1]. *)
val bucket_find : buckets -> int -> value -> int

(** The value at a slot of a bucket. *)
val bucket_value : buckets -> int -> int -> value

(** Overwrite the value at a slot; the entry keeps its key and place. *)
val bucket_set : buckets -> int -> int -> value -> unit

(** Add an entry for a key the bucket does not hold, as its newest. *)
val bucket_add : buckets -> int -> value -> value -> unit

(** Drop the entry at a slot, keeping the others in order. *)
val bucket_remove : buckets -> int -> int -> unit

(** [rehash old n]: [old]'s entries in [n] buckets, each moved in
    iteration order and becoming the newest of its new bucket. *)
val rehash : buckets -> int -> buckets

(** Every key, in iteration order. *)
val bucket_keys : buckets -> value list

(** Deterministic textual form for [println] (addresses hidden so output
    is identical across compiler settings). *)
val to_string : value -> string
