(** Runtime values of MiniGo and their payload representation inside the
    simulated heap.

    Mutable storage comes in two kinds, chosen by a slice's element type
    alone.  A [[]int] backing store is a bare [int array] ({!VIslice}),
    Go's pointer-free "noscan" object: the simulated mark does not trace
    it and the host GC finds no pointer in it.  Every other slice's
    backing store is a [value array] holding its elements directly; a
    struct value is a [value array] holding its fields directly, a nested
    struct as a {!VStruct} inside its parent's array; and a frame variable
    or heap box is a {!cell}, a one-element array.  A pointer is an
    (owner object, array, index) triple — {!ptr} into a value array, a
    struct's fields included, {!iptr} into an int store — so the GC can
    keep the owning heap object alive while the interpreter mutates
    through the array directly.  Storing a whole struct into a location
    that holds one writes into that struct's array ({!store}), so field
    pointers taken before the store stay valid, as in Go.  Every
    reference holds its heap object's record, never an address to look
    up. *)

module Heap := Gofree_runtime.Heap

type value =
  | VUnit
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VStr of string
  | VNil
  | VPtr of ptr
  | VIptr of iptr  (** pointer to an element of an int store *)
  | VSlice of slice
  | VIslice of {
      i_obj : Heap.obj;  (** backing-array object *)
      i_ints : int array;  (** shared unboxed backing store *)
      i_off : int;
      i_len : int;  (** capacity = Array.length i_ints − i_off *)
    }  (** a [[]int]: its store is unboxed; the header is inline *)
  | VMap of Heap.obj  (** the map header object *)
  | VStruct of value array
      (** the fields, inline; value semantics: each location holds its
          own array *)
  | VTuple of value list  (** multi-value call result *)
  | VPoison  (** contents of mock-freed memory (§6.8) *)

and cell = value array  (** always exactly one element *)

and ptr = {
  p_owner : Heap.obj;
      (** heap/stack object owning the storage; {!Heap.no_obj} for a
          frame slot *)
  p_arr : value array;
      (** a cell, a slice backing store or a struct's fields *)
  p_idx : int;  (** the element of [p_arr] pointed at *)
}

and iptr = {
  ip_owner : Heap.obj;  (** the int store's backing-array object *)
  ip_ints : int array;
  ip_idx : int;
}

and slice = {
  s_obj : Heap.obj;  (** backing-array object *)
  s_cells : value array;  (** shared backing store, one element each *)
  s_off : int;  (** view offset into the backing array *)
  s_len : int;  (** view length; capacity = Array.length s_cells − s_off *)
}

type map_data = {
  mutable md_buckets : Heap.obj;  (** {!Heap.no_obj} once poisoned *)
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

type Heap.payload +=
  | Pcells of value array
      (** slice backing store, or a box (whose payload is its own cell) *)
  | Pints of int array  (** int-slice backing store: pointer-free *)
  | Pmap of map_data
  | Pbuckets of buckets

exception Corruption of string
(** read of poisoned memory: a wrong explicit free was observed *)

val cell : value -> cell

(** Raw (unchecked, poison-blind) read of a cell. *)
val get : cell -> value

(** A pointer to a whole cell owned by the given object. *)
val cell_ptr : Heap.obj -> cell -> ptr

(** [field_ptr owner fields i]: a pointer to field [i] of a struct whose
    field array is [fields], inside storage owned by [owner]. *)
val field_ptr : Heap.obj -> value array -> int -> value

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

(** {2 Int stores}

    Poison mode fills a freed int store with {!poison_int}.  Reading that
    number is a read of freed memory exactly when the store's owner is
    freed; a live store may hold it, and a freed element written since
    holds what was written. *)

val poison_int : int

(** [read_int heap owner ints i]: element [i] of the int store owned by
    [owner]; raises {!Corruption} on a freed element. *)
val read_int : Heap.t -> Heap.obj -> int array -> int -> int

(** [check_int heap owner]: raise {!Corruption} when poison mode is on
    and [owner] has been freed — what {!read_int} does on reading
    {!poison_int}, for a caller that read the element itself. *)
val check_int : Heap.t -> Heap.obj -> unit

(** Read through an int pointer, poison-checked like {!read_int}. *)
val read_iptr : Heap.t -> iptr -> int

(** A fresh backing store. *)
type store = Cells of value array | Ints of int array

(** [make_store n zero_of]: a backing store of [n] zero values, an int
    store exactly when the zero is [VInt 0]; one fresh struct per element
    when the zero is a struct. *)
val make_store : int -> (unit -> value) -> store

(** [fill_zero cells from z]: set the elements of [cells] from [from] on
    to the zero [z], a fresh copy each when [z] is a struct, else [z]
    itself. *)
val fill_zero : value array -> int -> value -> unit

val store_payload : store -> Heap.payload

(** [slice_of obj store len]: the slice over the first [len] elements of
    a store owned by [obj]. *)
val slice_of : Heap.obj -> store -> int -> value

(** The object owning the storage a value reaches: a pointer's owner, a
    value slice's backing array, else {!Heap.no_obj}.  It names the owner
    of a pointer made into a nested struct field. *)
val owner_of : value -> Heap.obj

(** Assignment copy: deep for struct values, identity otherwise. *)
val copy : value -> value

(** [store a i v]: Go's assignment of [v] to element [i] of [a].  When
    the element holds a struct, [v]'s fields are written into that
    struct's own array, nested structs in place too, so pointers into it
    stay valid; otherwise the element becomes a {!copy} of [v]. *)
val store : value array -> int -> value -> unit

(** Zero value of a type (Go semantics). *)
val zero : Minigo.Types.env -> Minigo.Types.t -> value

(** Objects referenced by a value (GC tracing). *)
val trace : value -> (Heap.obj -> unit) -> unit

(** Payload tracer registered with the heap; an int store is not
    traced. *)
val trace_payload : Heap.payload -> (Heap.obj -> unit) -> unit

(** Poison-mode payload corruption: every owned element becomes
    [VPoison], the fields of a struct element included, or {!poison_int}
    in an int store. *)
val poison_payload : Heap.payload -> unit

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
    is identical across compiler settings).  Int-store elements are
    poison-checked against [heap] when it is given. *)
val to_string : ?heap:Heap.t -> value -> string
