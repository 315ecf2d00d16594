(** Runtime values of MiniGo and their payload representation inside the
    simulated heap.

    Mutable storage comes in three layouts, chosen by a slice's element
    type alone.  A [[]int] backing store is a bare [int array]
    ({!VIslice}).  A slice of structs with [w] fields is one flat [value
    array] with [w] slots per element ([s_w = w]): growth is one
    allocation and a slot copy, and spare capacity holds zero slots.
    Every other slice's backing store is a [value array] holding one
    element per slot ([s_w = 0]).  A struct value is a [value array]
    holding its fields directly, a nested struct as a {!VStruct} inside
    its parent's array or slot; a frame variable or heap box is a
    {!cell}, a one-element array.  A store whose element type has no
    pointer, slice or map anywhere in it is Go's pointer-free "noscan"
    object ({!Pints}, {!Pnoscan}): the simulated mark does not trace it
    and the host GC finds no simulated address in it.  A pointer is an
    (owner object, array, slot) triple — {!ptr} into a value array, a
    struct's fields included, {!eptr} to a struct element of a flat
    store, {!iptr} into an int store — so the GC can keep the owning
    heap object alive while the interpreter mutates through the array
    directly.  Storing a whole
    struct into a location that holds one writes into that location
    ({!store}, {!store_struct}), so field pointers taken before the
    store stay valid, as in Go.  A map's buckets are typed the same way,
    by its static key and value types ({!buckets}).  Every reference
    holds its heap object's record, never an address to look up. *)

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
  | VEptr of eptr  (** pointer to a struct element of a flat store *)
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
  p_idx : int;  (** the slot of [p_arr] pointed at *)
}

and eptr = {
  e_owner : Heap.obj;  (** the flat store's backing-array object *)
  e_arr : value array;  (** the flat store *)
  e_base : int;  (** the slot of the element's first field *)
  e_w : int;  (** the element's field count *)
}

and iptr = {
  ip_owner : Heap.obj;  (** the int store's backing-array object *)
  ip_ints : int array;
  ip_idx : int;
}

and slice = {
  s_obj : Heap.obj;  (** backing-array object *)
  s_cells : value array;  (** shared backing store *)
  s_w : int;
      (** 0: one element per slot; [w > 0]: struct elements of [w]
          fields, [w] slots each *)
  s_off : int;  (** view offset into the backing array, in elements *)
  s_len : int;  (** view length, in elements; capacity: {!cap} *)
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

(** The column a map's keys live in, fixed by the map's static key
    type. *)
type key_kind = Kint | Kbool | Kstr | Kval

(** The column a map's values live in, fixed by its static value type. *)
type val_kind = Vint | Vbool | Vval

(** A map's buckets, in columns typed by its key and value kinds.
    Bucket [b] holds [bk_n.(b)] entries, oldest first.  Entry [j] has
    [bk_wi] words at [bk_wi * j] of the int column [bk_i.(b)]: its key's
    hash, then the key when it is an int or bool, then the value when it
    is one; a string key at [j] of [bk_s.(b)]; and [bk_wv] slots at
    [bk_wv * j] of [bk_v.(b)]: the key when it is neither, then the value
    when it is not an int or bool.  Every column of a bucket has room
    for the same number of entries; a bucket that never held an entry
    shares one empty array per column.  Iteration order is the buckets
    in index order, each newest entry first. *)
type buckets = {
  bk_key : key_kind;
  bk_val : val_kind;
  bk_wi : int;  (** int-column words per entry *)
  bk_wv : int;  (** value-column slots per entry *)
  bk_n : int array;
  bk_i : int array array;
  bk_s : string array array;  (** [[||]] unless the keys are strings *)
  bk_v : value array array;  (** [[||]] when [bk_wv = 0] *)
}

type Heap.payload +=
  | Pcells of value array
      (** a scanned slice backing store, or a box (whose payload is its
          own cell) *)
  | Pnoscan of value array
      (** a value store whose element type holds no address: never
          traced, poisoned on free *)
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

(** [load_struct a base w]: the struct whose [w] fields are the slots of
    [a] from [base], as a fresh struct, each field poison-checked and
    {!copy}'d. *)
val load_struct : value array -> int -> int -> value

(** [store_struct a base v]: write the fields of struct [v] into the
    slots of [a] from [base] with {!store}, so pointers into them stay
    valid. *)
val store_struct : value array -> int -> value -> unit

(** The slot of element [i] of a value slice: a struct element's first
    field's in a flat store. *)
val elem_slot : slice -> int -> int

(** A value slice's capacity, in elements. *)
val cap : slice -> int

(** Element [i] of a value slice, poison-checked; a flat store's struct
    element as a fresh struct. *)
val slice_elem : slice -> int -> value

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

(** A fresh backing store: a value store's slots, its flat struct
    width (0 for one element per slot) and whether the mark scans it;
    or an int store. *)
type store = Vals of value array * int * bool | Ints of int array

(** [make_store n zero_of]: a backing store of [n] zero values, an int
    store exactly when the zero is [VInt 0], flat when it is a struct
    with fields, scanned exactly when the zero holds a [VNil] (its type
    has a pointer, slice or map in it). *)
val make_store : int -> (unit -> value) -> store

(** [grown_store z old old_slot old_len elems off n cap]: a fresh value
    store of [cap] elements in the layout of the element zero [z]: the
    [old_len] elements of [old] from slot [old_slot], each slot
    poison-checked and {!copy}'d, then the [n] fresh values of [elems]
    from [off], which it takes over, then zero elements (a struct's
    fields slot by slot, a nested struct a fresh copy each). *)
val grown_store :
  value -> value array -> int -> int -> value array -> int -> int -> int ->
  store

(** [set_elem s i v]: Go's [s[i] = v] in a value slice's store, [i] in
    bounds: {!store} into its slot, or {!store_struct} into a flat
    store's element. *)
val set_elem : slice -> int -> value -> unit

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

(** Payload tracer registered with the heap; false for a payload it
    does not walk (a noscan store), which the GC's scan-work count
    leaves out. *)
val trace_payload : Heap.payload -> (Heap.obj -> unit) -> bool

(** Poison-mode payload corruption: every owned element becomes
    [VPoison], the fields of a struct element included, or {!poison_int}
    in an int store. *)
val poison_payload : Heap.payload -> unit

(** Structural equality for map keys. *)
val equal_key : value -> value -> bool

val hash_key : value -> int

(** {2 Map buckets}

    A probe compares an entry's stored hash ({!hash_key} of its key)
    before its key; growth moves entries by their stored hashes.  None
    of these allocates except when a bucket outgrows its capacity.  A
    bucket index must come from {!bucket_of}: the per-bucket arrays are
    read unchecked.  A slot access is bounded by the array it touches,
    so under a racing writer a slot can read as absent or a write be
    lost, but nothing raises. *)

(** The key column of a map whose static key type is the given one: an
    int or bool key is an int-column word, a string key a string, any
    other key a value. *)
val key_kind : Minigo.Types.t -> key_kind

(** The value column of a map whose static value type is the given one:
    an int or bool value is an int-column word, any other a value. *)
val val_kind : Minigo.Types.t -> val_kind

(** [make_buckets key value n]: [n] empty buckets with those columns. *)
val make_buckets : key_kind -> val_kind -> int -> buckets

(** The bucket of a key hash; bucket counts are powers of two. *)
val bucket_of : buckets -> int -> int

(** [find bk b h key]: the slot of [key], whose hash is [h], in bucket
    [b], newest entry first, or [-1]. *)
val find : buckets -> int -> int -> value -> int

(** [find_int bk b h k]: {!find} for a map with int or bool keys, the key
    given as its int-stack word. *)
val find_int : buckets -> int -> int -> int -> int

(** [value_at bk b j zero]: the value at a slot, or [zero ()] for a
    slot a racing writer emptied. *)
val value_at : buckets -> int -> int -> (unit -> value) -> value

(** The value at a slot as an int-stack word (an int, or a bool as 0/1). *)
val int_at : buckets -> int -> int -> int

(** Overwrite the value at a slot; the entry keeps its key and place. *)
val set_value : buckets -> int -> int -> value -> unit

(** {!set_value} with an int-stack word. *)
val set_int : buckets -> int -> int -> int -> unit

(** [add bk b h]: the slot of a new entry in bucket [b] for a key with
    hash [h], with its hash written and room ensured in every column.
    The caller writes the key ({!set_key}, {!set_key_int}) and the value,
    then {!commit}s the entry, which becomes the bucket's newest. *)
val add : buckets -> int -> int -> int

val set_key : buckets -> int -> int -> value -> unit

(** {!set_key} with an int or bool key as its int-stack word. *)
val set_key_int : buckets -> int -> int -> int -> unit

(** [commit bk b j]: count the entry written at slot [j] of bucket [b]. *)
val commit : buckets -> int -> int -> unit

(** Drop the entry at a slot, keeping the others in order. *)
val remove : buckets -> int -> int -> unit

(** [rehash old n]: [old]'s entries in [n] buckets, each moved in
    iteration order by its stored hash and becoming the newest of its new
    bucket.  Each new bucket's columns are allocated once, with room for
    twice the entries it receives. *)
val rehash : buckets -> int -> buckets

(** Every key, in iteration order. *)
val bucket_keys : buckets -> value list

(** [itoa n] is [string_of_int n], built by a digit loop. *)
val itoa : int -> string

(** Deterministic textual form for [println] (addresses hidden so output
    is identical across compiler settings).  Int-store elements are
    poison-checked against [heap] when it is given. *)
val to_string : ?heap:Heap.t -> value -> string
