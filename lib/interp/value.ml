(** Runtime values of MiniGo and their payload representation inside the
    simulated heap.

    Mutable storage comes in three layouts, chosen by a slice's element
    type alone.  A [[]int] backing store is a bare [int array]
    ({!VIslice}): its elements are unboxed words.  A slice of structs
    with [w] fields is one flat [value array] with [w] slots per element
    ({!slice} with [s_w = w]): element [i]'s fields sit at [w * i ..],
    so growth is one allocation and a slot copy, and spare capacity
    holds zero slots.  Any other slice's store is a [value array]
    holding one element per slot ([s_w = 0]).  A struct value is a
    [value array] holding its fields directly (a nested struct field is
    a {!VStruct} inside its parent's array or slot), and a frame
    variable or heap box is a {!cell}, a one-element array.

    Whether the simulated mark walks a store is decided by the element
    type at allocation: a type with no pointer, slice or map anywhere in
    it — the types whose zero value holds no [VNil] — is Go's "noscan"
    object ({!Pints}, {!Pnoscan}), which {!trace_payload} never walks
    and poison mode still fills.

    A pointer is an (owner object, array, slot) triple — {!ptr} into a
    value array, {!iptr} into an int store — so [&s[i]], [&local],
    [&x.f], [new(T)] and [&T{}] all dereference in one array access
    while the GC keeps the owning heap object alive.  A pointer to a
    struct element of a flat store is an {!eptr}, the element's first
    slot and its width; a field pointer into a flat store is an ordinary
    {!ptr} to the field's slot.
    A map's buckets are typed the same way, by its static key and value
    types ({!buckets}): int and bool keys and values as words of an
    [int array], string keys in a [string array], the rest as values.

    Struct values have Go's value semantics: a declaration, a parameter,
    a result and a map or literal element each hold their own field
    array ({!copy}), reading a flat store's element makes a fresh struct
    ({!slice_elem}), and storing a whole struct into a location that
    already holds one writes the fields into that location ({!store},
    {!store_struct}), so a field pointer taken before the store sees the
    new fields.  Slice values are headers (backing-array object + store
    + width + offset + length) copied freely while sharing the backing
    store.  Every reference holds its heap object's record
    ({!Heap.obj}), never an address: nothing is looked up to reach an
    object, and a stale reference to a freed object still names that
    object, not whatever reuses its slot.  A pointer into a frame slot
    names {!Heap.no_obj}.

    Freed memory in poison mode (§6.8): a freed value store's slots
    become [VPoison], the fields of a nested struct included; a freed
    int store's become {!poison_int}, and a read that finds that sentinel
    is a read of freed memory exactly when the store's owner is freed
    ({!read_int}).

    Strings are modelled as static immutable data (no heap object): GoFree
    never frees strings, and the paper's reclaim comes from slices and
    maps, so this keeps the value model small without changing any
    measured behaviour (recorded as a substitution in DESIGN.md). *)

module Heap = Gofree_runtime.Heap

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
      i_ints : int array;  (** the shared unboxed backing store *)
      i_off : int;
      i_len : int;  (** capacity = Array.length i_ints − i_off *)
    }  (** a [[]int]: its store is unboxed; the header is inline *)
  | VMap of Heap.obj  (** the map header object *)
  | VStruct of value array  (** the fields, inline *)
  | VTuple of value list
  | VPoison  (** contents of mock-freed memory (§6.8) *)

and cell = value array  (** always exactly one element *)

and ptr = {
  p_owner : Heap.obj;
      (** heap/stack object owning the storage; [Heap.no_obj] for a
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
  s_cells : value array;  (** the shared backing store *)
  s_w : int;
      (** 0: one element per slot; [w > 0]: struct elements of [w]
          fields, [w] slots each *)
  s_off : int;  (** view offset into the backing array, in elements *)
  s_len : int;  (** view length, in elements; capacity: {!cap} *)
}

type map_data = {
  mutable md_buckets : Heap.obj;
      (** the buckets object; [Heap.no_obj] once the header is poisoned *)
  mutable md_nbuckets : int;
  mutable md_count : int;
  md_entry_size : int;  (** key + value bytes, from the allocation site *)
  mutable md_version : int;
      (** bumped on every store/delete/grow/free — the shape check that
          invalidates the bytecode engine's map-site inline caches.
          Purely an interpreter-side fast-path guard: no allocator or GC
          behaviour reads it *)
}

(** The column a map's keys live in, fixed by the map's static key
    type: an int or bool key is a word of the int column, a string key
    an element of the string column, any other key a value. *)
type key_kind = Kint | Kbool | Kstr | Kval

(** The column a map's values live in: an int or bool value is a word of
    the int column, any other value a value. *)
type val_kind = Vint | Vbool | Vval

(** A map's buckets, in columns typed by its key and value kinds.
    Bucket [b] holds [bk_n.(b)] entries, oldest first.  Entry [j] has
    [bk_wi] words at [bk_wi * j] of the int column [bk_i.(b)]: its key's
    hash, then the key when it is an int or bool, then the value when it
    is one; a string key at [j] of [bk_s.(b)]; and [bk_wv] slots at
    [bk_wv * j] of [bk_v.(b)]: the key when it is neither, then the value
    when it is not an int or bool.  Every column of a bucket has room
    for the same number of entries; slots past the entries are spare
    capacity, and a bucket that never held an entry shares one empty
    array per column.  Iteration visits the buckets in index order and
    each bucket newest entry first. *)
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

(** Heap payloads carrying interpreter values. *)
type Heap.payload +=
  | Pcells of value array
      (** a scanned slice backing store, or a box (whose payload is its
          own cell) *)
  | Pnoscan of value array
      (** a value store whose element type holds no address: never
          traced *)
  | Pints of int array  (** int-slice backing store: pointer-free *)
  | Pmap of map_data
  | Pbuckets of buckets

exception Corruption of string
    (** read of poisoned memory: a wrong explicit free was observed *)

let cell v : cell = [| v |]

(* Raw cell read.  Unchecked: a cell always has one element. *)
let get (c : cell) = Array.unsafe_get c 0

let cell_ptr owner (c : cell) = { p_owner = owner; p_arr = c; p_idx = 0 }

let field_ptr owner (fields : value array) i =
  VPtr { p_owner = owner; p_arr = fields; p_idx = i }

(* Shared boxes for small ints.  [VInt] is immutable and compared
   structurally everywhere (maps, ==, caches), so one box can appear in
   any number of cells; loop counters and small lengths dominate cell
   stores, and reusing their boxes keeps those stores off the OCaml
   allocator.  Filled in a loop: [Array.init] would create the array
   from the young box of [VInt 0], and a major-heap array created from
   a young value forces a minor collection at start-up. *)
let small_ints =
  let a = Array.make 1024 VUnit in
  for i = 0 to 1023 do
    a.(i) <- VInt i
  done;
  a

let vint n =
  if n >= 0 && n < 1024 then Array.unsafe_get small_ints n else VInt n

(* The two bool boxes, shared for the same reason. *)
let vtrue = VBool true

let vfalse = VBool false

let vbool b = if b then vtrue else vfalse

let read_cell c =
  match get c with
  | VPoison -> raise (Corruption "read of freed memory")
  | v -> v

let read_elem (a : value array) i =
  match a.(i) with
  | VPoison -> raise (Corruption "read of freed memory")
  | v -> v

(* ---- Int stores ----------------------------------------------------

   A freed int store (poison mode) holds [poison_int] in every element.
   An element holding it is a read of freed memory only when its owner
   is freed: a live store may hold the same number,
   and a freed element the program wrote to since holds what it wrote,
   just as a written [VPoison] cell holds its new value. *)

let poison_int = -0x3EAD_BEEF_DEAD_BEEF

let owner_freed (heap : Heap.t) (owner : Heap.obj) =
  heap.Heap.config.Heap.poison_on_free && Heap.is_freed owner

let[@inline never] check_int heap owner =
  if owner_freed heap owner then raise (Corruption "read of freed memory")

let read_int heap owner (a : int array) i =
  let n = a.(i) in
  if n = poison_int then check_int heap owner;
  n

let read_iptr heap p = read_int heap p.ip_owner p.ip_ints p.ip_idx

(** Deep-copy for assignment: a struct value gets its own field array,
    a nested struct its own too; everything else has reference or
    immutable semantics. *)
let rec copy = function
  | VStruct fields -> VStruct (Array.map copy fields)
  | ( VUnit | VInt _ | VFloat _ | VBool _ | VStr _ | VNil | VPtr _ | VIptr _
    | VEptr _ | VSlice _ | VIslice _ | VMap _ | VTuple _ | VPoison ) as v ->
    v

(** [store a i v]: Go's assignment [a[i] = v].  When the location holds
    a struct, [v]'s fields are written into that struct's own array,
    nested structs in place too, so pointers into it stay valid; else
    it gets a copy of [v]. *)
let rec store (a : value array) i v =
  match (Array.unsafe_get a i, v) with
  | VStruct dst, VStruct src -> if dst != src then store_fields dst src
  | _, VStruct _ -> a.(i) <- copy v
  | _ -> a.(i) <- v

and store_fields dst src =
  for j = 0 to Array.length src - 1 do
    store dst j (Array.unsafe_get src j)
  done

(* ---- Flat struct stores --------------------------------------------

   A struct element of a flat store is the [w] slots from its first
   field's.  Reading one whole makes a fresh struct, each field
   poison-checked and copied, so nothing aliases the store; storing one
   writes each field into its slot with {!store}, so a field pointer
   into the element, a nested struct's included, sees the new value. *)

let load_struct (a : value array) base w =
  VStruct (Array.init w (fun j -> copy (read_elem a (base + j))))

let store_struct (a : value array) base v =
  match v with
  | VStruct src ->
    for j = 0 to Array.length src - 1 do
      store a (base + j) (Array.unsafe_get src j)
    done
  | _ -> raise (Corruption "read of freed memory")

let read_ptr p =
  match Array.unsafe_get p.p_arr p.p_idx with
  | VPoison -> raise (Corruption "read of freed memory")
  | v -> v

(** The slot of element [i] of a value slice: a struct element's first
    field's in a flat store. *)
let[@inline] elem_slot s i =
  if s.s_w = 0 then s.s_off + i else (s.s_off + i) * s.s_w

(** A value slice's capacity, in elements. *)
let cap s =
  (if s.s_w = 0 then Array.length s.s_cells
   else Array.length s.s_cells / s.s_w)
  - s.s_off

(** Element [i] of a value slice, poison-checked: a struct element as a
    fresh struct. *)
let slice_elem s i =
  if s.s_w = 0 then read_elem s.s_cells (s.s_off + i)
  else load_struct s.s_cells (elem_slot s i) s.s_w

(** A fresh backing store, in the layout its element type selects: an
    int store for [int] elements; else the slots, the flat struct width
    (0 for one element per slot) and whether the mark scans it. *)
type store = Vals of value array * int * bool | Ints of int array

(* Whether a zero value holds a [VNil]: exactly when its type has a
   pointer, slice or map anywhere in it, the types whose zero is nil.
   The zero value is a function of the static element type, so this is
   the static type's verdict. *)
let rec scanned = function
  | VNil -> true
  | VStruct fields -> Array.exists scanned fields
  | _ -> false

(* The flat width of an element whose zero is [z]: a struct's field
   count; 0, one element per slot, for any other element and for a
   struct with no fields, which holds nothing to flatten. *)
let width = function VStruct fields -> Array.length fields | _ -> 0

(* [fill_zero a w z from]: the elements of the [w]-wide store [a] from
   element [from] on become the zero [z]: a struct's fields slot by slot,
   a nested struct field a fresh copy each; any other zero is immutable
   and shared. *)
let fill_zero (a : value array) w z from =
  match z with
  | VStruct fields when w > 0 ->
    for e = from to (Array.length a / w) - 1 do
      for j = 0 to w - 1 do
        Array.unsafe_set a ((e * w) + j) (copy (Array.unsafe_get fields j))
      done
    done
  | _ ->
    if from < Array.length a then Array.fill a from (Array.length a - from) z

(** [grown_store z old old_slot old_len elems off n cap]: a fresh value
    store of [cap] elements in the layout of the element zero [z]: the
    [old_len] elements of [old] from slot [old_slot], each slot
    poison-checked and copied, then the [n] fresh values of [elems] from
    [off], which it takes over, then zero elements. *)
let grown_store z (old : value array) old_slot old_len (elems : value array)
    off n cap : store =
  let w = width z in
  let stride = max 1 w in
  let a = Array.make (cap * stride) (if w = 0 then z else VUnit) in
  for k = 0 to (old_len * stride) - 1 do
    Array.unsafe_set a k (copy (read_elem old (old_slot + k)))
  done;
  for e = 0 to n - 1 do
    let v = elems.(off + e) in
    if w = 0 then Array.unsafe_set a (old_len + e) v
    else
      match v with
      | VStruct fields ->
        for j = 0 to w - 1 do
          Array.unsafe_set a (((old_len + e) * w) + j) fields.(j)
        done
      | _ -> raise (Corruption "read of freed memory")
  done;
  if w > 0 then fill_zero a w z (old_len + n);
  Vals (a, w, scanned z)

(** A backing store of [n] zero values: an int store exactly when the
    zero is [VInt 0], else a value store in the zero's layout. *)
let make_store n (zero_of : unit -> value) : store =
  match zero_of () with
  | VInt 0 -> Ints (Array.make n 0)
  | VStruct fields as z when Array.length fields > 0 ->
    grown_store z [||] 0 0 [||] 0 0 n
  | z -> Vals (Array.make n z, 0, scanned z)

(** [set_elem s i v]: Go's [s[i] = v] in a value slice's store, [i] in
    bounds: {!store} into its slot, or {!store_struct} into a flat
    store's element. *)
let set_elem s i v =
  if s.s_w = 0 then store s.s_cells (s.s_off + i) v
  else store_struct s.s_cells (elem_slot s i) v

let store_payload = function
  | Vals (a, _, true) -> Pcells a
  | Vals (a, _, false) -> Pnoscan a
  | Ints a -> Pints a

(** The slice header over the first [len] elements of the store owned by
    [obj]. *)
let slice_of obj store len =
  match store with
  | Vals (a, w, _) ->
    VSlice { s_obj = obj; s_cells = a; s_w = w; s_off = 0; s_len = len }
  | Ints a -> VIslice { i_obj = obj; i_ints = a; i_off = 0; i_len = len }

let owner_of = function
  | VPtr p -> p.p_owner
  | VEptr e -> e.e_owner
  | VSlice s -> s.s_obj
  | _ -> Heap.no_obj

(** Zero value of a type (Go semantics). *)
let rec zero (tenv : Minigo.Types.env) (ty : Minigo.Types.t) : value =
  match ty with
  | Minigo.Types.Int -> VInt 0
  | Minigo.Types.Float -> VFloat 0.0
  | Minigo.Types.Bool -> VBool false
  | Minigo.Types.String -> VStr ""
  | Minigo.Types.Ptr _ | Minigo.Types.Slice _ | Minigo.Types.Map _ -> VNil
  | Minigo.Types.Struct name ->
    VStruct
      (Array.of_list
         (List.map
            (fun (_, fty) -> zero tenv fty)
            (Minigo.Types.struct_fields tenv name)))
  | Minigo.Types.Tuple _ | Minigo.Types.Unit | Minigo.Types.Nil -> VUnit

(** Enumerate the objects a value references (GC tracing).  A pointer
    to a frame slot names [Heap.no_obj], which the mark passes by: the
    frame is scanned as a root. *)
let rec trace (v : value) (k : Heap.obj -> unit) =
  match v with
  | VStr _ | VUnit | VInt _ | VFloat _ | VBool _ | VNil | VPoison -> ()
  | VPtr p -> k p.p_owner
  | VIptr p -> k p.ip_owner
  | VEptr e -> k e.e_owner
  | VSlice s -> k s.s_obj
  | VIslice s -> k s.i_obj
  | VMap o -> k o
  | VStruct fields ->
    for i = 0 to Array.length fields - 1 do
      trace (Array.unsafe_get fields i) k
    done
  | VTuple vs -> List.iter (fun v -> trace v k) vs

(** Payload tracer registered with the heap.  An int store and a noscan
    value store are Go's noscan objects: their elements hold no address,
    so they are not traced.  Returns whether it walked the payload. *)
let trace_payload (p : Heap.payload) (k : Heap.obj -> unit) =
  match p with
  | Pcells elems ->
    for i = 0 to Array.length elems - 1 do
      trace (Array.unsafe_get elems i) k
    done;
    true
  | Pmap md ->
    k md.md_buckets;
    true
  | Pbuckets bk when bk.bk_wv > 0 ->
    (* the int and string columns hold no address *)
    let wv = bk.bk_wv in
    for b = 0 to Array.length bk.bk_v - 1 do
      let v = bk.bk_v.(b) in
      for j = bk.bk_n.(b) - 1 downto 0 do
        for t = wv * j to (wv * j) + wv - 1 do
          trace v.(t) k
        done
      done
    done;
    true
  | _ -> false

(* Every element of [a] becomes [VPoison]; a struct element's fields
   first, so a pointer into them reads poison too. *)
let rec poison_elems (a : value array) =
  for i = 0 to Array.length a - 1 do
    (match Array.unsafe_get a i with
    | VStruct fields -> poison_elems fields
    | _ -> ());
    Array.unsafe_set a i VPoison
  done

(** Poison-mode payload corruption (§6.8's bit-flipping mock, made
    deterministic): every element the payload owns becomes [VPoison] —
    the fields of a struct element too —, or {!poison_int} in an int
    store, so any read through a stale reference raises {!Corruption}
    instead of silently yielding the old data. *)
let poison_payload (p : Heap.payload) =
  match p with
  | Pcells elems | Pnoscan elems -> poison_elems elems
  | Pints ints -> Array.fill ints 0 (Array.length ints) poison_int
  | Pbuckets bk ->
    (* every bucket becomes one poisoned entry, whose hash no key has *)
    for b = 0 to Array.length bk.bk_n - 1 do
      bk.bk_i.(b) <- Array.make bk.bk_wi poison_int;
      if bk.bk_key = Kstr then bk.bk_s.(b) <- [| "" |];
      if bk.bk_wv > 0 then bk.bk_v.(b) <- Array.make bk.bk_wv VPoison;
      bk.bk_n.(b) <- 1
    done
  | Pmap md ->
    md.md_buckets <- Heap.no_obj;
    md.md_count <- -1;
    md.md_version <- md.md_version + 1
  | _ -> ()

(* Structural equality for map keys and '=='. *)
let equal_key a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VStr x, VStr y -> String.equal x y
  | VBool x, VBool y -> x = y
  | VFloat x, VFloat y -> x = y
  | _ -> false

let hash_key = function
  | VInt n -> Hashtbl.hash n
  | VStr s -> Hashtbl.hash s
  | VBool b -> Hashtbl.hash b
  | VFloat f -> Hashtbl.hash f
  | _ -> 0

(* ---- Typed map buckets ---------------------------------------------

   The operations behind a map read, store, delete and growth, on the
   columns of {!buckets}.  A probe compares an entry's stored hash
   before its key, and growth moves entries by their stored hashes,
   never hashing a key again.  Nothing here allocates except when a
   bucket outgrows its capacity.

   A bucket index [b] always comes from {!bucket_of}, so it is below the
   bucket count, the length of every per-bucket array; those are read
   unchecked.  Every slot access is bounded by the array it touches: a
   probe bounds the bucket's count by the length of each column it
   scans, a slot past the end of a column reads as absent and takes no
   write, and growth drops an entry that no longer fits the bucket its
   first pass counted.  So a map mutated by goroutines on two domains at
   once (a racy MiniGo program, where one writer can replace a bucket's
   columns with ones sized from a stale count) can read stale entries
   or lose a write, but never reads or writes outside an array and
   never raises. *)

let no_ints : int array = [||]

let no_strs : string array = [||]

let no_vals : value array = [||]

let key_kind (ty : Minigo.Types.t) =
  match ty with
  | Minigo.Types.Int -> Kint
  | Minigo.Types.Bool -> Kbool
  | Minigo.Types.String -> Kstr
  | _ -> Kval

let val_kind (ty : Minigo.Types.t) =
  match ty with
  | Minigo.Types.Int -> Vint
  | Minigo.Types.Bool -> Vbool
  | _ -> Vval

let make_buckets key value n =
  let ikey = match key with Kint | Kbool -> 1 | Kstr | Kval -> 0 in
  let ival = match value with Vint | Vbool -> 1 | Vval -> 0 in
  let wv = (if key = Kval then 1 else 0) + (1 - ival) in
  {
    bk_key = key;
    bk_val = value;
    bk_wi = 1 + ikey + ival;
    bk_wv = wv;
    bk_n = Array.make n 0;
    bk_i = Array.make n no_ints;
    bk_s = (if key = Kstr then Array.make n no_strs else [||]);
    bk_v = (if wv > 0 then Array.make n no_vals else [||]);
  }

(** The bucket of hash [h] (never negative): bucket counts are powers of
    two. *)
let bucket_of bk h = h land (Array.length bk.bk_n - 1)

(* Bucket [b]'s count and columns. *)
let[@inline] count bk b = Array.unsafe_get bk.bk_n b

let[@inline] ints bk b = Array.unsafe_get bk.bk_i b

let[@inline] strs bk b = Array.unsafe_get bk.bk_s b

let[@inline] vals bk b = Array.unsafe_get bk.bk_v b

(* An int or bool key or value as its int-column word. *)
let word_of = function VInt n -> n | VBool true -> 1 | _ -> 0

(* Of [n] entries, [per] slots each, how many an array of [len] slots
   holds: [n], unless a racing writer left it short. *)
let[@inline] bound n len per = if n * per <= len then n else len / per

let rec scan_int (w : int array) wi (h : int) (k : int) j =
  if j < 0 then -1
  else
    let p = wi * j in
    if Array.unsafe_get w p = h && Array.unsafe_get w (p + 1) = k then j
    else scan_int w wi h k (j - 1)

(** The slot of int key [k] (hash [h]) in bucket [b], newest first, or
    [-1]; always [-1] in a map whose keys are not ints or bools. *)
let find_int bk b h k =
  match bk.bk_key with
  | Kint | Kbool ->
    let w = ints bk b in
    let wi = bk.bk_wi in
    scan_int w wi h k (bound (count bk b) (Array.length w) wi - 1)
  | Kstr | Kval -> -1

let rec scan_str (w : int array) wi ks (h : int) s j =
  if j < 0 then -1
  else if
    Array.unsafe_get w (wi * j) = h && String.equal (Array.unsafe_get ks j) s
  then j
  else scan_str w wi ks h s (j - 1)

let rec scan_val (w : int array) wi v wv (h : int) key j =
  if j < 0 then -1
  else if
    Array.unsafe_get w (wi * j) = h
    && equal_key (Array.unsafe_get v (wv * j)) key
  then j
  else scan_val w wi v wv h key (j - 1)

(** The slot of [key] (hash [h]) in bucket [b], newest first, or
    [-1]. *)
let find bk b h key =
  let wi = bk.bk_wi in
  match (bk.bk_key, key) with
  | (Kint | Kbool), _ -> find_int bk b h (word_of key)
  | Kstr, VStr s ->
    let w = ints bk b in
    let ks = strs bk b in
    let n = bound (count bk b) (Array.length w) wi in
    scan_str w wi ks h s (bound n (Array.length ks) 1 - 1)
  | Kstr, _ -> -1
  | Kval, _ ->
    let w = ints bk b in
    let v = vals bk b in
    let n = bound (count bk b) (Array.length w) wi in
    scan_val w wi v bk.bk_wv h key (bound n (Array.length v) bk.bk_wv - 1)

(* Where the value of slot [j] sits in its column. *)
let[@inline] ival bk j = (bk.bk_wi * j) + bk.bk_wi - 1

let[@inline] vval bk j = (bk.bk_wv * j) + bk.bk_wv - 1

(* Slot access checked against the array at hand.  A slot a racing
   writer has moved past the end of a bucket's current column reads as
   absent and takes no write; indices are never negative. *)
let[@inline] iget (a : int array) i =
  if i < Array.length a then Array.unsafe_get a i else 0

let[@inline] iset (a : int array) i x =
  if i < Array.length a then Array.unsafe_set a i x

let[@inline] vset (a : value array) i x =
  if i < Array.length a then Array.unsafe_set a i x

(** The value at a slot, as an int-stack word: an int or bool value
    itself, or the word of a boxed one. *)
let int_at bk b j =
  match bk.bk_val with
  | Vint | Vbool -> iget (ints bk b) (ival bk j)
  | Vval ->
    let v = vals bk b in
    let p = vval bk j in
    if p < Array.length v then word_of (Array.unsafe_get v p) else 0

(** [value_at bk b j zero]: the value at a slot, or [zero ()] for a slot
    a racing writer emptied. *)
let value_at bk b j zero =
  match bk.bk_val with
  | Vval ->
    let v = vals bk b in
    let p = vval bk j in
    if p < Array.length v then Array.unsafe_get v p else zero ()
  | Vint -> vint (int_at bk b j)
  | Vbool -> vbool (int_at bk b j <> 0)

(** Overwrite the value at a slot; the entry keeps its key and place. *)
let set_value bk b j v =
  match bk.bk_val with
  | Vint | Vbool -> iset (ints bk b) (ival bk j) (word_of v)
  | Vval -> vset (vals bk b) (vval bk j) v

(** Overwrite the value at a slot with an int-stack word. *)
let set_int bk b j n =
  match bk.bk_val with
  | Vint | Vbool -> iset (ints bk b) (ival bk j) n
  | Vval -> set_value bk b j (vint n)

(* Give bucket [b], holding [n] entries, fresh columns with room for
   [cap].  The entries are copied by loops, not by [Array.blit]'s C call:
   a regrown bucket holds a few entries.  Each copy is bounded by the
   column it reads. *)
let regrow bk b n cap =
  let wi = bk.bk_wi in
  let w = Array.make (cap * wi) 0 in
  let old = ints bk b in
  for x = 0 to bound n (Array.length old) wi * wi - 1 do
    Array.unsafe_set w x (Array.unsafe_get old x)
  done;
  bk.bk_i.(b) <- w;
  if bk.bk_key = Kstr then begin
    let s = Array.make cap "" in
    let old = strs bk b in
    for x = 0 to bound n (Array.length old) 1 - 1 do
      Array.unsafe_set s x (Array.unsafe_get old x)
    done;
    bk.bk_s.(b) <- s
  end;
  let wv = bk.bk_wv in
  if wv > 0 then begin
    let v = Array.make (cap * wv) VUnit in
    let old = vals bk b in
    for x = 0 to bound n (Array.length old) wv * wv - 1 do
      Array.unsafe_set v x (Array.unsafe_get old x)
    done;
    bk.bk_v.(b) <- v
  end

(** [add bk b h]: the slot of a new entry of bucket [b] whose key has
    hash [h], its hash written; capacity doubles, from two entries.  The
    caller writes the key and value, then {!commit}s the entry, which
    becomes the bucket's newest. *)
let add bk b h =
  let n = count bk b in
  if n * bk.bk_wi >= Array.length (ints bk b) then
    regrow bk b n (if n = 0 then 2 else 2 * n);
  iset (ints bk b) (bk.bk_wi * n) h;
  n

(** Write the int or bool key of the new entry at slot [j]. *)
let set_key_int bk b j k = iset (ints bk b) ((bk.bk_wi * j) + 1) k

(** Write the key of the new entry at slot [j]. *)
let set_key bk b j key =
  match (bk.bk_key, key) with
  | (Kint | Kbool), _ -> set_key_int bk b j (word_of key)
  | Kstr, VStr s ->
    let ks = strs bk b in
    if j < Array.length ks then Array.unsafe_set ks j s
  | Kstr, _ -> ()
  | Kval, _ -> vset (vals bk b) (bk.bk_wv * j) key

let[@inline] set_count bk b n = Array.unsafe_set bk.bk_n b n

let commit bk b j = set_count bk b (j + 1)

(** Drop the entry at slot [j], keeping the others in order.  Each
    column shifts the entries it holds, and the vacated slots are
    cleared. *)
let remove bk b j =
  let n = count bk b in
  let w = ints bk b in
  let wi = bk.bk_wi in
  for x = wi * j to (wi * bound n (Array.length w) wi) - wi - 1 do
    Array.unsafe_set w x (Array.unsafe_get w (x + wi))
  done;
  if bk.bk_key = Kstr then begin
    let s = strs bk b in
    let last = bound n (Array.length s) 1 - 1 in
    for x = j to last - 1 do
      Array.unsafe_set s x (Array.unsafe_get s (x + 1))
    done;
    if last >= j then Array.unsafe_set s last ""
  end;
  let wv = bk.bk_wv in
  if wv > 0 then begin
    let v = vals bk b in
    let last = bound n (Array.length v) wv - 1 in
    for x = wv * j to (wv * last) - 1 do
      Array.unsafe_set v x (Array.unsafe_get v (x + wv))
    done;
    for x = wv * last to (wv * last) + wv - 1 do
      if x >= wv * j then Array.unsafe_set v x VUnit
    done
  end;
  if j < n then set_count bk b (n - 1)

(** [rehash old n]: the entries of [old] in [n] buckets, moved by their
    stored hashes in iteration order, so within a new bucket the last
    one moved is the newest.  A first pass counts each new bucket's
    entries, so each gets its columns once, with room for as many
    again. *)
let rehash old n =
  let bk = make_buckets old.bk_key old.bk_val n in
  let mask = n - 1 in
  let wi = old.bk_wi in
  let wv = old.bk_wv in
  let keys = old.bk_key = Kstr in
  let fill = bk.bk_n in
  for b = 0 to Array.length old.bk_n - 1 do
    let w = ints old b in
    for j = 0 to bound (count old b) (Array.length w) wi - 1 do
      let d = Array.unsafe_get w (wi * j) land mask in
      Array.unsafe_set fill d (Array.unsafe_get fill d + 1)
    done
  done;
  for d = 0 to n - 1 do
    let cap = 2 * count bk d in
    if cap > 0 then begin
      Array.unsafe_set bk.bk_i d (Array.make (cap * wi) 0);
      if keys then Array.unsafe_set bk.bk_s d (Array.make cap "");
      if wv > 0 then Array.unsafe_set bk.bk_v d (Array.make (cap * wv) VUnit)
    end;
    set_count bk d 0
  done;
  (* Each moved entry's source slots are bounded by the columns read
     (as in a probe) and its destination slots by the new bucket's
     capacity: a racing writer can change the old buckets between the
     two passes, and an entry that no longer fits is dropped.  The new
     columns, which only this growth has seen, share one capacity. *)
  for b = 0 to Array.length old.bk_n - 1 do
    let w = ints old b in
    let s = if keys then strs old b else no_strs in
    let v = if wv > 0 then vals old b else no_vals in
    let live = bound (count old b) (Array.length w) wi in
    let live = if keys then bound live (Array.length s) 1 else live in
    let live = if wv > 0 then bound live (Array.length v) wv else live in
    for j = live - 1 downto 0 do
      let d = Array.unsafe_get w (wi * j) land mask in
      let t = count bk d in
      let dw = ints bk d in
      if wi * (t + 1) <= Array.length dw then begin
        for x = 0 to wi - 1 do
          Array.unsafe_set dw ((wi * t) + x) (Array.unsafe_get w ((wi * j) + x))
        done;
        if keys then Array.unsafe_set (strs bk d) t (Array.unsafe_get s j);
        if wv > 0 then begin
          let dv = vals bk d in
          for x = 0 to wv - 1 do
            Array.unsafe_set dv ((wv * t) + x)
              (Array.unsafe_get v ((wv * j) + x))
          done
        end;
        commit bk d t
      end
    done
  done;
  bk

(** Every key, in iteration order; a bucket a racing writer is
    changing yields the keys its columns hold. *)
let bucket_keys bk =
  let keys = ref [] in
  for b = Array.length bk.bk_n - 1 downto 0 do
    let w = ints bk b in
    let n = bound (count bk b) (Array.length w) bk.bk_wi in
    match bk.bk_key with
    | Kint | Kbool ->
      for j = 0 to n - 1 do
        let k = Array.unsafe_get w ((bk.bk_wi * j) + 1) in
        keys := (if bk.bk_key = Kint then vint k else vbool (k <> 0)) :: !keys
      done
    | Kstr ->
      let ks = strs bk b in
      for j = 0 to bound n (Array.length ks) 1 - 1 do
        keys := VStr (Array.unsafe_get ks j) :: !keys
      done
    | Kval ->
      let v = vals bk b in
      for j = 0 to bound n (Array.length v) bk.bk_wv - 1 do
        keys := Array.unsafe_get v (bk.bk_wv * j) :: !keys
      done
  done;
  !keys

(** [string_of_int n] by a digit loop, without the format machinery
    behind [string_of_int].  The digits come from the magnitude negated,
    which [min_int] has too. *)
let itoa n =
  let m = if n < 0 then n else -n in
  let rec width m w = if m > -10 then w else width (m / 10) (w + 1) in
  let len = width m (if n < 0 then 2 else 1) in
  let b = Bytes.create len in
  let rec digits m i =
    Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
    if m <= -10 then digits (m / 10) (i - 1)
  in
  digits m (len - 1);
  if n < 0 then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

(** Deterministic textual form for println (pointer addresses are hidden
    so output is identical across Go/GoFree settings).  Int-store elements
    are poison-checked against [heap] when it is given. *)
let rec to_string ?heap = function
  | VUnit -> "()"
  | VInt n -> string_of_int n
  | VFloat f -> Printf.sprintf "%g" f
  | VBool b -> string_of_bool b
  | VStr s -> s
  | VNil -> "<nil>"
  | VPtr _ | VIptr _ | VEptr _ -> "<ptr>"
  | VSlice s ->
    let elems = List.init s.s_len (fun i -> to_string ?heap (slice_elem s i)) in
    "[" ^ String.concat " " elems ^ "]"
  | VIslice s ->
    let elem i =
      let j = s.i_off + i in
      string_of_int
        (match heap with
        | Some heap -> read_int heap s.i_obj s.i_ints j
        | None -> s.i_ints.(j))
    in
    "[" ^ String.concat " " (List.init s.i_len elem) ^ "]"
  | VMap _ -> "map"
  | VStruct fields ->
    let fields =
      List.init (Array.length fields) (fun i ->
          to_string ?heap (read_elem fields i))
    in
    "{" ^ String.concat " " fields ^ "}"
  | VTuple vs -> String.concat ", " (List.map (to_string ?heap) vs)
  | VPoison -> raise (Corruption "print of freed memory")
