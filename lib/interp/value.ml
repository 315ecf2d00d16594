(** Runtime values of MiniGo and their payload representation inside the
    simulated heap.

    Mutable storage comes in two kinds, chosen by a slice's element type
    alone.  A [[]int] backing store is a bare [int array] ({!VIslice}):
    its elements are unboxed words that hold no address, Go's "noscan"
    object, so the simulated mark ({!trace_payload}) never walks them,
    the host GC finds nothing in them to follow or promote, and storing
    an int into one allocates nothing.
    Every other slice's backing store is a [value array] ({!slice})
    holding its elements directly, a struct value is a [value array]
    holding its fields directly (a nested struct field is a {!VStruct}
    inside its parent's array), and a frame variable or heap box is a
    {!cell}, a one-element array.  A pointer is an (owner object, array,
    index) triple — {!ptr} into a value array, {!iptr} into an int store
    — so [&s[i]], [&local], [&x.f], [new(T)] and [&T{}] all dereference
    in one array access while the GC keeps the owning heap object alive.

    Struct values have Go's value semantics: a declaration, a parameter,
    a result and a slice, map or literal element each hold their own
    field array ({!copy}), and storing a whole struct into a location
    that already holds one writes the fields into that location's array
    ({!store}), so a field pointer taken before the store sees the new
    fields.  Slice values are headers (backing-array object + store +
    offset + length) copied freely while sharing the backing store.
    Every reference holds its heap object's record ({!Heap.obj}), never
    an address: nothing is looked up to reach an object, and a stale
    reference to a freed object still names that object, not whatever
    reuses its slot.  A pointer into a frame slot names {!Heap.no_obj}.

    Freed memory in poison mode (§6.8): a freed value store's elements
    become [VPoison], the fields of a struct it held included; a freed
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
  p_idx : int;  (** the element of [p_arr] pointed at *)
}

and iptr = {
  ip_owner : Heap.obj;  (** the int store's backing-array object *)
  ip_ints : int array;
  ip_idx : int;
}

and slice = {
  s_obj : Heap.obj;  (** backing-array object *)
  s_cells : value array;  (** the shared backing store, one element each *)
  s_off : int;  (** view offset into the backing array *)
  s_len : int;  (** view length; capacity = Array.length s_cells − s_off *)
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

(** A map's bucket array, flat: bucket [b] holds [bk_n.(b)] entries in
    [bk_kv.(b)], oldest first, each a key at [2j] and its value at
    [2j + 1].  Slots past them are spare capacity holding [VUnit], and
    every bucket that never held an entry shares {!no_entries}.
    Iteration visits the buckets in index order and each bucket newest
    entry first. *)
type buckets = { bk_n : int array; bk_kv : value array array }

(** Heap payloads carrying interpreter values. *)
type Heap.payload +=
  | Pcells of value array
      (** slice backing store, or a box (whose payload is its own cell) *)
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
   allocator. *)
let small_ints = Array.init 1024 (fun i -> VInt i)

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

let read_ptr p =
  match Array.unsafe_get p.p_arr p.p_idx with
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
  heap.Heap.config.Heap.poison_on_free && owner.Heap.freed

let[@inline never] check_int heap owner =
  if owner_freed heap owner then raise (Corruption "read of freed memory")

let read_int heap owner (a : int array) i =
  let n = a.(i) in
  if n = poison_int then check_int heap owner;
  n

let read_iptr heap p = read_int heap p.ip_owner p.ip_ints p.ip_idx

(** A fresh backing store, of the kind its element type selects: an int
    store for [int] elements, else a value store. *)
type store = Cells of value array | Ints of int array

(** Deep-copy for assignment: a struct value gets its own field array,
    a nested struct its own too; everything else has reference or
    immutable semantics. *)
let rec copy = function
  | VStruct fields -> VStruct (Array.map copy fields)
  | ( VUnit | VInt _ | VFloat _ | VBool _ | VStr _ | VNil | VPtr _ | VIptr _
    | VSlice _ | VIslice _ | VMap _ | VTuple _ | VPoison ) as v ->
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

(** Set [cells.(from) ..] to the zero [z]: a struct zero is mutable, so
    each element gets its own copy; any other zero is immutable and
    shared. *)
let fill_zero cells from z =
  match z with
  | VStruct _ ->
    for i = from to Array.length cells - 1 do cells.(i) <- copy z done
  | _ ->
    if from < Array.length cells then
      Array.fill cells from (Array.length cells - from) z

(** A backing store of [n] zero values: an int store exactly when the
    zero is [VInt 0], else a value store filled by {!fill_zero}. *)
let make_store n (zero_of : unit -> value) : store =
  match zero_of () with
  | VInt 0 -> Ints (Array.make n 0)
  | z ->
    let cells = Array.make n z in
    fill_zero cells 1 z;
    Cells cells

let store_payload = function Cells a -> Pcells a | Ints a -> Pints a

(** The slice header over the first [len] elements of the store owned by
    [obj]. *)
let slice_of obj store len =
  match store with
  | Cells a -> VSlice { s_obj = obj; s_cells = a; s_off = 0; s_len = len }
  | Ints a -> VIslice { i_obj = obj; i_ints = a; i_off = 0; i_len = len }

let owner_of = function
  | VPtr p -> p.p_owner
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
  | VSlice s -> k s.s_obj
  | VIslice s -> k s.i_obj
  | VMap o -> k o
  | VStruct fields ->
    for i = 0 to Array.length fields - 1 do
      trace (Array.unsafe_get fields i) k
    done
  | VTuple vs -> List.iter (fun v -> trace v k) vs

(** Payload tracer registered with the heap.  An int store is Go's
    noscan object: its elements hold no address, so it is not traced. *)
let trace_payload (p : Heap.payload) (k : Heap.obj -> unit) =
  match p with
  | Pcells elems -> Array.iter (fun v -> trace v k) elems
  | Pmap md -> k md.md_buckets
  | Pbuckets bk ->
    Array.iteri
      (fun b kv ->
        for j = bk.bk_n.(b) - 1 downto 0 do
          trace kv.(2 * j) k;
          trace kv.((2 * j) + 1) k
        done)
      bk.bk_kv
  | _ -> ()

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
  | Pcells elems -> poison_elems elems
  | Pints ints -> Array.fill ints 0 (Array.length ints) poison_int
  | Pbuckets bk ->
    (* every bucket becomes one poisoned entry *)
    Array.iteri
      (fun b _ ->
        bk.bk_kv.(b) <- [| VPoison; VPoison |];
        bk.bk_n.(b) <- 1)
      bk.bk_kv
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

(* ---- Flat map buckets ----------------------------------------------

   The operations behind a map read, store, delete and growth.  None of
   them allocates except when a bucket outgrows its capacity.  Bucket
   reads re-check each index against the array they read, so a map
   mutated by goroutines on two domains at once (a racy MiniGo
   program) can read stale entries but never outside an array. *)

let no_entries : value array = [||]

let make_buckets n = { bk_n = Array.make n 0; bk_kv = Array.make n no_entries }

(** The bucket [key] hashes to. *)
let bucket_index bk key = hash_key key land max_int mod Array.length bk.bk_kv

let rec scan kv key j =
  if j < 0 then -1
  else if equal_key (Array.unsafe_get kv (2 * j)) key then j
  else scan kv key (j - 1)

(** The slot of [key]'s entry in bucket [b], newest first, or [-1]. *)
let bucket_find bk b key =
  let kv = bk.bk_kv.(b) in
  scan kv key (min bk.bk_n.(b) (Array.length kv / 2) - 1)

let bucket_value bk b j = bk.bk_kv.(b).((2 * j) + 1)

let bucket_set bk b j v = bk.bk_kv.(b).((2 * j) + 1) <- v

(** Add an entry for a key the bucket does not hold; it becomes the
    bucket's newest.  Capacity doubles, from two entries. *)
let bucket_add bk b key v =
  let n = bk.bk_n.(b) in
  let kv = bk.bk_kv.(b) in
  let kv =
    if 2 * n < Array.length kv then kv
    else begin
      let grown = Array.make (max 4 (4 * n)) VUnit in
      Array.blit kv 0 grown 0 (2 * n);
      bk.bk_kv.(b) <- grown;
      grown
    end
  in
  kv.(2 * n) <- key;
  kv.((2 * n) + 1) <- v;
  bk.bk_n.(b) <- n + 1

(** Drop the entry at slot [j], keeping the others in order. *)
let bucket_remove bk b j =
  let n = bk.bk_n.(b) in
  let kv = bk.bk_kv.(b) in
  Array.blit kv ((2 * j) + 2) kv (2 * j) (2 * (n - 1 - j));
  kv.((2 * n) - 2) <- VUnit;
  kv.((2 * n) - 1) <- VUnit;
  bk.bk_n.(b) <- n - 1

(** The entries of [old] rehashed into [n] buckets, visited in
    iteration order, so within a new bucket the last one visited is the
    newest. *)
let rehash old n =
  let bk = make_buckets n in
  Array.iteri
    (fun b kv ->
      for j = old.bk_n.(b) - 1 downto 0 do
        let key = kv.(2 * j) in
        bucket_add bk (bucket_index bk key) key kv.((2 * j) + 1)
      done)
    old.bk_kv;
  bk

(** Every key, in iteration order. *)
let bucket_keys bk =
  let keys = ref [] in
  for b = Array.length bk.bk_kv - 1 downto 0 do
    let kv = bk.bk_kv.(b) in
    for j = 0 to bk.bk_n.(b) - 1 do
      keys := kv.(2 * j) :: !keys
    done
  done;
  !keys

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
  | VPtr _ | VIptr _ -> "<ptr>"
  | VSlice s ->
    let elems =
      List.init s.s_len (fun i ->
          to_string ?heap (read_elem s.s_cells (s.s_off + i)))
    in
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
