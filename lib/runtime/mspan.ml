(** mspans: runs of pages carved into equally-sized slots (paper §3.3).

    A span is owned by exactly one place at a time: a thread's mcache (so
    allocation and tcfree on it are lock-free), the mcentral (shared,
    requires "locking" — modelled as a tcfree give-up), dangling (large
    span in the middle of the 2-step free of fig. 9), or free.

    A span also records, per slot, what the sweep needs to know about
    its occupant — address, requested size, category and the epoch of
    the last mark that reached it — so the collector sweeps span by span
    and the heap holds no reference to the objects it allocated.  These
    live in unboxed arrays made with the span. *)

type state =
  | In_mcache of int  (** owned by thread/P [i] *)
  | In_mcentral
  | Dangling  (** large span: pages already returned, struct awaiting GC *)
  | Free

type occupant = ..

type occupant += Vacant

type t = {
  span_id : int;
  class_idx : int;  (** −1 for a dedicated large-object span *)
  npages : int;
  slot_size : int;
  nslots : int;
  alloc_bits : Bytes.t;
  occ : int array;
      (** two words per slot, read together by the mark: [2 * slot] the
          occupant's address (0 when free), [2 * slot + 1] the epoch of
          the last mark that reached it *)
  sizes : int array;  (** per slot: the occupant's requested bytes *)
  cats : Bytes.t;  (** per slot: the occupant's category index *)
  mutable nmarked : int;
      (** slots the running collection's mark stamped; the sweep resets it *)
  mutable occupants : occupant array;
      (** per slot in poison mode, so the sweep can poison what it frees;
          empty otherwise *)
  free_stack : int array;
      (** slots freed by tcfree/sweep below [free_index]:
          [free_stack.(0 .. free_top - 1)], most recent last *)
  mutable free_top : int;
  mutable free_index : int;  (** next never-used slot (bump pointer) *)
  mutable allocated : int;  (** live slots *)
  mutable state : state;
}

(* Atomic: the serve daemon runs programs on parallel worker domains,
   and every heap's spans draw ids from this one counter. *)
let next_id = Atomic.make 0

let create ~class_idx ~npages ~slot_size ~nslots =
  {
    span_id = Atomic.fetch_and_add next_id 1 + 1;
    class_idx;
    npages;
    slot_size;
    nslots;
    alloc_bits = Bytes.make nslots '\000';
    occ = Array.make (2 * nslots) 0;
    sizes = Array.make nslots 0;
    cats = Bytes.make nslots '\000';
    nmarked = 0;
    occupants = [||];
    free_stack = Array.make nslots 0;
    free_top = 0;
    free_index = 0;
    allocated = 0;
    state = Free;
  }

let create_small class_idx =
  let npages = Sizeclass.pages_for_class class_idx in
  let slot_size = Sizeclass.class_size class_idx in
  let nslots = npages * Sizeclass.page_size / slot_size in
  create ~class_idx ~npages ~slot_size ~nslots

let create_large bytes =
  let npages = Sizeclass.pages_for_large bytes in
  create ~class_idx:(-1) ~npages ~slot_size:bytes ~nslots:1

let slot_allocated t slot = Bytes.get t.alloc_bits slot <> '\000'

let set_slot t slot b =
  Bytes.set t.alloc_bits slot (if b then '\001' else '\000')

let[@inline] addr t slot = t.occ.(2 * slot)

let[@inline] mark t slot = t.occ.((2 * slot) + 1)

let[@inline] set_mark t slot epoch = t.occ.((2 * slot) + 1) <- epoch

let is_full t = t.free_index >= t.nslots && t.free_top = 0

let free_slots t =
  List.init t.free_top (fun i -> t.free_stack.(t.free_top - 1 - i))

(** Allocate one slot: pop the free stack, else bump the free index; −1
    when the span is full. *)
let alloc_slot t =
  let top = t.free_top in
  if top > 0 then begin
    let slot = t.free_stack.(top - 1) in
    t.free_top <- top - 1;
    set_slot t slot true;
    t.allocated <- t.allocated + 1;
    slot
  end
  else
    let slot = t.free_index in
    if slot < t.nslots then begin
      t.free_index <- slot + 1;
      set_slot t slot true;
      t.allocated <- t.allocated + 1;
      slot
    end
    else -1

(** Record the occupant of an allocated slot.  Its mark is left as the
    previous occupant's: marks are read only during a collection, whose
    epoch is newer than any stamp made before the slot was taken. *)
let fill t slot ~addr ~size ~cat =
  t.occ.(2 * slot) <- addr;
  t.sizes.(slot) <- size;
  Bytes.set t.cats slot (Char.chr cat)

(** Free one slot.  If it is the top of the bump region, the free index
    is reverted (cascading over already-freed slots below it) — the
    cheap path the paper's TcfreeSmall relies on; otherwise it goes on
    the span's free stack. *)
let free_slot t slot =
  assert (slot_allocated t slot);
  set_slot t slot false;
  t.occ.(2 * slot) <- 0;
  if Array.length t.occupants > 0 then t.occupants.(slot) <- Vacant;
  t.allocated <- t.allocated - 1;
  if slot = t.free_index - 1 then begin
    (* revert the allocator pointer over the trailing run of free slots *)
    let idx = ref slot in
    while !idx >= 0 && not (slot_allocated t !idx) do
      decr idx
    done;
    t.free_index <- !idx + 1;
    (* drop reverted slots from the free stack, in place, in order *)
    let kept = ref 0 in
    for i = 0 to t.free_top - 1 do
      let s = t.free_stack.(i) in
      if s < t.free_index then begin
        t.free_stack.(!kept) <- s;
        incr kept
      end
    done;
    t.free_top <- !kept
  end
  else begin
    t.free_stack.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1
  end
