(** mspans: runs of pages carved into equally-sized slots (paper §3.3).

    Each span records, per slot, its occupant's address, requested size,
    category and last mark epoch, in unboxed arrays made with the span:
    the sweep walks spans, not objects. *)

(** Ownership state; tcfree's fast path requires [In_mcache] of the
    allocating thread. *)
type state =
  | In_mcache of int  (** owned by thread/P [i] *)
  | In_mcentral
  | Dangling  (** large span mid-way through the 2-step free (fig. 9) *)
  | Free

(** A slot's occupant object, kept only in poison mode; the heap adds the
    constructor that carries its object type. *)
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
      (** per slot in poison mode; empty otherwise *)
  free_stack : int array;
      (** [free_stack.(0 .. free_top - 1)]: freed slots below
          [free_index], most recent last *)
  mutable free_top : int;
  mutable free_index : int;  (** next never-used slot (bump pointer) *)
  mutable allocated : int;  (** live slots *)
  mutable state : state;
}

val create_small : int -> t
(** [create_small class_idx]: a span sized by
    {!Sizeclass.pages_for_class}. *)

val create_large : int -> t
(** [create_large bytes]: a one-slot dedicated span. *)

val slot_allocated : t -> int -> bool

(** The address recorded for a slot's occupant; 0 when free. *)
val addr : t -> int -> int

(** The epoch of the last mark that reached a slot. *)
val mark : t -> int -> int

val set_mark : t -> int -> int -> unit

val is_full : t -> bool

(** The free stack, most recently freed slot first: the order
    {!alloc_slot} reuses them in. *)
val free_slots : t -> int list

(** Pop the free stack or bump the free index; −1 when full. *)
val alloc_slot : t -> int

(** [fill t slot ~addr ~size ~cat]: record an allocated slot's occupant
    (its address, requested bytes and category index). *)
val fill : t -> int -> addr:int -> size:int -> cat:int -> unit

(** Free one slot and clear its occupant's address; reverts the bump
    pointer when the slot is on top (cascading over already-freed
    slots), otherwise pushes it on the free stack. *)
val free_slot : t -> int -> unit
