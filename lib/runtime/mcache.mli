(** Per-thread (per-P) span cache: the lock-free top allocation layer
    (paper §3.3). *)

type t = {
  thread_id : int;
  spans : Mspan.t option array;  (** current span per size class *)
}

val create : int -> t

(** Allocate a slot of the class, swapping in a new span from mcentral
    when the cached one fills up.  Returns the slot index; the slot is in
    {!span} of the class. *)
val alloc : t -> Mcentral.t -> int -> int

(** The span the class currently allocates from.
    @raise Invalid_argument before the class's first {!alloc}. *)
val span : t -> int -> Mspan.t

(** Whether this cache currently owns [span] — the TcfreeSmall fast-path
    condition. *)
val owns : t -> Mspan.t -> bool

(** Return every cached span to mcentral (thread exit / migration). *)
val flush : t -> Mcentral.t -> unit
