(** Page-level accounting: the bottom of the allocator stack.  Pages are
    never unmapped during a run; freed spans' pages go to a reuse pool. *)

type t = {
  mutable mapped_pages : int;
  mutable free_pages : int;
  mutable used_pages : int;
  mutable max_used_pages : int;
      (** peak pages backing live spans — the paper's "maxheap" *)
  mutable idle_spans : Mspan.t list;
  lock : Mutex.t;
  mutable locked : bool;
      (** set by a heap with more than one domain; page transitions then
          take [lock] *)
}

val create : unit -> t

val alloc_pages : t -> int -> unit

val free_pages : t -> int -> unit

val mapped_bytes : t -> int

val max_used_bytes : t -> int

(** Bytes currently backing live spans (the sampler's span-backed curve). *)
val used_bytes : t -> int
