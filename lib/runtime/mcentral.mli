(** mcentral: the shared middle layer between mcaches and the page heap
    (paper §3.3). *)

type t = {
  partial : Mspan.t list array;  (** per class: spans with free slots *)
  full : Mspan.t list array;
  pages : Pageheap.t;
  lock : Mutex.t;
  mutable locked : bool;
      (** set by a heap with more than one domain; span acquire/release
          and rebucketing then serialize on [lock] *)
}

val create : Pageheap.t -> t

(** A span with free capacity for the class: a partial span if one
    exists, otherwise a fresh span from the page heap.  The span becomes
    owned by [for_thread]. *)
val acquire_span : t -> int -> for_thread:int -> Mspan.t

(** Hand a span back from an mcache. *)
val release_span : t -> Mspan.t -> unit

(** Apply a function to every span held here, partial and full (the
    sweep; the world is stopped, so no lock is taken). *)
val iter_spans : t -> (Mspan.t -> unit) -> unit

(** Post-sweep maintenance: re-bucket partial/full spans and return empty
    spans' pages to the page heap. *)
val rebucket_after_sweep : t -> unit
