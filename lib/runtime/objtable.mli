(** Open-addressing hash table from positive int keys to ['a] — the
    heap's object store.  Inserts, probes and removals allocate nothing
    (no option, no closure); see the implementation for the tombstone
    scheme.  Keys must be positive.

    Internally sharded by the key's low bits.  The default is one
    unlocked shard (the sequential configuration); the multi-domain
    heap creates it with [~shards:(ndomains)] and [~locked:true], which
    guards every shard with its own mutex. *)

type 'a t

(** [dummy] fills empty value slots so removed entries are not
    retained.  [shards] is rounded up to a power of two. *)
val create :
  ?capacity:int -> ?shards:int -> ?locked:bool -> dummy:'a -> unit -> 'a t

(** Number of live entries (sums shard counts without locking — exact
    only when no domain is mutating). *)
val length : 'a t -> int

(** The entry for a key, or the table's [dummy] when there is none.
    Allocates nothing. *)
val find : 'a t -> int -> 'a

(** Insert, overwriting any existing entry for the key. *)
val replace : 'a t -> int -> 'a -> unit

(** Remove if present. *)
val remove : 'a t -> int -> unit

(** Live entries, in unspecified order. *)
val iter : (int -> 'a -> unit) -> 'a t -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
