(** Open-addressing hash table from positive int keys to ['a], the
    heap's object store.  Every simulated allocation (heap or stack)
    inserts here and every free removes, so this sits on the hottest
    mutator path of both execution engines; unlike [Hashtbl] an
    insert allocates nothing (no bucket cons, no boxed key) and a probe
    touches two flat arrays.

    Linear probing over a power-of-two capacity.  [keys] doubles as the
    slot state: [0] = never used, [-1] = tombstone (deleted), anything
    positive is a live key.  A shard grows (or rehashes in place to
    clear tombstones) when live + tombstones exceed half the capacity,
    so probe chains stay short.  Values of removed slots are reset to
    [dummy] so the table never retains a dead object.

    For the multi-domain runtime the table is internally sharded by the
    key's low bits — addresses are a counter, so consecutive
    allocations round-robin across shards — with an optional per-shard
    mutex ([locked:true]).  The default single unlocked shard is the
    sequential configuration and adds only one array load per
    operation over the flat layout. *)

type 'a shard = {
  mutable keys : int array;  (* 0 empty / -1 tombstone / key *)
  mutable vals : 'a array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable live : int;
  mutable used : int;  (* live + tombstones *)
  dummy : 'a;
}

type 'a t = {
  shards : 'a shard array;
  smask : int;  (* nshards - 1; nshards is a power of two *)
  locks : Mutex.t array;  (* same length as [shards] *)
  locked : bool;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = 4096) ?(shards = 1) ?(locked = false) ~dummy () =
  let ns = pow2_at_least (max 1 shards) 1 in
  let cap = pow2_at_least (max 16 (capacity / ns)) 16 in
  let mk_shard () =
    {
      keys = Array.make cap 0;
      vals = Array.make cap dummy;
      mask = cap - 1;
      live = 0;
      used = 0;
      dummy;
    }
  in
  {
    shards = Array.init ns (fun _ -> mk_shard ());
    smask = ns - 1;
    locks = Array.init ns (fun _ -> Mutex.create ());
    locked;
  }

(* Multiplicative mixing: consecutive addresses (the common case —
   [Heap.fresh_addr] is a counter) land on an odd stride that cycles
   through the whole shard, and the xor-shift spreads any structured
   keys. *)
let slot_of s k =
  let h = k * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land s.mask

let[@inline] shard_idx t k = k land t.smask

(* The probes are top-level recursions over explicit arguments, and
   every public operation takes its shard's lock by hand rather than
   through a higher-order helper: a probe, insert or removal allocates
   nothing on the OCaml heap, not even a closure. *)

let rec probe keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k then i
  else if key = 0 then -1
  else probe keys mask k ((i + 1) land mask)

(** Index of [k]'s slot in its shard, or [-1] if absent. *)
let find_slot s k = probe s.keys s.mask k (slot_of s k)

let s_find s k =
  let i = find_slot s k in
  if i < 0 then s.dummy else Array.unsafe_get s.vals i

let find t k =
  let i = shard_idx t k in
  let s = Array.unsafe_get t.shards i in
  if t.locked then begin
    let l = Array.unsafe_get t.locks i in
    Mutex.lock l;
    let v = s_find s k in
    Mutex.unlock l;
    v
  end
  else s_find s k

let length t =
  Array.fold_left (fun acc s -> acc + s.live) 0 t.shards

let iter_shard f s =
  let keys = s.keys in
  for i = 0 to Array.length keys - 1 do
    let key = Array.unsafe_get keys i in
    if key > 0 then f key (Array.unsafe_get s.vals i)
  done

let iter f t = Array.iter (iter_shard f) t.shards

let fold_over_shard f s init =
  let keys = s.keys in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let key = Array.unsafe_get keys i in
    if key > 0 then acc := f key (Array.unsafe_get s.vals i) !acc
  done;
  !acc

let fold f t init =
  Array.fold_left (fun acc s -> fold_over_shard f s acc) init t.shards

(* Insert a key known to be absent, into a shard with no tombstones
   (only used right after allocating fresh arrays). *)
let add_fresh s k v =
  let keys = s.keys in
  let mask = s.mask in
  let rec probe i =
    if Array.unsafe_get keys i = 0 then begin
      Array.unsafe_set keys i k;
      Array.unsafe_set s.vals i v
    end
    else probe ((i + 1) land mask)
  in
  probe (slot_of s k)

let rehash s =
  (* Grow while more than a quarter full of live entries; otherwise the
     same capacity back, just clearing tombstones. *)
  let old_keys = s.keys in
  let old_vals = s.vals in
  let cap = Array.length old_keys in
  let new_cap = if s.live * 4 >= cap then cap * 2 else cap in
  s.keys <- Array.make new_cap 0;
  s.vals <- Array.make new_cap s.dummy;
  s.mask <- new_cap - 1;
  s.used <- s.live;
  for i = 0 to cap - 1 do
    let key = Array.unsafe_get old_keys i in
    if key > 0 then add_fresh s key (Array.unsafe_get old_vals i)
  done

(* Probe for [k], remembering the first reusable (tombstone) slot. *)
let rec probe_insert s k v keys mask i reuse =
  let key = Array.unsafe_get keys i in
  if key = k then Array.unsafe_set s.vals i v
  else if key = 0 then begin
    let target = if reuse >= 0 then reuse else i in
    Array.unsafe_set keys target k;
    Array.unsafe_set s.vals target v;
    s.live <- s.live + 1;
    if reuse < 0 then begin
      s.used <- s.used + 1;
      if s.used * 2 >= Array.length keys then rehash s
    end
  end
  else
    probe_insert s k v keys mask ((i + 1) land mask)
      (if reuse < 0 && key = -1 then i else reuse)

let s_replace s k v = probe_insert s k v s.keys s.mask (slot_of s k) (-1)

let replace t k v =
  let i = shard_idx t k in
  let s = Array.unsafe_get t.shards i in
  if t.locked then begin
    let l = Array.unsafe_get t.locks i in
    Mutex.lock l;
    s_replace s k v;
    Mutex.unlock l
  end
  else s_replace s k v

let s_remove s k =
  let i = find_slot s k in
  if i >= 0 then begin
    Array.unsafe_set s.keys i (-1);
    Array.unsafe_set s.vals i s.dummy;
    s.live <- s.live - 1
  end

let remove t k =
  let i = shard_idx t k in
  let s = Array.unsafe_get t.shards i in
  if t.locked then begin
    let l = Array.unsafe_get t.locks i in
    Mutex.lock l;
    s_remove s k;
    Mutex.unlock l
  end
  else s_remove s k
