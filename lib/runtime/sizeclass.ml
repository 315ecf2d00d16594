(** TCMalloc-style size classes (paper §3.3).

    Small objects are rounded up to one of ~60 size classes and allocated
    from per-class spans; anything above {!max_small} gets a dedicated
    span of whole pages, like Go's large-object path.  The class table is
    generated the way Go's is: 8-byte steps at the bottom, growing by
    roughly 12.5% per class above 128 bytes, capped at 32 KiB. *)

let page_size = 8192

let max_small = 32768

(* Class sizes, ascending.  Generated once at startup. *)
let sizes : int array =
  let round_up v align = (v + align - 1) / align * align in
  let rec gen acc size =
    if size >= max_small then List.rev (max_small :: acc)
    else begin
      let align =
        if size <= 128 then 8
        else if size <= 1024 then 16
        else if size <= 8192 then 128
        else 1024
      in
      let next = round_up (size + (size / 8) + 1) align in
      gen (size :: acc) next
    end
  in
  Array.of_list (gen [] 8)

let n_classes = Array.length sizes

(** Reference lookup, kept as the oracle for the direct-mapped tables
    below (and their equivalence test). *)
let class_for_size_search bytes =
  if bytes > max_small then -1
  else begin
    (* binary search for the first class >= bytes *)
    let lo = ref 0 and hi = ref (n_classes - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sizes.(mid) >= bytes then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* Direct-mapped size→class tables, Go's size_to_class8/size_to_class128
   scheme.  Two granularities: 8-byte buckets up to [small_cutoff] and
   16-byte buckets above it.  Go's second table uses 128-byte buckets,
   but our generated class sizes above 1024 are 16-aligned rather than
   128-aligned (e.g. 1168), so 16 is the coarsest granularity that maps
   every bucket to the minimal class without changing the class table
   itself. *)

let small_cutoff = 1024

(* size_to_class8.(divRoundUp s 8) for s <= small_cutoff *)
let size_to_class8 : int array =
  let t = Array.make ((small_cutoff / 8) + 1) 0 in
  let cls = ref 0 in
  for bucket = 1 to small_cutoff / 8 do
    let bytes = bucket * 8 in
    while sizes.(!cls) < bytes do
      incr cls
    done;
    t.(bucket) <- !cls
  done;
  t

(* size_to_class16.(divRoundUp (s - small_cutoff) 16) for
   small_cutoff < s <= max_small *)
let size_to_class16 : int array =
  let t = Array.make (((max_small - small_cutoff) / 16) + 1) 0 in
  let cls = ref 0 in
  for bucket = 1 to (max_small - small_cutoff) / 16 do
    let bytes = small_cutoff + (bucket * 16) in
    while sizes.(!cls) < bytes do
      incr cls
    done;
    t.(bucket) <- !cls
  done;
  t

(** Smallest class index whose size fits [bytes]; −1 for large
    objects.  O(1): one table load on both small-object branches. *)
let class_for_size bytes =
  if bytes <= small_cutoff then
    if bytes <= 0 then 0 else size_to_class8.((bytes + 7) lsr 3)
  else if bytes <= max_small then
    size_to_class16.((bytes - small_cutoff + 15) lsr 4)
  else -1

let class_size idx = sizes.(idx)

(** Number of pages a span of this class occupies: enough that slot waste
    stays under ~12.5%, like Go's class_to_allocnpages table. *)
let pages_for_class idx =
  let size = sizes.(idx) in
  let rec try_pages n =
    let span_bytes = n * page_size in
    let slots = span_bytes / size in
    let waste = span_bytes - (slots * size) in
    if slots >= 1 && waste * 8 <= span_bytes then n else try_pages (n + 1)
  in
  try_pages 1

let pages_for_large bytes = (bytes + page_size - 1) / page_size
