(** Runtime metrics (paper Table 5, plus the accounting that Tables 8–9
    need).

    The heap keeps one record per logical processor (a stripe) and
    every allocation / free / GC event updates the stripe of the domain
    it happens on; {!Heap.merged_metrics} sums them into the run's
    record.  The live-byte count and its peak are not striped: the heap
    keeps them in one atomic count and fills in [heap_live] and
    [max_heap] when it merges. *)

(** What kind of data an allocation carries, for Table 8's
    slices/maps/others split. *)
type category = Cat_slice | Cat_map | Cat_other

(** Where reclaimed bytes come from, for Table 9. *)
type free_source =
  | Src_slice  (** TcfreeSlice at a slice's end of life *)
  | Src_map  (** TcfreeMap at a map's end of life *)
  | Src_map_grow  (** GrowMapAndFreeOld: the abandoned bucket array *)

(** Why a tcfree call gave up (§5). *)
type giveup =
  | Gc_running
  | Ownership_changed
  | Span_swapped_out
  | Already_freed  (** double free, tolerated *)
  | Stack_object
  | Not_an_object  (** nil or dangling value *)

type t = {
  (* Table 5 *)
  mutable alloced_bytes : int;  (** total heap allocation *)
  mutable freed_bytes : int;  (** total reclaimed by tcfree *)
  mutable gc_cycles : int;
  mutable gc_time_ns : int64;  (** wall time spent in mark+sweep *)
  mutable max_heap : int;  (** peak live heap bytes *)
  mutable max_heap_pages : int;
      (** peak span-backed heap bytes (pages in use): the paper's
          "maxheap" — filled in from the page heap at end of run *)
  mutable heap_live : int;
  (* Table 8: dynamic stack/heap decisions per category *)
  mutable stack_allocs : int array;  (** indexed by category *)
  mutable heap_allocs : int array;
  mutable tcfreed_objects : int array;  (** heap objects freed by tcfree *)
  mutable gc_freed_objects : int array;  (** heap objects reclaimed by GC *)
  (* Table 9 *)
  mutable freed_by_source : int array;  (** bytes, indexed by free_source *)
  (* tcfree behaviour *)
  mutable tcfree_calls : int;
  mutable tcfree_success : int;
  mutable giveups : int array;
  (* soundness counters *)
  mutable heap_to_stack_pointers : int;
      (** Go memory invariant 1 violations observed while marking; must
          stay 0 *)
  mutable poison_reads : int;
      (** reads of poisoned (mock-freed) memory; must stay 0 *)
  (* GC work, in objects *)
  mutable gc_marked_objects : int;
  mutable gc_swept_objects : int;
  mutable gc_scan_words : int;
      (** words of the marked heap objects whose payload the mark walks:
          Go's scan work, the pacer's unit *)
  mutable gc_spans_swept : int;  (** in-use spans the sweep walked *)
}

let category_index = function Cat_slice -> 0 | Cat_map -> 1 | Cat_other -> 2

let source_index = function Src_slice -> 0 | Src_map -> 1 | Src_map_grow -> 2

let giveup_index = function
  | Gc_running -> 0
  | Ownership_changed -> 1
  | Span_swapped_out -> 2
  | Already_freed -> 3
  | Stack_object -> 4
  | Not_an_object -> 5

let create () =
  {
    alloced_bytes = 0;
    freed_bytes = 0;
    gc_cycles = 0;
    gc_time_ns = 0L;
    max_heap = 0;
    max_heap_pages = 0;
    heap_live = 0;
    stack_allocs = Array.make 3 0;
    heap_allocs = Array.make 3 0;
    tcfreed_objects = Array.make 3 0;
    gc_freed_objects = Array.make 3 0;
    freed_by_source = Array.make 3 0;
    tcfree_calls = 0;
    tcfree_success = 0;
    giveups = Array.make 6 0;
    heap_to_stack_pointers = 0;
    poison_reads = 0;
    gc_marked_objects = 0;
    gc_swept_objects = 0;
    gc_scan_words = 0;
    gc_spans_swept = 0;
  }

let free_ratio m =
  if m.alloced_bytes = 0 then 0.0
  else float_of_int m.freed_bytes /. float_of_int m.alloced_bytes

let count_alloc m ~category ~heap ~bytes =
  let idx = category_index category in
  if heap then begin
    m.heap_allocs.(idx) <- m.heap_allocs.(idx) + 1;
    m.alloced_bytes <- m.alloced_bytes + bytes
  end
  else m.stack_allocs.(idx) <- m.stack_allocs.(idx) + 1

let count_tcfree m cidx ~source ~bytes =
  m.tcfreed_objects.(cidx) <- m.tcfreed_objects.(cidx) + 1;
  m.freed_bytes <- m.freed_bytes + bytes;
  let sidx = source_index source in
  m.freed_by_source.(sidx) <- m.freed_by_source.(sidx) + bytes

let count_gc_free m cidx =
  m.gc_freed_objects.(cidx) <- m.gc_freed_objects.(cidx) + 1

let count_giveup m reason =
  let idx = giveup_index reason in
  m.giveups.(idx) <- m.giveups.(idx) + 1

(* ------------------------------------------------------------------ *)
(* Striping support: per-domain shards merged into one record           *)
(* ------------------------------------------------------------------ *)

let add_arrays dst src =
  Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src

(** Accumulate [src] into [dst]: counters are summed, [max_heap_pages]
    takes the max.  [heap_live] and [max_heap] are left alone — the heap
    keeps them in one count and fills them in after merging. *)
let merge_into ~(dst : t) (src : t) =
  dst.alloced_bytes <- dst.alloced_bytes + src.alloced_bytes;
  dst.freed_bytes <- dst.freed_bytes + src.freed_bytes;
  dst.gc_cycles <- dst.gc_cycles + src.gc_cycles;
  dst.gc_time_ns <- Int64.add dst.gc_time_ns src.gc_time_ns;
  dst.max_heap_pages <- max dst.max_heap_pages src.max_heap_pages;
  add_arrays dst.stack_allocs src.stack_allocs;
  add_arrays dst.heap_allocs src.heap_allocs;
  add_arrays dst.tcfreed_objects src.tcfreed_objects;
  add_arrays dst.gc_freed_objects src.gc_freed_objects;
  add_arrays dst.freed_by_source src.freed_by_source;
  dst.tcfree_calls <- dst.tcfree_calls + src.tcfree_calls;
  dst.tcfree_success <- dst.tcfree_success + src.tcfree_success;
  add_arrays dst.giveups src.giveups;
  dst.heap_to_stack_pointers <-
    dst.heap_to_stack_pointers + src.heap_to_stack_pointers;
  dst.poison_reads <- dst.poison_reads + src.poison_reads;
  dst.gc_marked_objects <- dst.gc_marked_objects + src.gc_marked_objects;
  dst.gc_swept_objects <- dst.gc_swept_objects + src.gc_swept_objects;
  dst.gc_scan_words <- dst.gc_scan_words + src.gc_scan_words;
  dst.gc_spans_swept <- dst.gc_spans_swept + src.gc_spans_swept

let merged (shards : t array) : t =
  let dst = create () in
  Array.iter (fun s -> merge_into ~dst s) shards;
  dst

let sum = Array.fold_left ( + ) 0

(** Conservation invariants that must hold for any completed run,
    sequential or parallel (ISSUE 10's multi-domain gate):

    - every tcfree attempt either succeeded or gave up for a counted
      reason ([tcfree_calls] = [tcfree_success] + Σ giveups);
    - every success freed exactly one object
      ([tcfree_success] = Σ [tcfreed_objects]);
    - when the caller knows the surviving object count, every heap
      allocation is accounted for
      (Σ [heap_allocs] = Σ [tcfreed_objects] + Σ [gc_freed_objects] +
      [live_objects]).

    Returns [Error msg] naming the first violated equation. *)
let check_conservation ?live_objects (m : t) : (unit, string) result =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let giveups = sum m.giveups in
  if m.tcfree_calls <> m.tcfree_success + giveups then
    fail "tcfree_calls %d <> success %d + giveups %d" m.tcfree_calls
      m.tcfree_success giveups
  else if m.tcfree_success <> sum m.tcfreed_objects then
    fail "tcfree_success %d <> tcfreed objects %d" m.tcfree_success
      (sum m.tcfreed_objects)
  else
    match live_objects with
    | Some live
      when sum m.heap_allocs
           <> sum m.tcfreed_objects + sum m.gc_freed_objects + live ->
        fail "heap allocs %d <> tcfreed %d + gc_freed %d + live %d"
          (sum m.heap_allocs) (sum m.tcfreed_objects)
          (sum m.gc_freed_objects) live
    | _ -> Ok ()

let pp fmt m =
  Format.fprintf fmt
    "@[<v>alloced      %d bytes@,freed        %d bytes (ratio %.1f%%)@,\
     GCs          %d@,GC time      %.3f ms@,maxheap      %d live bytes (%d span bytes)@,\
     tcfree       %d calls, %d freed@,\
     stack allocs slices=%d maps=%d others=%d@,\
     heap allocs  slices=%d maps=%d others=%d@,\
     freed via    slice=%dB map=%dB mapgrow=%dB@]"
    m.alloced_bytes m.freed_bytes
    (100.0 *. free_ratio m)
    m.gc_cycles
    (Int64.to_float m.gc_time_ns /. 1e6)
    m.max_heap m.max_heap_pages m.tcfree_calls m.tcfree_success m.stack_allocs.(0)
    m.stack_allocs.(1) m.stack_allocs.(2) m.heap_allocs.(0)
    m.heap_allocs.(1) m.heap_allocs.(2) m.freed_by_source.(0)
    m.freed_by_source.(1) m.freed_by_source.(2)

(* ------------------------------------------------------------------ *)
(* Machine-readable export                                             *)
(* ------------------------------------------------------------------ *)

module Json = Gofree_obs.Json

let category_names = [| "slices"; "maps"; "others" |]

let source_names = [| "slice"; "map"; "map_grow" |]

let giveup_names =
  [|
    "gc_running"; "ownership_changed"; "span_swapped_out"; "already_freed";
    "stack_object"; "not_an_object";
  |]

let named_counts names arr =
  Json.Obj (List.init (Array.length names) (fun i ->
      (names.(i), Json.Int arr.(i))))

(** Full metrics record as a JSON tree (schema [gofree-metrics-v1]).
    Every counter of the paper's Tables 5/8/9 plus the soundness and GC
    work counters; [free_ratio] is included as a derived convenience. *)
let to_json (m : t) : Json.t =
  Json.Obj
    [
      Gofree_obs.Schema.(field Metrics);
      ("alloced_bytes", Json.Int m.alloced_bytes);
      ("freed_bytes", Json.Int m.freed_bytes);
      ("free_ratio", Json.Float (free_ratio m));
      ("gc_cycles", Json.Int m.gc_cycles);
      ("gc_time_ns", Json.Int (Int64.to_int m.gc_time_ns));
      ("max_heap", Json.Int m.max_heap);
      ("max_heap_pages", Json.Int m.max_heap_pages);
      ("heap_live", Json.Int m.heap_live);
      ("stack_allocs", named_counts category_names m.stack_allocs);
      ("heap_allocs", named_counts category_names m.heap_allocs);
      ("tcfreed_objects", named_counts category_names m.tcfreed_objects);
      ("gc_freed_objects", named_counts category_names m.gc_freed_objects);
      ("freed_by_source", named_counts source_names m.freed_by_source);
      ("tcfree_calls", Json.Int m.tcfree_calls);
      ("tcfree_success", Json.Int m.tcfree_success);
      ("giveups", named_counts giveup_names m.giveups);
      ("heap_to_stack_pointers", Json.Int m.heap_to_stack_pointers);
      ("poison_reads", Json.Int m.poison_reads);
      ("gc_marked_objects", Json.Int m.gc_marked_objects);
      ("gc_swept_objects", Json.Int m.gc_swept_objects);
      ("gc_scan_words", Json.Int m.gc_scan_words);
      ("gc_spans_swept", Json.Int m.gc_spans_swept);
    ]

(** Inverse of {!to_json}; raises {!Gofree_obs.Json.Parse_error} on shape
    mismatches.  Unknown fields are ignored so the schema can grow. *)
let of_json (j : Json.t) : t =
  Gofree_obs.Schema.(check_exn Metrics) j;
  let counts names field =
    let o = Json.get field j in
    Array.map (fun n -> Json.get_int n o) names
  in
  {
    alloced_bytes = Json.get_int "alloced_bytes" j;
    freed_bytes = Json.get_int "freed_bytes" j;
    gc_cycles = Json.get_int "gc_cycles" j;
    gc_time_ns = Int64.of_int (Json.get_int "gc_time_ns" j);
    max_heap = Json.get_int "max_heap" j;
    max_heap_pages = Json.get_int "max_heap_pages" j;
    heap_live = Json.get_int "heap_live" j;
    stack_allocs = counts category_names "stack_allocs";
    heap_allocs = counts category_names "heap_allocs";
    tcfreed_objects = counts category_names "tcfreed_objects";
    gc_freed_objects = counts category_names "gc_freed_objects";
    freed_by_source = counts source_names "freed_by_source";
    tcfree_calls = Json.get_int "tcfree_calls" j;
    tcfree_success = Json.get_int "tcfree_success" j;
    giveups = counts giveup_names "giveups";
    heap_to_stack_pointers = Json.get_int "heap_to_stack_pointers" j;
    poison_reads = Json.get_int "poison_reads" j;
    gc_marked_objects = Json.get_int "gc_marked_objects" j;
    gc_swept_objects = Json.get_int "gc_swept_objects" j;
    gc_scan_words = Json.get_int "gc_scan_words" j;
    gc_spans_swept = Json.get_int "gc_spans_swept" j;
  }
