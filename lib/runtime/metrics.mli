(** Runtime metrics (paper Table 5, plus the accounting behind Tables
    8–9).  The heap keeps one record per logical processor and sums them
    with {!Heap.merged_metrics}, which also fills in [heap_live] and
    [max_heap] from its live-byte count: the [count_*] functions do not
    touch those two fields. *)

type category = Cat_slice | Cat_map | Cat_other

type free_source =
  | Src_slice  (** TcfreeSlice at a slice's end of life *)
  | Src_map  (** TcfreeMap at a map's end of life *)
  | Src_map_grow  (** GrowMapAndFreeOld *)

type giveup =
  | Gc_running
  | Ownership_changed
  | Span_swapped_out
  | Already_freed
  | Stack_object
  | Not_an_object

type t = {
  mutable alloced_bytes : int;
  mutable freed_bytes : int;
  mutable gc_cycles : int;
  mutable gc_time_ns : int64;
  mutable max_heap : int;  (** peak live bytes (filled in by the heap) *)
  mutable max_heap_pages : int;  (** peak span-backed bytes: the paper's maxheap *)
  mutable heap_live : int;  (** live bytes (filled in by the heap) *)
  mutable stack_allocs : int array;  (** by category *)
  mutable heap_allocs : int array;
  mutable tcfreed_objects : int array;
  mutable gc_freed_objects : int array;
  mutable freed_by_source : int array;  (** bytes, by free_source *)
  mutable tcfree_calls : int;
  mutable tcfree_success : int;
  mutable giveups : int array;
  mutable heap_to_stack_pointers : int;  (** invariant-1 violations; must be 0 *)
  mutable poison_reads : int;
  mutable gc_marked_objects : int;
  mutable gc_swept_objects : int;
  mutable gc_scan_words : int;
      (** words of the marked heap objects whose payload the mark walks
          (Go's scan work); deterministic at one domain *)
  mutable gc_spans_swept : int;  (** in-use spans the sweep walked *)
}

val category_index : category -> int

val source_index : free_source -> int

val giveup_index : giveup -> int

val create : unit -> t

(** freed / alloced, the paper's headline per-program metric. *)
val free_ratio : t -> float

val count_alloc : t -> category:category -> heap:bool -> bytes:int -> unit

(** [count_tcfree m cidx ~source ~bytes]: one object of category index
    [cidx] ({!category_index}) freed by tcfree. *)
val count_tcfree : t -> int -> source:free_source -> bytes:int -> unit

(** [count_gc_free m cidx]: one object of category index [cidx]
    ({!category_index}) swept by the GC. *)
val count_gc_free : t -> int -> unit

val count_giveup : t -> giveup -> unit

(** Accumulate a per-domain stripe into [dst]: counters summed,
    [max_heap_pages] maxed, [heap_live]/[max_heap] left alone. *)
val merge_into : dst:t -> t -> unit

(** Sum an array of per-domain shards into a fresh record. *)
val merged : t array -> t

(** Check the run-level conservation invariants (tcfree attempts =
    successes + giveups; successes = freed objects; and, given the
    surviving [live_objects] count, heap allocs = tcfreed + gc_freed +
    live).  [Error msg] names the first violated equation. *)
val check_conservation : ?live_objects:int -> t -> (unit, string) result

val pp : Format.formatter -> t -> unit

(** Name of a giveup counter, as used in the JSON export and the trace's
    tcfree instants. *)
val giveup_names : string array

(** Full metrics record as a JSON tree (schema [gofree-metrics-v1]). *)
val to_json : t -> Gofree_obs.Json.t

(** Inverse of {!to_json}; raises {!Gofree_obs.Json.Parse_error} on shape
    mismatches. *)
val of_json : Gofree_obs.Json.t -> t
