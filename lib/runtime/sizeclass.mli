(** TCMalloc-style size classes (paper §3.3). *)

val page_size : int

(** Largest small-object size; anything above gets a dedicated span. *)
val max_small : int

(** Class sizes, ascending; first 8, last {!max_small}. *)
val sizes : int array

val n_classes : int

(** Smallest class whose slot fits [bytes]; −1 for large objects.
    O(1) via direct-mapped size→class tables (Go's size_to_class8
    scheme). *)
val class_for_size : int -> int

(** The original binary-search lookup, kept as the oracle the table
    lookup is property-tested against. *)
val class_for_size_search : int -> int

val class_size : int -> int

(** Pages per span of a class, keeping slot waste under ~12.5%. *)
val pages_for_class : int -> int

val pages_for_large : int -> int
