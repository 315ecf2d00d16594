(** The tcfree family (paper §5, Table 4): best-effort explicit
    deallocation that gives up rather than compromise safety. *)

type outcome =
  | Freed of int  (** bytes reclaimed *)
  | Gave_up of Metrics.giveup

(** [tcfree heap ~thread ~source obj] — the dispatching primitive.
    Small objects take the mcache fast path (ownership checked); large
    objects take the 2-step dangling-span path of fig. 9.  Never raises:
    double frees, stack objects, {!Heap.no_obj} and foreign spans all
    give up. *)
val tcfree :
  Heap.t -> thread:int -> source:Metrics.free_source -> Heap.obj -> outcome
