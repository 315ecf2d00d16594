(** Per-thread (per-P) span cache: the top, lock-free allocation layer
    (paper §3.3).

    Each logical processor owns at most one span per size class.  All
    allocations and the fast tcfree path operate on these spans without
    synchronization — the model's analogue of TCMalloc's thread caches. *)

type t = {
  thread_id : int;
  spans : Mspan.t option array;  (** per size class *)
}

let create thread_id =
  { thread_id; spans = Array.make Sizeclass.n_classes None }

(* Refill path: the cached span is absent or full.  Out of line so the
   hit path below stays closure-free and small enough to inline. *)
let rec alloc_refill t (central : Mcentral.t) class_idx =
  (match t.spans.(class_idx) with
  | Some span ->
    (* span has filled: hand it to mcentral before acquiring a new one *)
    Mcentral.release_span central span;
    t.spans.(class_idx) <- None
  | None -> ());
  let span =
    Mcentral.acquire_span central class_idx ~for_thread:t.thread_id
  in
  t.spans.(class_idx) <- Some span;
  let slot = Mspan.alloc_slot span in
  if slot >= 0 then slot else alloc_refill t central class_idx

(** Allocate a slot of [class_idx]; swaps in a new span from mcentral
    when the cached one is full.  Returns the slot, in {!span}
    [t class_idx].  The common case — cached span with a free slot —
    allocates nothing. *)
let alloc t (central : Mcentral.t) class_idx =
  match t.spans.(class_idx) with
  | Some span ->
    let slot = Mspan.alloc_slot span in
    if slot >= 0 then slot else alloc_refill t central class_idx
  | None -> alloc_refill t central class_idx

(** The span [class_idx] allocates from: the one {!alloc} last returned
    a slot of. *)
let span t class_idx =
  match t.spans.(class_idx) with
  | Some span -> span
  | None -> invalid_arg "Mcache.span: no span cached for the class"

(** Whether [span] is currently owned by this cache — the condition the
    paper's TcfreeSmall requires for the lock-free fast path. *)
let owns t (span : Mspan.t) =
  match t.spans.(span.Mspan.class_idx) with
  | Some s -> s.Mspan.span_id = span.Mspan.span_id
  | None -> false

(** Flush all cached spans back to mcentral (thread exit / migration). *)
let flush t (central : Mcentral.t) =
  Array.iteri
    (fun c span ->
      match span with
      | Some s ->
        Mcentral.release_span central s;
        t.spans.(c) <- None
      | None -> ())
    t.spans
