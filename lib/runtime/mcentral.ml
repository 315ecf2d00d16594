(** mcentral: the shared middle layer between per-thread mcaches and the
    page heap (paper §3.3).

    One bucket per size class holding spans that still have free slots
    (partial) and spans with none (full).  When an mcache's span fills up
    it is pushed here; the mcache then pulls a partial span or asks the
    page heap for a fresh one.  Large-object spans live outside mcentral
    entirely (they take the 2-step tcfree path of fig. 9). *)

type t = {
  partial : Mspan.t list array;  (** per class: spans with free slots *)
  full : Mspan.t list array;
  pages : Pageheap.t;
  lock : Mutex.t;
  mutable locked : bool;
      (** true in a heap with more than one domain: span acquire/release
          and rebucketing then serialize on [lock] *)
}

let create pages =
  {
    partial = Array.make Sizeclass.n_classes [];
    full = Array.make Sizeclass.n_classes [];
    pages;
    lock = Mutex.create ();
    locked = false;
  }

let acquire_span_unlocked t class_idx ~for_thread : Mspan.t =
  match t.partial.(class_idx) with
  | span :: rest ->
    t.partial.(class_idx) <- rest;
    span.Mspan.state <- Mspan.In_mcache for_thread;
    span
  | [] ->
    let span = Mspan.create_small class_idx in
    Pageheap.alloc_pages t.pages span.Mspan.npages;
    span.Mspan.state <- Mspan.In_mcache for_thread;
    span

(** Take a span with free capacity for [class_idx], pulling from the
    partial list or creating one from the page heap. *)
let acquire_span t class_idx ~for_thread : Mspan.t =
  if t.locked then begin
    Mutex.lock t.lock;
    let span = acquire_span_unlocked t class_idx ~for_thread in
    Mutex.unlock t.lock;
    span
  end
  else acquire_span_unlocked t class_idx ~for_thread

(** Return a span from an mcache (it filled up, or its thread exited). *)
let release_span t (span : Mspan.t) =
  if t.locked then Mutex.lock t.lock;
  span.Mspan.state <- Mspan.In_mcentral;
  if Mspan.is_full span then
    t.full.(span.Mspan.class_idx) <-
      span :: t.full.(span.Mspan.class_idx)
  else
    t.partial.(span.Mspan.class_idx) <-
      span :: t.partial.(span.Mspan.class_idx);
  if t.locked then Mutex.unlock t.lock

(** Apply [f] to every span this mcentral holds, partial and full. *)
let iter_spans t f =
  for c = 0 to Sizeclass.n_classes - 1 do
    List.iter f t.partial.(c);
    List.iter f t.full.(c)
  done

(** After a GC sweep some full spans have free slots again and some spans
    are completely empty; rebucket them and return empty spans' pages. *)
let rebucket_after_sweep t =
  if t.locked then Mutex.lock t.lock;
  for c = 0 to Sizeclass.n_classes - 1 do
    let all = t.partial.(c) @ t.full.(c) in
    let keep, empty =
      List.partition (fun (s : Mspan.t) -> s.Mspan.allocated > 0) all
    in
    List.iter
      (fun (s : Mspan.t) ->
        s.Mspan.state <- Mspan.Free;
        Pageheap.free_pages t.pages s.Mspan.npages)
      empty;
    let partial, full = List.partition (fun s -> not (Mspan.is_full s)) keep in
    t.partial.(c) <- partial;
    t.full.(c) <- full
  done;
  if t.locked then Mutex.unlock t.lock
