(** Page-level accounting: the bottom of the allocator stack.

    Pages are never handed back to the "OS" during a run; a freed span's
    pages go to a free pool that later span creations draw from first,
    which is what Go's page allocator does within one heap arena. *)

type t = {
  mutable mapped_pages : int;  (** high-water mark of pages ever used *)
  mutable free_pages : int;  (** pages in the reuse pool *)
  mutable used_pages : int;  (** pages currently backing live spans *)
  mutable max_used_pages : int;
      (** peak of [used_pages]: the paper's "maxheap" — heap size as the
          process sees it, which only shrinks when whole spans release
          their pages *)
  mutable idle_spans : Mspan.t list;  (** recycled span structs *)
  lock : Mutex.t;
  mutable locked : bool;
      (** true in a heap with more than one domain: page transitions then
          take [lock], since every domain's mcache refill ends here *)
}

let create () =
  { mapped_pages = 0; free_pages = 0; used_pages = 0; max_used_pages = 0;
    idle_spans = []; lock = Mutex.create (); locked = false }

let alloc_pages t n =
  if t.locked then Mutex.lock t.lock;
  if t.free_pages >= n then t.free_pages <- t.free_pages - n
  else begin
    let fresh = n - t.free_pages in
    t.free_pages <- 0;
    t.mapped_pages <- t.mapped_pages + fresh
  end;
  t.used_pages <- t.used_pages + n;
  if t.used_pages > t.max_used_pages then t.max_used_pages <- t.used_pages;
  if t.locked then Mutex.unlock t.lock

let free_pages t n =
  if t.locked then Mutex.lock t.lock;
  t.free_pages <- t.free_pages + n;
  t.used_pages <- t.used_pages - n;
  if t.locked then Mutex.unlock t.lock

let mapped_bytes t = t.mapped_pages * Sizeclass.page_size

let max_used_bytes t = t.max_used_pages * Sizeclass.page_size

let used_bytes t = t.used_pages * Sizeclass.page_size
