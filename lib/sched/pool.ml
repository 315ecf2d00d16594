(** Bounded work queue feeding a fixed pool of worker [Domain]s.

    Jobs are held in per-{e key} FIFO queues drained {e round-robin}
    across the keys: the daemon keys submissions by client connection,
    so one client pipelining hundreds of requests cannot starve the
    others — each rotation serves at most one job per key.

    Admission never blocks: past the given high-watermark {!try_submit}
    returns [`Full] and the caller sheds the work explicitly (the
    daemon's [overloaded] response).

    {!shutdown} stops intake, lets the workers finish every queued job
    (drain semantics — in-flight requests still get their responses)
    and joins the domains. *)

type job = unit -> unit

type t = {
  queues : (int, job Queue.t) Hashtbl.t;  (** key → pending jobs *)
  rotation : int Queue.t;
      (** keys holding at least one job, served front-to-back; a key
          re-enters at the back after yielding one job *)
  mutex : Mutex.t;
  not_empty : Condition.t;
  capacity : int;
  mutable depth : int;  (** total queued jobs, across keys *)
  mutable max_depth : int;  (** high-watermark of [depth] over the pool's life *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

let default_workers () =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

(* Callers must hold [t.mutex]. *)
let enqueue_locked (t : t) ~key job =
  (match Hashtbl.find_opt t.queues key with
  | Some q -> Queue.push job q
  | None ->
    let q = Queue.create () in
    Queue.push job q;
    Hashtbl.replace t.queues key q;
    Queue.push key t.rotation);
  t.depth <- t.depth + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth;
  Condition.signal t.not_empty

(* Round-robin pop: the front key yields one job and, if it still has
   work, rejoins the rotation at the back.  Callers must hold [t.mutex]
   and have checked [depth > 0]. *)
let dequeue_locked (t : t) : job =
  let key = Queue.pop t.rotation in
  let q = Hashtbl.find t.queues key in
  let job = Queue.pop q in
  if Queue.is_empty q then Hashtbl.remove t.queues key
  else Queue.push key t.rotation;
  t.depth <- t.depth - 1;
  job

let worker (t : t) ~domain_init (index : int) () =
  Gofree_obs.Trace.set_domain_tid (Gofree_obs.Trace.tid_worker (16 + index));
  domain_init ();
  let rec loop () =
    Mutex.lock t.mutex;
    while t.depth = 0 && not t.stopping do
      Condition.wait t.not_empty t.mutex
    done;
    if t.depth = 0 then begin
      (* stopping and nothing left: drain complete *)
      Mutex.unlock t.mutex
    end
    else begin
      let job = dequeue_locked t in
      Mutex.unlock t.mutex;
      (try job () with _ -> ());
      loop ()
    end
  in
  loop ()

let create ?(workers = 0) ?(capacity = 64) ~domain_init () : t =
  let workers = if workers > 0 then workers else default_workers () in
  let t =
    {
      queues = Hashtbl.create 16;
      rotation = Queue.create ();
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      capacity = max 1 capacity;
      depth = 0;
      max_depth = 0;
      stopping = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init workers (fun i -> Domain.spawn (worker t ~domain_init i));
  t

let size (t : t) = Array.length t.workers

(** Queued (not yet started) jobs — the [stats] request's queue depth. *)
let queue_depth (t : t) : int =
  Mutex.lock t.mutex;
  let n = t.depth in
  Mutex.unlock t.mutex;
  n

(** Deepest the queue has ever been — the [queue_high_watermark]
    counter. *)
let max_queue_depth (t : t) : int =
  Mutex.lock t.mutex;
  let n = t.max_depth in
  Mutex.unlock t.mutex;
  n

let capacity (t : t) = t.capacity

(** Non-blocking admission: enqueue [job] under [key] unless the queue
    already holds [watermark] jobs (default: capacity) — then [`Full],
    and the caller sheds.  [`Stopping] when the pool no longer accepts
    work. *)
let try_submit ?(key = 0) ?watermark (t : t) (job : job) :
    [ `Accepted | `Full | `Stopping ] =
  let watermark =
    match watermark with
    | Some w -> min (max 1 w) t.capacity
    | None -> t.capacity
  in
  Mutex.lock t.mutex;
  let outcome =
    if t.stopping then `Stopping
    else if t.depth >= watermark then `Full
    else begin
      enqueue_locked t ~key job;
      `Accepted
    end
  in
  Mutex.unlock t.mutex;
  outcome

(** Stop intake, run every already-queued job to completion, join the
    workers.  Idempotent. *)
let shutdown (t : t) : unit =
  Mutex.lock t.mutex;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mutex;
  if not already then Array.iter Domain.join t.workers
