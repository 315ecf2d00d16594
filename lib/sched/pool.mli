(** Bounded work queue feeding a fixed pool of worker [Domain]s.

    The daemon's request executor.  Jobs live in per-{e key} FIFO
    queues drained round-robin across keys, so a submitter keying by
    client gets per-client fairness.  {!shutdown} drains every accepted
    job before joining the workers. *)

type job = unit -> unit

type t

(** [create ?workers ?capacity ~domain_init ()] spawns the worker
    domains; each runs [domain_init] before its first job, for
    per-domain settings such as the minor heap size, which [Gc.set]
    applies to the calling domain only.  [workers <= 0] (the
    default) picks [min 4 (recommended_domain_count - 1)]. *)
val create :
  ?workers:int -> ?capacity:int -> domain_init:(unit -> unit) -> unit -> t

(** Number of worker domains. *)
val size : t -> int

(** Queued (not yet started) jobs — the [stats] request's queue depth. *)
val queue_depth : t -> int

(** Deepest the queue has ever been ([queue_high_watermark]). *)
val max_queue_depth : t -> int

val capacity : t -> int

(** Non-blocking admission control: enqueue under [key] unless the
    queue already holds [watermark] jobs (default: capacity), then
    [`Full] — the caller sheds the work explicitly instead of blocking.
    [`Stopping] when the pool no longer accepts work.  Exceptions
    escaping a job are swallowed; jobs must report their own errors. *)
val try_submit :
  ?key:int -> ?watermark:int -> t -> job -> [ `Accepted | `Full | `Stopping ]

(** Stop intake, run every already-queued job to completion, join the
    workers.  Idempotent. *)
val shutdown : t -> unit
