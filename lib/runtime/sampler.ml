(** Periodic metrics sampler: every [every] interpreter steps, snapshot
    the heap counters into a bounded ring so long runs still dump a
    tractable time series (`--metrics-json` includes it).  The step
    clock is the sampler's own: one run-wide count of the safepoints
    across all goroutines and domains.  The interpreter advances it in
    bulk, by the steps a goroutine ran since it last did, and runs its
    slow path at the step the next sample falls due ({!until_due}), so
    the fast path never tests for a sampler. *)

module Json = Gofree_obs.Json
module Ring = Gofree_obs.Ring

type sample = {
  sm_step : int;  (** interpreter step at which the snapshot was taken *)
  sm_heap_live : int;
  sm_span_bytes : int;  (** pages backing live spans, in bytes *)
  sm_gc_time_ns : int64;  (** cumulative *)
  sm_gc_cycles : int;
  sm_alloced_bytes : int;  (** cumulative *)
  sm_freed_bytes : int;  (** cumulative, tcfree only *)
}

(* [lock] guards the ring: with goroutines running on multiple domains,
   several mutators can reach a sampling safepoint concurrently, and
   [Ring.push] mutates head/length state that would corrupt under a
   race.  Uncontended at one domain.  [clock] is atomic for the same
   reason, so every advance covers distinct steps. *)
type t = {
  every : int;
  ring : sample Ring.t;
  lock : Mutex.t;
  clock : int Atomic.t;
}

let create ?(capacity = 4096) ~every () =
  if every <= 0 then invalid_arg "Sampler.create: every must be positive";
  {
    every;
    ring = Ring.create ~capacity;
    lock = Mutex.create ();
    clock = Atomic.make 0;
  }

let every t = t.every

(** Add [n] safepoints to the clock; returns the clock after. *)
let advance t n = Atomic.fetch_and_add t.clock n + n

(** Safepoints until the clock next reaches a sample step (1 to
    [every]). *)
let until_due t = t.every - (Atomic.get t.clock mod t.every)

let record t ~step ~span_bytes (m : Metrics.t) =
  let s =
    {
      sm_step = step;
      sm_heap_live = m.Metrics.heap_live;
      sm_span_bytes = span_bytes;
      sm_gc_time_ns = m.Metrics.gc_time_ns;
      sm_gc_cycles = m.Metrics.gc_cycles;
      sm_alloced_bytes = m.Metrics.alloced_bytes;
      sm_freed_bytes = m.Metrics.freed_bytes;
    }
  in
  Mutex.lock t.lock;
  Ring.push t.ring s;
  Mutex.unlock t.lock

let samples t =
  Mutex.lock t.lock;
  let l = Ring.to_list t.ring in
  Mutex.unlock t.lock;
  l

let sample_to_json s =
  Json.Obj
    [
      ("step", Json.Int s.sm_step);
      ("heap_live", Json.Int s.sm_heap_live);
      ("span_bytes", Json.Int s.sm_span_bytes);
      ("gc_time_ns", Json.Int (Int64.to_int s.sm_gc_time_ns));
      ("gc_cycles", Json.Int s.sm_gc_cycles);
      ("alloced_bytes", Json.Int s.sm_alloced_bytes);
      ("freed_bytes", Json.Int s.sm_freed_bytes);
    ]

(** The time series as JSON.  [dropped] counts samples lost to ring
    wraparound, so consumers can tell a truncated series from a full
    one. *)
let to_json t =
  Json.Obj
    [
      Gofree_obs.Schema.(field Samples);
      ("every", Json.Int t.every);
      ("capacity", Json.Int (Ring.capacity t.ring));
      ("recorded", Json.Int (Ring.pushed t.ring));
      ("dropped", Json.Int (Ring.pushed t.ring - Ring.length t.ring));
      ("samples", Json.List (List.map sample_to_json (samples t)));
    ]
