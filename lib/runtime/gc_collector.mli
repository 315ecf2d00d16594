(** Non-moving mark-sweep collector with GOGC pacing (paper §3.3) — the
    runtime's only collector.  It runs stop-the-world: at one domain in
    place at a safepoint, at several on the domain that leads the
    scheduler's stop-the-world handshake while the others wait. *)

(** Mark from the registered roots and sweep every unmarked heap object;
    retires dangling spans (fig. 9 step 2), returns empty spans' pages,
    updates the pacing target and opens the simulated concurrent-mark
    window during which tcfree backs off. *)
val collect : Heap.t -> unit

(** Safepoint check: run a cycle iff the pacer requested one and GC is
    enabled. *)
val maybe_collect : Heap.t -> unit
