(** The goroutine scheduler: N worker loops (one per OCaml domain,
    domain 0 inline on the caller), each draining its own run queue and
    stealing half a victim's queue when empty.  Each domain is one P:
    goroutines allocate from the mcache of the domain running them.

    Scheduling protocol:
    - a task is one goroutine slice — it runs until the goroutine yields
      (the fiber re-enqueues itself on the executing domain's queue),
      finishes, or parks for a stop-the-world GC handshake;
    - [p_running] counts domains currently inside a slice; it is what
      the GC leader waits on, so a worker must never block while
      counted;
    - idle workers sleep on [p_work] and are woken by spawns, yields,
      steals becoming possible (any completion broadcasts) and GC phase
      transitions.  During a handshake they wait for the leader, which
      runs the collector alone.

    At [--domains 1] no domain is spawned and nothing can be stolen: the
    single FIFO queue round-robins the goroutines deterministically. *)

module Rt = Gofree_runtime
module Wsq = Gofree_sched.Wsq

(* Pop local work, stealing half of the first non-empty victim queue
   (round-robin from d+1) when the local queue is dry.  Caller holds
   [p_mutex]; queue locks nest inside it. *)
let take_task (p : Interp.parctx) d =
  match Wsq.pop p.Interp.p_queues.(d) with
  | Some _ as t -> t
  | None ->
    if p.Interp.p_nd <= 1 then None
    else begin
      let nd = p.Interp.p_nd in
      let moved = ref 0 in
      let v = ref ((d + 1) mod nd) in
      while !moved = 0 && !v <> d do
        moved :=
          Wsq.steal_half ~victim:p.Interp.p_queues.(!v)
            ~into:p.Interp.p_queues.(d);
        if !moved = 0 then v := (!v + 1) mod nd
      done;
      if !moved > 0 then
        p.Interp.p_steals <- p.Interp.p_steals + !moved;
      Wsq.pop p.Interp.p_queues.(d)
    end

(* Execute one slice of [task] on domain [d].  Returns the escaping
   exception, if any. *)
let run_slice (task : Interp.ptask) d =
  task.Interp.tk_st.Interp.dom <- d;
  match task.Interp.tk_run () with () -> None | exception e -> Some e

(* Park for an in-progress stop-the-world handshake until the leader
   releases the world.  Unlike a safepoint responder this domain is
   idle, so it is not counted in [p_running].  Caller holds
   [p_mutex]. *)
let park_for_gc (p : Interp.parctx) =
  while p.Interp.p_gc_active do
    Condition.wait p.Interp.p_work p.Interp.p_mutex
  done

let worker_loop (p : Interp.parctx) d =
  Mutex.lock p.Interp.p_mutex;
  let quit = ref false in
  while not !quit do
    if p.Interp.p_live = 0 || p.Interp.p_abort <> None then begin
      quit := true;
      (* every other worker must also notice and exit *)
      Condition.broadcast p.Interp.p_work
    end
    else if p.Interp.p_gc_active then park_for_gc p
    else begin
      match take_task p d with
      | Some task ->
        p.Interp.p_running <- p.Interp.p_running + 1;
        Mutex.unlock p.Interp.p_mutex;
        let err = run_slice task d in
        Mutex.lock p.Interp.p_mutex;
        p.Interp.p_running <- p.Interp.p_running - 1;
        (match err with
        | Some e when p.Interp.p_abort = None -> p.Interp.p_abort <- Some e
        | _ -> ());
        Condition.broadcast p.Interp.p_work
      | None -> Condition.wait p.Interp.p_work p.Interp.p_mutex
    end
  done;
  Mutex.unlock p.Interp.p_mutex

(** Run [main] (the boot closure: global initializers + [main()]) and
    every goroutine it transitively spawns to completion across
    [p.p_nd] domains.  [st] is main's state copy.  Re-raises the first
    exception that escaped a goroutine, after all domains have
    parked. *)
let run (p : Interp.parctx) (st : Interp.state) (main : unit -> unit) =
  p.Interp.p_regs <- [ (st.Interp.current, st) ];
  p.Interp.p_live <- 1;
  Wsq.push p.Interp.p_queues.(0) (Interp.fiber_task p st main);
  let workers =
    Array.init
      (p.Interp.p_nd - 1)
      (fun i -> Domain.spawn (fun () -> worker_loop p (i + 1)))
  in
  worker_loop p 0;
  Array.iter Domain.join workers;
  match p.Interp.p_abort with Some e -> raise e | None -> ()
