(** Tree-walking interpreter for instrumented MiniGo over the simulated
    GoFree runtime.

    Design notes that matter for fidelity of the measurements:

    - every allocation site goes through the simulated heap, on the stack
      or heap side according to the escape analysis decision, so the
      paper's Table 5 metrics fall out of real allocator/GC work;
    - GC cycles run only at {e safepoints} (statement boundaries and loop
      back-edges); within one statement all freshly allocated values are
      additionally pinned in a per-frame temp list, so a collection
      triggered inside a callee can never reclaim a value the caller is
      still holding in OCaml locals;
    - [Stcfree] statements call the runtime's tcfree family; map growth
      calls GrowMapAndFreeOld internally (§4.6.2);
    - goroutines are cooperative fibers on the work-stealing domain
      scheduler ({!Par}), each allocating from the mcache of the domain
      executing it.

    Variables are resolved through a per-program {!Layout}: every frame
    is a pre-sized slot array and every call goes through an interned
    function id.  The [dispatch] hook on the state selects the execution
    mode per call: this module's recursive tree-walker (the reference
    semantics), or the bytecode bodies {!Vm} installs.  Both modes share
    every allocation/map/tcfree helper below, so they are observationally
    identical by construction. *)

open Minigo
module Rt = Gofree_runtime

exception Runtime_error of string

exception Panic of Value.value

(* The reference walker's return carrier: the results packed like a
   call's value ({!pack_results}).  The bytecode VM returns without it. *)
exception Return_values of Value.value

(* Loop control carriers. *)
exception Break_loop

exception Continue_loop

type binding =
  | Bunbound  (** slot's declaration not yet executed on this path *)
  | Bdirect of Value.cell
  | Bboxed of Rt.Heap.obj * Value.cell  (** heap box + its cell *)

(* Engine-private state kept with a pooled frame: the bytecode VM
   stores its dispatch registers here, so a frame reuses them call after
   call. *)
type frame_ext = ..

type frame_ext += No_ext

type frame = {
  mutable slots : binding array;
      (** locals by {!Layout} frame slot.  A pooled frame keeps the
          longest array any of its calls needed; slots past the live
          call's count stay [Bunbound]. *)
  mutable defers : (int * Value.value array) list;
      (** interned function id + evaluated arguments *)
  mutable stack_objs : Rt.Heap.obj list list;
      (** per open scope, innermost first *)
  mutable lazy_scopes : int;
      (** open scopes inside the innermost entry of [stack_objs] that
          have no registered objects yet (see {!push_scope}) *)
  mutable temps : Value.value list;  (** GC pins for the current statement *)
  mutable ext : frame_ext;
}

type goroutine = {
  g_id : int;
  mutable g_frames : frame array;
      (* Frame pool.  Calls within one goroutine are strictly LIFO even
         across yields and panics, so the live frames are exactly
         [g_frames.(0) .. g_frames.(g_depth - 1)], innermost last; the
         records above them are released, hold no binding, and are
         reused by the next calls. *)
  mutable g_depth : int;
  (* Operand-stack pool for the bytecode VM.  Calls within one
     goroutine are strictly LIFO even across yields, so each [Vm.run]
     carves a window out of these arrays and restores the top on exit
     (including the unwind path).  The windows are dead at every
     safepoint and are not simulated-GC roots. *)
  mutable g_stk_v : Value.value array;
  mutable g_top_v : int;
  mutable g_stk_i : int array;
  mutable g_top_i : int;
  mutable g_pending : Value.value array;
      (** arguments of a spawned goroutine that has not started yet,
          rooted because it may sit queued across a GC; cleared when
          the body starts *)
}

(** Which execution engine interprets function bodies.  Both share the
    allocation/map/call/safepoint helpers in this module through the state's
    [dispatch] hook, so observable behaviour (output, metrics, GC) is
    identical by construction. *)
type engine =
  | Eng_reference  (** tree-walking reference interpreter (this module) *)
  | Eng_bytecode  (** flat bytecode VM ({!Emit}/{!Vm}) *)

type run_config = {
  heap_config : Rt.Heap.config;
  seed : int64;
  max_steps : int;  (** hard budget; exceeded = Runtime_error *)
  yield_every : int;
  sample_every : int;
      (** snapshot the heap counters every N steps (0 = off); the runner
          attaches the {!Gofree_runtime.Sampler} this feeds *)
  engine : engine;
      (** which engine executes function bodies; the reference
          tree-walker is slowest but is the semantic ground truth *)
  domains : int;
      (** N >= 1: run goroutines on N OCaml domains through the
          work-stealing scheduler; each domain is one P (mcache) *)
}

let default_config =
  {
    heap_config = Rt.Heap.default_config;
    seed = 42L;
    max_steps = 500_000_000;
    yield_every = 512;
    sample_every = 0;
    engine = Eng_bytecode;
    domains = 1;
  }

(** Execution state.  Each goroutine has its own copy — [current] is
    fixed for the goroutine's lifetime and the per-goroutine mutable
    fields (steps, yield pacing, unwinding, IC counters) are private to
    it, while [program]/[heap]/[globals]/[output]/[par] stay physically
    shared.  The copy's [dom] is updated by the scheduler before every
    slice, so a stolen goroutine allocates through the thief domain's
    mcache — which is what makes the paper's
    give-up-on-ownership-change tcfree path a real race. *)
type state = {
  program : Tast.program;
  decisions : Decisions.t;
  layout : Layout.t;
  heap : Rt.Heap.t;
  output : Buffer.t;
  globals : binding array;  (** by {!Layout} global slot *)
  config : run_config;
  mutable dispatch :
    state -> int -> Value.value array -> int -> Value.value;
      (** how calls execute: {!call_by_id} (reference) or the compiled
          bodies; defers and goroutine entry points route through it.
          Arguments are read from the array at the offset; the result
          is packed by {!pack_results}. *)
  mutable current : goroutine;
  mutable steps : int;
  mutable unwinding : Value.value option;
      (** the active panic value while defers run during unwinding;
          [recover] clears it *)
  mutable ic_hits : int;
      (** bytecode-engine inline-cache hits (map-key + struct-field
          sites); flushed into the telemetry registry by the runner *)
  mutable ic_misses : int;
  mutable yield_at : int;
      (** the step count at which the safepoint fast path next gives way
          to {!safepoint_slow}: the earlier of [next_yield] and the step
          the attached sampler's next sample falls due *)
  mutable next_yield : int;
      (** next step count at which to yield; advances by
          [config.yield_every] — equivalent to [steps mod yield_every]
          without the division *)
  mutable sampled : int;
      (** the steps of this state already added to the sampler's
          clock *)
  mutable dom : int;
      (** index of the domain currently executing this state's
          goroutine — its P, whose mcache it allocates from.  Set by the
          work-stealing scheduler before each slice. *)
  par : parctx;  (** the shared scheduler context *)
}

(** Shared context of one run: per-domain run queues, the
    goroutine registry (the GC root set), scheduler bookkeeping, and
    the stop-the-world handshake state.  [p_mutex]/[p_work] guard every
    mutable field except the queues (internally locked) and [p_rng]
    (atomic). *)
and parctx = {
  p_nd : int;  (** number of domains *)
  p_queues : ptask Gofree_sched.Wsq.t array;  (** one per domain *)
  p_mutex : Mutex.t;
  p_work : Condition.t;
      (** new work / slice completion / GC-phase transitions *)
  mutable p_live : int;  (** goroutines queued or running *)
  mutable p_running : int;  (** domains currently executing a slice *)
  mutable p_regs : (goroutine * state) list;
      (** every live goroutine with its state copy — the GC's root
          registry (newest first) *)
  mutable p_yields : int;  (** total yields (telemetry) *)
  mutable p_steals : int;  (** goroutines moved by work stealing *)
  mutable p_spawns : int;  (** goroutines spawned; also the last gid *)
  mutable p_steps_done : int;
      (** summed step counts of finished goroutines; plus the live
          states' counters this is the run's total *)
  mutable p_ic_hits : int;  (** inline-cache hits of finished goroutines *)
  mutable p_ic_misses : int;
  mutable p_abort : exn option;
      (** first exception escaping a goroutine; aborts the run *)
  mutable p_gc_active : bool;
      (** a domain is leading a stop-the-world GC handshake *)
  p_out_mutex : Mutex.t;  (** serializes [output] appends when nd > 1 *)
  p_seed : int64;
  p_rng : int Atomic.t;
      (** values claimed so far from the shared splitmix64 stream of
          [p_seed]: all goroutines draw from one sequence *)
}

and ptask = {
  tk_st : state;  (** the goroutine's state copy ([dom] set per slice) *)
  tk_run : unit -> unit;  (** start the fiber, or resume its continuation *)
}

(* ------------------------------------------------------------------ *)
(* RNG: splitmix64, deterministic per run                              *)
(* ------------------------------------------------------------------ *)

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* All goroutines draw from one shared stream, so the dispensed values
   are the seed's sequence in claim order; at one domain the claim
   order is program order.  The state after [k] claims is
   [seed + k * gamma], so a claim is one atomic increment of [k], and
   the 64-bit arithmetic stays unboxed. *)
let rand_int st bound =
  if bound <= 0 then 0
  else begin
    let p = st.par in
    let k = Atomic.fetch_and_add p.p_rng 1 + 1 in
    let z =
      mix64
        (Int64.add p.p_seed (Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L))
    in
    Int64.to_int
      (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int bound))
  end

(* ------------------------------------------------------------------ *)
(* Frames, scopes and roots                                            *)
(* ------------------------------------------------------------------ *)

let cur_frame st =
  let g = st.current in
  if g.g_depth = 0 then raise (Runtime_error "no active frame")
  else Array.unsafe_get g.g_frames (g.g_depth - 1)

let new_frame () =
  { slots = [||]; defers = []; stack_objs = []; lazy_scopes = 0; temps = [];
    ext = No_ext }

(* Acquire the goroutine's next pooled frame with at least [nslots]
   unbound slots.  Growing the pool copies the live frame records, so
   references to them stay valid. *)
let push_frame st nslots =
  let g = st.current in
  let d = g.g_depth in
  if d = Array.length g.g_frames then begin
    let old = g.g_frames in
    g.g_frames <-
      Array.init (max 8 (2 * d)) (fun i ->
          if i < d then Array.unsafe_get old i else new_frame ())
  end;
  let fr = Array.unsafe_get g.g_frames d in
  if Array.length fr.slots < nslots then
    fr.slots <- Array.make nslots Bunbound;
  g.g_depth <- d + 1;
  fr

(* Release the innermost frame, whose call used [nslots] slots: unbind
   them and drop the statement pins, so the pooled record holds no
   simulated-heap pointer while it waits for the next call. *)
let pop_frame st fr nslots =
  let slots = fr.slots in
  for s = 0 to nslots - 1 do
    (* register variables left their slots unbound: skip the barrier *)
    if Array.unsafe_get slots s != Bunbound then
      Array.unsafe_set slots s Bunbound
  done;
  if fr.temps != [] then fr.temps <- [];
  let g = st.current in
  g.g_depth <- g.g_depth - 1

(* Scopes are materialized lazily: entering one only bumps a counter,
   and the per-scope object list springs into existence when the first
   stack object registers (most scopes register none).  LIFO order is
   preserved because registration materializes every pending scope as
   an empty list before prepending to the innermost. *)
let push_scope fr = fr.lazy_scopes <- fr.lazy_scopes + 1

let rec release_all heap objs =
  match objs with
  | [] -> ()
  | o :: rest ->
    Rt.Heap.release_stack heap o;
    release_all heap rest

let pop_scope st fr =
  if fr.lazy_scopes > 0 then fr.lazy_scopes <- fr.lazy_scopes - 1
  else begin
    match fr.stack_objs with
    | [] :: rest -> fr.stack_objs <- rest
    | objs :: rest ->
      release_all st.heap objs;
      fr.stack_objs <- rest
    | [] -> ()
  end

let register_stack_obj fr obj =
  while fr.lazy_scopes > 0 do
    fr.stack_objs <- [] :: fr.stack_objs;
    fr.lazy_scopes <- fr.lazy_scopes - 1
  done;
  match fr.stack_objs with
  | objs :: rest -> fr.stack_objs <- (obj :: objs) :: rest
  | [] -> fr.stack_objs <- [ [ obj ] ]

(* Pin a value for the rest of the current statement so an in-callee GC
   cannot reclaim it before it reaches rooted storage.  A value that
   references no heap object would add nothing to the roots, so it is
   not pinned. *)
let pin _st fr v =
  match v with
  | Value.VUnit | Value.VInt _ | Value.VFloat _ | Value.VBool _ | Value.VStr _
  | Value.VNil ->
    v
  | Value.VPtr _ | Value.VIptr _ | Value.VEptr _ | Value.VSlice _
  | Value.VIslice _
  | Value.VMap _ | Value.VStruct _ | Value.VTuple _ | Value.VPoison ->
    fr.temps <- v :: fr.temps;
    v

let trace_binding b k =
  match b with
  | Bunbound -> ()
  | Bdirect c -> Value.trace (Value.get c) k
  | Bboxed (obj, c) ->
    k obj;
    Value.trace (Value.get c) k

(* ------------------------------------------------------------------ *)
(* Goroutine runtime: context, output, fibers, STW handshake           *)
(* ------------------------------------------------------------------ *)

module Wsq = Gofree_sched.Wsq
module Trace = Gofree_obs.Trace

let make_parctx ~nd ~seed : parctx =
  {
    p_nd = nd;
    p_queues = Array.init nd (fun _ -> Wsq.create ());
    p_mutex = Mutex.create ();
    p_work = Condition.create ();
    p_live = 0;
    p_running = 0;
    p_regs = [];
    p_yields = 0;
    p_steals = 0;
    p_spawns = 0;
    p_steps_done = 0;
    p_ic_hits = 0;
    p_ic_misses = 0;
    p_abort = None;
    p_gc_active = false;
    p_out_mutex = Mutex.create ();
    p_seed = seed;
    p_rng = Atomic.make 0;
  }

(* Append to the program's output.  Goroutines on different domains
   interleave whole lines (each print site builds one string), not
   bytes. *)
let emit_str st s =
  let p = st.par in
  if p.p_nd > 1 then begin
    Mutex.lock p.p_out_mutex;
    Buffer.add_string st.output s;
    Mutex.unlock p.p_out_mutex
  end
  else Buffer.add_string st.output s

(* The text [println] prints for a value; int-store elements are
   poison-checked. *)
let show st v = Value.to_string ~heap:st.heap v

(* Root enumeration: globals, then every registered goroutine's live
   frames (newest goroutine first, innermost frame first) and the
   arguments of goroutines that were spawned but have not started —
   they may sit queued across a GC.  Released pool frames are not
   roots. *)
let iter_roots_par (p : parctx) ~(globals : binding array)
    (k : Rt.Heap.obj -> unit) =
  Array.iter (fun b -> trace_binding b k) globals;
  List.iter
    (fun ((g : goroutine), (_ : state)) ->
      for d = g.g_depth - 1 downto 0 do
        let f = g.g_frames.(d) in
        Array.iter (fun b -> trace_binding b k) f.slots;
        List.iter (fun v -> Value.trace v k) f.temps;
        List.iter
          (fun (_, args) -> Array.iter (fun v -> Value.trace v k) args)
          f.defers
      done;
      Array.iter (fun v -> Value.trace v k) g.g_pending)
    p.p_regs

(* Add the steps [st] ran since it last did to the sampler's clock, and
   snapshot the heap at each sample step the clock passed.  At one
   domain it passes at most one, the step it lands on: the safepoint
   fast path gives way there ([yield_at]).  With several domains, the
   others' steps may carry it past more. *)
let sample st sampler =
  let n = st.steps - st.sampled in
  st.sampled <- st.steps;
  let step = Rt.Sampler.advance sampler n in
  let every = Rt.Sampler.every sampler in
  let heap = st.heap in
  for k = ((step - n) / every) + 1 to step / every do
    Rt.Sampler.record sampler ~step:(k * every)
      ~span_bytes:(Rt.Pageheap.used_bytes heap.Rt.Heap.pages)
      (Rt.Heap.merged_metrics heap)
  done

let fiber_done p (g : goroutine) =
  Mutex.lock p.p_mutex;
  g.g_pending <- [||];
  (match List.assq_opt g p.p_regs with
  | Some gst ->
    (match gst.heap.Rt.Heap.sampler with
    | Some sampler -> sample gst sampler
    | None -> ());
    p.p_steps_done <- p.p_steps_done + gst.steps;
    p.p_ic_hits <- p.p_ic_hits + gst.ic_hits;
    p.p_ic_misses <- p.p_ic_misses + gst.ic_misses
  | None -> ());
  p.p_regs <- List.filter (fun (g', _) -> g' != g) p.p_regs;
  p.p_live <- p.p_live - 1;
  Condition.broadcast p.p_work;
  Mutex.unlock p.p_mutex

(** Performed at a safepoint to end the current goroutine's slice. *)
type _ Effect.t += Yield : unit Effect.t

(** Package a goroutine body as a schedulable task.  The effect handler
    turns every {!Yield} into "re-enqueue my continuation on the domain
    that is running me right now" — [gst.dom], which the scheduler sets
    before each slice, so a stolen goroutine requeues on the thief, not
    on the domain that first started it.  In a captured trace every
    slice is a [run gN] span on the goroutine's own track: it opens on
    each resumption and closes at the yield, completion or exception
    that ends it. *)
let fiber_task (p : parctx) (gst : state) (body : unit -> unit) : ptask =
  let open Effect.Deep in
  let g = gst.current in
  let tid = Trace.tid_fiber g.g_id in
  let slice_name = "run g" ^ string_of_int g.g_id in
  let slice_begin () =
    if Trace.enabled () then Trace.begin_span ~tid slice_name
  in
  let slice_end () =
    if Trace.enabled () then Trace.end_span ~tid slice_name
  in
  let run () =
    if Trace.enabled () then
      Trace.name_thread ~tid ("goroutine " ^ string_of_int g.g_id);
    slice_begin ();
    match_with body ()
      {
        retc =
          (fun () ->
            slice_end ();
            fiber_done p g);
        exnc =
          (fun e ->
            slice_end ();
            fiber_done p g;
            raise e);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Yield ->
              Some
                (fun (k : (c, _) continuation) ->
                  slice_end ();
                  Wsq.push p.p_queues.(gst.dom)
                    {
                      tk_st = gst;
                      tk_run =
                        (fun () ->
                          slice_begin ();
                          continue k ());
                    };
                  Mutex.lock p.p_mutex;
                  p.p_yields <- p.p_yields + 1;
                  Condition.broadcast p.p_work;
                  Mutex.unlock p.p_mutex)
            | _ -> None);
      }
  in
  { tk_st = gst; tk_run = run }

(** Goroutine spawn ([go f(args)]).  Each goroutine gets its own
    [state] copy — per-goroutine execution context (current goroutine,
    step/yield counters, IC stats) over physically shared program, heap,
    globals, output and scheduler — so a stolen fiber carries its
    context with it.  Goroutine ids count spawns (main is 0).  The new
    task lands on the spawning domain's local queue, Go-style. *)
let spawn_goroutine st fid args =
  let p = st.par in
  Mutex.lock p.p_mutex;
  p.p_spawns <- p.p_spawns + 1;
  let g =
    { g_id = p.p_spawns; g_frames = [||]; g_depth = 0; g_pending = args;
      g_stk_v = [||]; g_top_v = 0; g_stk_i = [||]; g_top_i = 0 }
  in
  let gst =
    { st with current = g; steps = 0; yield_at = 1;
      next_yield = st.config.yield_every; sampled = 0; unwinding = None;
      ic_hits = 0; ic_misses = 0 }
  in
  p.p_regs <- (g, gst) :: p.p_regs;
  p.p_live <- p.p_live + 1;
  let body () =
    g.g_pending <- [||];
    match gst.dispatch gst fid args 0 with
    | _ -> ()
    | exception Panic v ->
      emit_str gst ("panic: " ^ show gst v ^ "\n");
      raise (Panic v)
  in
  Wsq.push p.p_queues.(st.dom) (fiber_task p gst body);
  Condition.broadcast p.p_work;
  Mutex.unlock p.p_mutex

(* Stop-the-world GC rendezvous (nd > 1; a single domain collects
   in place).  Reached from a safepoint, i.e. from a domain counted
   in [p_running]:

   - If no handshake is active, this domain becomes the leader: it
     stops mutating (p_running--), waits for every other running domain
     to park at its own safepoint or drain back to the worker loop,
     runs the collector, and releases them.
   - If a handshake is already active, this domain is a responder: it
     parks here and resumes once the leader releases the world.

   Every allocating domain discovers GC pressure through its own pacing
   check ([gc_requested] is also re-read here), and non-allocating
   domains reach a safepoint at least every [yield_every] steps, so the
   world stops within one slice. *)
let par_gc st (p : parctx) =
  let heap = st.heap in
  Mutex.lock p.p_mutex;
  if p.p_gc_active then begin
    (* responder *)
    p.p_running <- p.p_running - 1;
    Condition.broadcast p.p_work;
    while p.p_gc_active do
      Condition.wait p.p_work p.p_mutex
    done;
    p.p_running <- p.p_running + 1;
    Mutex.unlock p.p_mutex
  end
  else if heap.Rt.Heap.gc_requested then begin
    (* leader *)
    p.p_gc_active <- true;
    p.p_running <- p.p_running - 1;
    Condition.broadcast p.p_work;
    while p.p_running > 0 do
      Condition.wait p.p_work p.p_mutex
    done;
    Mutex.unlock p.p_mutex;
    Rt.Gc_collector.collect heap;
    Mutex.lock p.p_mutex;
    p.p_gc_active <- false;
    p.p_running <- p.p_running + 1;
    Condition.broadcast p.p_work;
    Mutex.unlock p.p_mutex
  end
  else
    (* another leader collected between our fast-path check and here *)
    Mutex.unlock p.p_mutex

(* Safepoint slow path: budget, GC, sampling, yield.  Shared by the
   reference walker (via [safepoint]) and the bytecode VM
   (whose fast path replicates [safepoint]'s guard on its own step
   counter). *)
let safepoint_slow st =
  if st.steps > st.config.max_steps then
    raise (Runtime_error "step budget exhausted (infinite loop?)");
  let heap = st.heap in
  if heap.Rt.Heap.gc_requested && not heap.Rt.Heap.config.Rt.Heap.gc_disabled
  then begin
    if st.par.p_nd > 1 then par_gc st st.par
    else Rt.Gc_collector.collect heap
  end;
  (* The sampler's clock counts the run's safepoints across all
     goroutines: this state's since it last came here are added now, at
     the latest at the step the next sample falls due (see [yield_at]),
     and a finished goroutine's in [fiber_done]. *)
  (match heap.Rt.Heap.sampler with
  | Some sampler -> sample st sampler
  | None -> ());
  if st.steps >= st.next_yield then begin
    st.next_yield <- st.steps + st.config.yield_every;
    Effect.perform Yield
  end;
  (* after a yield, other goroutines have moved the clock on *)
  st.yield_at <-
    (match heap.Rt.Heap.sampler with
    | Some sampler -> min st.next_yield (st.steps + Rt.Sampler.until_due sampler)
    | None -> st.next_yield)

(* Safepoint: maybe run a GC cycle; also the yield point. *)
let safepoint st =
  st.steps <- st.steps + 1;
  let fr = cur_frame st in
  if fr.temps != [] then fr.temps <- [];
  if
    st.steps >= st.yield_at
    || st.heap.Rt.Heap.gc_requested
    || st.steps > st.config.max_steps
  then safepoint_slow st

(* ------------------------------------------------------------------ *)
(* Allocation helpers                                                  *)
(* ------------------------------------------------------------------ *)

let alloc_obj st fr ~(site : Tast.alloc_site) ~category ~size ~payload :
    Rt.Heap.obj =
  if Decisions.site_is_heap st.decisions site then
    Rt.Heap.alloc_heap st.heap ~thread:st.dom ~category ~size
      ~payload
  else begin
    let obj =
      Rt.Heap.alloc_stack ~thread:st.dom st.heap ~category ~size
        ~payload
    in
    register_stack_obj fr obj;
    obj
  end

(* Heap allocation regardless of site (append growth, map growth). *)
let alloc_heap_obj st ~category ~size ~payload =
  Rt.Heap.alloc_heap st.heap ~thread:st.dom ~category ~size
    ~payload

(* A slice over a fresh backing store of [cap] elements: the one path
   [make], slice literals and [append] growth take in both engines.
   Growth arrays always come from the heap (§4.6.1). *)
let alloc_slice st fr ~(site : Tast.alloc_site) ~growth store ~cap ~len =
  let size = max 1 (cap * site.Tast.site_elem_size) in
  let payload = Value.store_payload store in
  let category = Rt.Metrics.Cat_slice in
  let obj =
    if growth then alloc_heap_obj st ~category ~size ~payload
    else alloc_obj st fr ~site ~category ~size ~payload
  in
  pin st fr (Value.slice_of obj store len)

let make_slice_obj st fr ~(site : Tast.alloc_site) ~len ~cap ~zero_of :
    Value.value =
  let cap = max cap len in
  alloc_slice st fr ~site ~growth:false (Value.make_store cap zero_of) ~cap
    ~len

let bucket_overhead = 16

let buckets_bytes ~entry_size ~nbuckets =
  nbuckets * ((8 * entry_size) + bucket_overhead)

let make_map_obj st fr ~(site : Tast.alloc_site) ~key ~value : Value.value =
  let entry_size = max 2 site.Tast.site_elem_size in
  let nbuckets = 1 in
  let bsize = buckets_bytes ~entry_size ~nbuckets in
  let buckets_obj =
    alloc_obj st fr ~site ~category:Rt.Metrics.Cat_map ~size:bsize
      ~payload:(Value.Pbuckets (Value.make_buckets key value nbuckets))
  in
  let md =
    {
      Value.md_buckets = buckets_obj;
      md_nbuckets = nbuckets;
      md_count = 0;
      md_entry_size = entry_size;
      md_version = 0;
    }
  in
  let header =
    alloc_obj st fr ~site ~category:Rt.Metrics.Cat_map ~size:48
      ~payload:(Value.Pmap md)
  in
  pin st fr (Value.VMap header)

(* ------------------------------------------------------------------ *)
(* Map operations (§4.6.2)                                             *)
(* ------------------------------------------------------------------ *)

(* A map operation reads the header object's payload, then that of the
   buckets object it names; nothing here allocates unless the map grows
   or a bucket outgrows its capacity.  A freed header or buckets object
   is a read of freed memory, checked before the payload: a poisoned
   header keeps its [Pmap] shape.  Each store comes in the forms the
   bytecode engine needs — key and value boxed, or either one as its
   int-stack word — and all of them make the same bucket changes. *)

let map_data st (o : Rt.Heap.obj) : Value.map_data =
  match o.Rt.Heap.payload with
  | Value.Pmap md when not (Rt.Heap.is_freed o) -> md
  | _ ->
    if Rt.Heap.is_freed o then
      raise
        (Value.Corruption
           (Printf.sprintf "map header %d freed while map is live (%s)"
              o.Rt.Heap.addr
              (Rt.Heap.death_of st.heap o.Rt.Heap.addr)))
    else raise (Runtime_error "not a map")

let map_buckets st (md : Value.map_data) : Value.buckets =
  let o = md.Value.md_buckets in
  match o.Rt.Heap.payload with
  | Value.Pbuckets bk when not (Rt.Heap.is_freed o) -> bk
  | _ ->
    if Rt.Heap.is_freed o then
      raise
        (Value.Corruption
           (Printf.sprintf "map buckets freed while map is live (%s)"
              (Rt.Heap.death_of st.heap o.Rt.Heap.addr)))
    else raise (Runtime_error "corrupt map buckets")

let map_grow st (md : Value.map_data) old_buckets =
  let nbuckets = md.Value.md_nbuckets * 2 in
  let buckets = Value.rehash old_buckets nbuckets in
  let bsize =
    buckets_bytes ~entry_size:md.Value.md_entry_size ~nbuckets
  in
  let old_obj = md.Value.md_buckets in
  (* New bucket arrays of a growing map always come from the heap: growth
     happens inside the runtime where no static size is known — exactly
     Go's behaviour, where only the initial buckets of a non-escaping map
     can live on the stack. *)
  let new_obj =
    alloc_heap_obj st ~category:Rt.Metrics.Cat_map ~size:bsize
      ~payload:(Value.Pbuckets buckets)
  in
  md.Value.md_buckets <- new_obj;
  md.Value.md_nbuckets <- nbuckets;
  md.Value.md_version <- md.Value.md_version + 1;
  (* GrowMapAndFreeOld (§4.6.2): the abandoned bucket array is in the
     map's exclusive ownership — free it explicitly.  Only the GoFree
     runtime does this; stock Go leaves the old array to GC. *)
  if st.heap.Rt.Heap.config.Rt.Heap.grow_map_free_old then
    ignore
      (Rt.Tcfree.tcfree st.heap ~thread:st.dom
         ~source:Rt.Metrics.Src_map_grow old_obj)

(* After a store to a present key, which overwrote the value in place,
   keeping the entry's original key and its place in iteration order. *)
let map_replaced (md : Value.map_data) =
  md.Value.md_version <- md.Value.md_version + 1

(* After a store wrote a new entry at slot [j] of bucket [b]. *)
let map_added st (md : Value.map_data) bk b j =
  Value.commit bk b j;
  md.Value.md_version <- md.Value.md_version + 1;
  md.Value.md_count <- md.Value.md_count + 1;
  (* Go grows at load factor 6.5 entries per bucket. *)
  if md.Value.md_count * 2 > 13 * md.Value.md_nbuckets then
    map_grow st md bk

let map_store st hdr key v =
  let md = map_data st hdr in
  let bk = map_buckets st md in
  let h = Value.hash_key key in
  let b = Value.bucket_of bk h in
  let j = Value.find bk b h key in
  if j >= 0 then begin
    Value.set_value bk b j v;
    map_replaced md
  end
  else begin
    let j = Value.add bk b h in
    Value.set_key bk b j key;
    Value.set_value bk b j v;
    map_added st md bk b j
  end

(* [map_store] of an int or bool value given as its word. *)
let map_store_vi st hdr key n =
  let md = map_data st hdr in
  let bk = map_buckets st md in
  let h = Value.hash_key key in
  let b = Value.bucket_of bk h in
  let j = Value.find bk b h key in
  if j >= 0 then begin
    Value.set_int bk b j n;
    map_replaced md
  end
  else begin
    let j = Value.add bk b h in
    Value.set_key bk b j key;
    Value.set_int bk b j n;
    map_added st md bk b j
  end

(* [map_store] of an int or bool key and value, both given as words. *)
let map_store_ii st hdr k n =
  let md = map_data st hdr in
  let bk = map_buckets st md in
  let h = Hashtbl.hash k in
  let b = Value.bucket_of bk h in
  let j = Value.find_int bk b h k in
  if j >= 0 then begin
    Value.set_int bk b j n;
    map_replaced md
  end
  else begin
    let j = Value.add bk b h in
    Value.set_key_int bk b j k;
    Value.set_int bk b j n;
    map_added st md bk b j
  end

let map_get st hdr key ~zero =
  let bk = map_buckets st (map_data st hdr) in
  let h = Value.hash_key key in
  let b = Value.bucket_of bk h in
  let j = Value.find bk b h key in
  if j >= 0 then Value.value_at bk b j zero else zero ()

let map_delete st hdr key =
  let md = map_data st hdr in
  let bk = map_buckets st md in
  let h = Value.hash_key key in
  let b = Value.bucket_of bk h in
  md.Value.md_version <- md.Value.md_version + 1;
  let j = Value.find bk b h key in
  if j >= 0 then begin
    Value.remove bk b j;
    md.Value.md_count <- md.Value.md_count - 1
  end

let map_len st hdr =
  let md = map_data st hdr in
  ignore (map_buckets st md : Value.buckets);
  md.Value.md_count

(* Key snapshot for [for k := range m]: deterministic bucket order,
   mutation during iteration is well-defined. *)
let map_range_keys st hdr : Value.value list =
  Value.bucket_keys (map_buckets st (map_data st hdr))

(* ------------------------------------------------------------------ *)
(* Bindings                                                            *)
(* ------------------------------------------------------------------ *)

let lookup_binding st (v : Tast.var) : binding =
  match v.Tast.v_kind with
  | Tast.Vglobal -> begin
    match st.globals.(Layout.slot st.layout v) with
    | Bunbound -> raise (Runtime_error ("unbound global " ^ v.Tast.v_name))
    | b -> b
  end
  | _ -> begin
    match (cur_frame st).slots.(Layout.slot st.layout v) with
    | Bunbound ->
      raise (Runtime_error ("unbound variable " ^ v.Tast.v_name))
    | b -> b
  end

let binding_cell = function
  | Bdirect c | Bboxed (_, c) -> c
  | Bunbound -> raise (Runtime_error "unbound variable")

let zero_of st ty () = Value.zero st.program.Tast.p_tenv ty

(* Declare a variable: boxed variables get a 1-cell heap object. *)
let declare_var st fr (v : Tast.var) (value : Value.value) =
  let binding =
    if Decisions.var_is_boxed st.decisions v then begin
      let c = Value.cell value in
      let size = Types.size_of st.program.Tast.p_tenv v.Tast.v_ty in
      let obj =
        alloc_heap_obj st ~category:Rt.Metrics.Cat_other ~size:(max 8 size)
          ~payload:(Value.Pcells c)
      in
      Bboxed (obj, c)
    end
    else Bdirect (Value.cell value)
  in
  fr.slots.(Layout.slot st.layout v) <- binding

let truthy = function
  | Value.VBool b -> b
  | _ -> raise (Runtime_error "condition is not a bool")

let as_int = function
  | Value.VInt n -> n
  | _ -> raise (Runtime_error "expected an int")

let rec eval_binop op (a : Value.value) (b : Value.value) : Value.value =
  let open Value in
  match (op, a, b) with
  | Ast.Badd, VInt x, VInt y -> VInt (x + y)
  | Ast.Badd, VFloat x, VFloat y -> VFloat (x +. y)
  | Ast.Badd, VStr x, VStr y -> VStr (x ^ y)
  | Ast.Bsub, VInt x, VInt y -> VInt (x - y)
  | Ast.Bsub, VFloat x, VFloat y -> VFloat (x -. y)
  | Ast.Bmul, VInt x, VInt y -> VInt (x * y)
  | Ast.Bmul, VFloat x, VFloat y -> VFloat (x *. y)
  | Ast.Bdiv, VInt _, VInt 0 -> raise (Panic (VStr "integer divide by zero"))
  | Ast.Bdiv, VInt x, VInt y -> VInt (x / y)
  | Ast.Bdiv, VFloat x, VFloat y -> VFloat (x /. y)
  | Ast.Bmod, VInt _, VInt 0 -> raise (Panic (VStr "integer divide by zero"))
  | Ast.Bmod, VInt x, VInt y -> VInt (x mod y)
  | Ast.Band_bits, VInt x, VInt y -> VInt (x land y)
  | Ast.Bor_bits, VInt x, VInt y -> VInt (x lor y)
  | Ast.Bxor, VInt x, VInt y -> VInt (x lxor y)
  | Ast.Bshl, VInt _, VInt y when y < 0 ->
    raise (Panic (VStr "negative shift amount"))
  | Ast.Bshl, VInt x, VInt y -> VInt (if y >= 63 then 0 else x lsl y)
  | Ast.Bshr, VInt _, VInt y when y < 0 ->
    raise (Panic (VStr "negative shift amount"))
  | Ast.Bshr, VInt x, VInt y -> VInt (if y >= 63 then 0 else x asr y)
  | Ast.Blt, VInt x, VInt y -> vbool (x < y)
  | Ast.Ble, VInt x, VInt y -> vbool (x <= y)
  | Ast.Bgt, VInt x, VInt y -> vbool (x > y)
  | Ast.Bge, VInt x, VInt y -> vbool (x >= y)
  | Ast.Blt, VFloat x, VFloat y -> vbool (x < y)
  | Ast.Ble, VFloat x, VFloat y -> vbool (x <= y)
  | Ast.Bgt, VFloat x, VFloat y -> vbool (x > y)
  | Ast.Bge, VFloat x, VFloat y -> vbool (x >= y)
  | Ast.Blt, VStr x, VStr y -> vbool (String.compare x y < 0)
  | Ast.Ble, VStr x, VStr y -> vbool (String.compare x y <= 0)
  | Ast.Bgt, VStr x, VStr y -> vbool (String.compare x y > 0)
  | Ast.Bge, VStr x, VStr y -> vbool (String.compare x y >= 0)
  | Ast.Beq, x, y -> vbool (value_eq x y)
  | Ast.Bne, x, y -> vbool (not (value_eq x y))
  | (Ast.Band | Ast.Bor), _, _ ->
    raise (Runtime_error "logical operators are handled lazily")
  | _ -> raise (Runtime_error "invalid binary operands")

and value_eq (a : Value.value) (b : Value.value) =
  let open Value in
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> x = y
  | VBool x, VBool y -> x = y
  | VStr x, VStr y -> String.equal x y
  | VNil, VNil -> true
  | VNil, (VPtr _ | VIptr _ | VEptr _ | VSlice _ | VIslice _ | VMap _)
  | (VPtr _ | VIptr _ | VEptr _ | VSlice _ | VIslice _ | VMap _), VNil ->
    false
  | VPtr x, VPtr y -> x.p_arr == y.p_arr && x.p_idx = y.p_idx
  | VEptr x, VEptr y -> x.e_arr == y.e_arr && x.e_base = y.e_base
  | VIptr x, VIptr y -> x.ip_ints == y.ip_ints && x.ip_idx = y.ip_idx
  | VMap x, VMap y -> x == y
  | VSlice x, VSlice y ->
    x.s_cells == y.s_cells && x.s_off = y.s_off && x.s_len = y.s_len
  | VIslice x, VIslice y ->
    x.i_ints == y.i_ints && x.i_off = y.i_off && x.i_len = y.i_len
  | VPoison, _ | _, VPoison -> raise (Corruption "comparison with freed memory")
  | _ -> false

(* The inserted explicit free (§4.5), applied to an already-resolved
   binding: read the pointer's current value and hand the referent to the
   matching tcfree variant (Table 4).  Shared by both execution modes. *)
let tcfree_binding st (b : binding) (kind : Tast.free_kind) =
  let thread = st.dom in
  match Value.get (binding_cell b) with
  | Value.VSlice { Value.s_obj = obj; _ }
  | Value.VIslice { i_obj = obj; _ }
    when kind = Tast.Free_slice ->
    (* TcfreeSlice: unwrap the backing array *)
    ignore
      (Rt.Tcfree.tcfree st.heap ~thread ~source:Rt.Metrics.Src_slice obj)
  | Value.VMap hdr when kind = Tast.Free_map -> begin
    (* TcfreeMap: unwrap the bucket array; a freed header (whose
       poisoned payload keeps its shape) frees nothing *)
    match hdr.Rt.Heap.payload with
    | Value.Pmap md when not (Rt.Heap.is_freed hdr) ->
      (* invalidate any inline cache that still points at this map *)
      md.Value.md_version <- md.Value.md_version + 1;
      ignore
        (Rt.Tcfree.tcfree st.heap ~thread ~source:Rt.Metrics.Src_map
           md.Value.md_buckets);
      ignore
        (Rt.Tcfree.tcfree st.heap ~thread ~source:Rt.Metrics.Src_map hdr)
    | _ -> ()
  end
  | Value.VPtr { Value.p_owner = owner; _ }
  | Value.VIptr { Value.ip_owner = owner; _ }
  | Value.VEptr { Value.e_owner = owner; _ }
    when kind = Tast.Free_obj ->
    if owner != Rt.Heap.no_obj then
      ignore
        (Rt.Tcfree.tcfree st.heap ~thread ~source:Rt.Metrics.Src_slice owner)
  | Value.VNil | Value.VPoison -> ()
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Slice operations, shared by both engines                            *)
(* ------------------------------------------------------------------ *)

(* [a[i]] of a slice or a string, as a value. *)
let index_value heap (va : Value.value) (vi : int) : Value.value =
  match va with
  | Value.VIslice s ->
    if vi < 0 || vi >= s.i_len then
      raise (Panic (Value.VStr "index out of range"));
    Value.vint
      (Value.read_int heap s.i_obj s.i_ints (s.i_off + vi))
  | Value.VSlice s ->
    if vi < 0 || vi >= s.Value.s_len then
      raise (Panic (Value.VStr "index out of range"));
    Value.slice_elem s vi
  | Value.VStr s ->
    if vi < 0 || vi >= String.length s then
      raise (Panic (Value.VStr "index out of range"));
    Value.vint (Char.code s.[vi])
  | Value.VNil -> raise (Panic (Value.VStr "index of nil slice"))
  | _ -> raise (Runtime_error "cannot index this value")

(* [a[i] = v]: the bounds check, then the write ({!Value.store}). *)
let store_index (va : Value.value) (vi : int) (v : Value.value) =
  match va with
  | Value.VIslice s ->
    if vi < 0 || vi >= s.i_len then
      raise (Panic (Value.VStr "index out of range"));
    s.i_ints.(s.i_off + vi) <- as_int v
  | Value.VSlice s ->
    if vi < 0 || vi >= s.Value.s_len then
      raise (Panic (Value.VStr "index out of range"));
    Value.set_elem s vi v
  | Value.VNil -> raise (Panic (Value.VStr "index of nil slice"))
  | _ -> raise (Runtime_error "cannot assign into this value")

(* [&a[i]]. *)
let addr_index (va : Value.value) (vi : int) : Value.value =
  match va with
  | Value.VIslice s ->
    if vi < 0 || vi >= s.i_len then
      raise (Panic (Value.VStr "index out of range"));
    Value.VIptr
      { Value.ip_owner = s.i_obj; ip_ints = s.i_ints;
        ip_idx = s.i_off + vi }
  | Value.VSlice s ->
    if vi < 0 || vi >= s.Value.s_len then
      raise (Panic (Value.VStr "index out of range"));
    if s.Value.s_w = 0 then
      Value.VPtr
        { Value.p_owner = s.Value.s_obj; p_arr = s.Value.s_cells;
          p_idx = s.Value.s_off + vi }
    else
      Value.VEptr
        { Value.e_owner = s.Value.s_obj; e_arr = s.Value.s_cells;
          e_base = Value.elem_slot s vi; e_w = s.Value.s_w }
  | _ -> raise (Runtime_error "cannot take address of this element")

(* [a[i].f] of a slice of structs: field [fidx] of element [i] read in
   its slot, with [a[i]]'s errors. *)
let index_field heap (va : Value.value) (vi : int) fidx : Value.value =
  match va with
  | Value.VSlice s when s.Value.s_w > 0 && vi >= 0 && vi < s.Value.s_len ->
    Value.read_elem s.Value.s_cells (Value.elem_slot s vi + fidx)
  | _ ->
    ignore (index_value heap va vi : Value.value);
    raise (Runtime_error "field of non-struct")

(* [&a[i].f] of a slice of structs: a pointer to the field's slot. *)
let addr_index_field heap (va : Value.value) (vi : int) fidx : Value.value =
  match va with
  | Value.VSlice s when s.Value.s_w > 0 && vi >= 0 && vi < s.Value.s_len ->
    Value.field_ptr s.Value.s_obj s.Value.s_cells (Value.elem_slot s vi + fidx)
  | _ ->
    ignore (index_value heap va vi : Value.value);
    raise (Runtime_error "field of non-struct")

(* [*p]. *)
let deref heap (v : Value.value) : Value.value =
  match v with
  | Value.VPtr p -> Value.read_ptr p
  | Value.VEptr e -> Value.load_struct e.Value.e_arr e.Value.e_base e.Value.e_w
  | Value.VIptr p -> Value.vint (Value.read_iptr heap p)
  | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
  | _ -> raise (Runtime_error "dereference of a non-pointer")

(* [*p = v]. *)
let store_deref (p : Value.value) (v : Value.value) =
  match p with
  | Value.VPtr p -> Value.store p.Value.p_arr p.Value.p_idx v
  | Value.VEptr e -> Value.store_struct e.Value.e_arr e.Value.e_base v
  | Value.VIptr p -> p.Value.ip_ints.(p.Value.ip_idx) <- as_int v
  | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
  | _ -> raise (Runtime_error "assignment through non-pointer")

let length st (v : Value.value) =
  match v with
  | Value.VIslice s -> s.i_len
  | Value.VSlice s -> s.Value.s_len
  | Value.VStr s -> String.length s
  | Value.VMap hdr -> map_len st hdr
  | Value.VNil -> 0
  | _ -> raise (Runtime_error "len of unsupported value")

let capacity (v : Value.value) =
  match v with
  | Value.VIslice s -> Array.length s.i_ints - s.i_off
  | Value.VSlice s -> Value.cap s
  | Value.VNil -> 0
  | _ -> raise (Runtime_error "cap of unsupported value")

(* [a[lo:hi]] of a slice or a string; an absent bound is [None]. *)
let reslice (base : Value.value) (lo : int option)
    (hi : int option) : Value.value =
  let bound default = function Some n -> n | None -> default in
  match base with
  | Value.VIslice s ->
    let cap = Array.length s.i_ints - s.i_off in
    let lo = bound 0 lo in
    let hi = bound s.i_len hi in
    if lo < 0 || hi > cap || lo > hi then
      raise (Panic (Value.VStr "slice bounds out of range"));
    Value.VIslice { s with i_off = s.i_off + lo; i_len = hi - lo }
  | Value.VSlice s ->
    let cap = Value.cap s in
    let lo = bound 0 lo in
    let hi = bound s.Value.s_len hi in
    if lo < 0 || hi > cap || lo > hi then
      raise (Panic (Value.VStr "slice bounds out of range"));
    Value.VSlice { s with Value.s_off = s.Value.s_off + lo; s_len = hi - lo }
  | Value.VStr str ->
    let lo = bound 0 lo in
    let hi = bound (String.length str) hi in
    if lo < 0 || hi > String.length str || lo > hi then
      raise (Panic (Value.VStr "slice bounds out of range"));
    Value.VStr (String.sub str lo (hi - lo))
  | Value.VNil ->
    if bound 0 lo <> 0 || bound 0 hi <> 0 then
      raise (Panic (Value.VStr "slice bounds out of range"));
    Value.VNil
  | _ -> raise (Runtime_error "slice of unsupported value")

(* [copy(dst, src)], with memmove semantics: every source slot is read
   (and poison-checked) before the first write, so overlapping views of
   one backing array copy correctly, like Go.  A struct element is its
   fields' slots in a flat store.  Each slot is stored into its
   destination in place ({!Value.store}); a nested struct read from the
   destination's own backing array is copied first, since a store into
   an earlier destination slot may be a store into it. *)
let slice_copy st (vd : Value.value) (vs : Value.value) : int =
  match (vd, vs) with
  | Value.VIslice d, Value.VIslice s ->
    let n = min d.i_len s.i_len in
    for i = s.i_off to s.i_off + n - 1 do
      if Array.unsafe_get s.i_ints i = Value.poison_int then
        Value.check_int st.heap s.i_obj
    done;
    Array.blit s.i_ints s.i_off d.i_ints d.i_off n;
    n
  | Value.VSlice d, Value.VSlice s ->
    let n = min d.Value.s_len s.Value.s_len in
    let w = max 1 s.Value.s_w in
    let overlap = d.Value.s_cells == s.Value.s_cells in
    let src = Value.elem_slot s 0 and dst = Value.elem_slot d 0 in
    let snapshot =
      Array.init (n * w) (fun k ->
          let v = Value.read_elem s.Value.s_cells (src + k) in
          if overlap then Value.copy v else v)
    in
    for k = 0 to (n * w) - 1 do
      Value.store d.Value.s_cells (dst + k) snapshot.(k)
    done;
    n
  | Value.VNil, _ | _, Value.VNil -> 0
  | _ -> raise (Runtime_error "copy on non-slices")

(* The capacity an [append] that outgrows [old_cap] allocates. *)
let grown_cap old_cap new_len = max (max (2 * old_cap) new_len) 4

(* [append] to a value-store slice of the [n] elements of [elems] from
   [off] (already assignment-copied).  Within capacity each is stored
   into its slot in place ({!Value.store}, {!Value.store_struct} for a
   struct element of a flat store), as Go writes the backing array.
   Growth allocates one fresh heap store in the element zero's layout
   ({!Value.make_store}'s), copies the live slots into it — a nested
   struct field copied ({!Value.copy}), so the new store shares nothing
   with the old — and fills the spare capacity with zero slots. *)
let grow_values st fr ~site ~zero_of old old_slot old_len old_cap elems off n
    =
  let cap = grown_cap old_cap (old_len + n) in
  alloc_slice st fr ~site ~growth:true
    (Value.grown_store (zero_of ()) old old_slot old_len elems off n cap)
    ~cap ~len:(old_len + n)

let append_values st fr ~site ~zero_of (base : Value.value)
    (elems : Value.value array) off n : Value.value =
  match base with
  | Value.VSlice s when s.Value.s_len + n <= Value.cap s ->
    (* room within the view's capacity: write in place *)
    for j = 0 to n - 1 do
      Value.set_elem s (s.Value.s_len + j) elems.(off + j)
    done;
    Value.VSlice { s with Value.s_len = s.Value.s_len + n }
  | Value.VSlice s ->
    grow_values st fr ~site ~zero_of s.Value.s_cells (Value.elem_slot s 0)
      s.Value.s_len (Value.cap s) elems off n
  | Value.VNil -> grow_values st fr ~site ~zero_of [||] 0 0 0 elems off n
  | Value.VPoison -> raise (Value.Corruption "append to freed slice")
  | _ -> raise (Runtime_error "append to non-slice")

(* [append(base, T{...})] of a struct literal whose [w] fields, already
   assignment-copied, are [fields] from [off]: {!append_values} of that
   struct, with the fields stored straight into their slots when the
   element fits the capacity. *)
let append_fields st fr ~site ~zero_of (base : Value.value)
    (fields : Value.value array) off w : Value.value =
  match base with
  | Value.VSlice s when s.Value.s_w = w && s.Value.s_len < Value.cap s ->
    let slot = Value.elem_slot s s.Value.s_len in
    for j = 0 to w - 1 do
      Value.store s.Value.s_cells (slot + j) fields.(off + j)
    done;
    Value.VSlice { s with Value.s_len = s.Value.s_len + 1 }
  | _ ->
    append_values st fr ~site ~zero_of base
      [| Value.VStruct (Array.sub fields off w) |]
      0 1

(* [append] to an int slice, the elements unboxed; spare capacity holds
   zeros. *)
let append_ints st fr ~site (base : Value.value) (elems : int array) off n :
    Value.value =
  let old_obj, old_len, old_off, old_ints =
    match base with
    | Value.VIslice s ->
      (s.i_obj, s.i_len, s.i_off, s.i_ints)
    | Value.VNil -> (Rt.Heap.no_obj, 0, 0, [||])
    | Value.VPoison -> raise (Value.Corruption "append to freed slice")
    | _ -> raise (Runtime_error "append to non-slice")
  in
  let new_len = old_len + n in
  match base with
  | Value.VIslice s when old_off + new_len <= Array.length old_ints ->
    Array.blit elems off old_ints (old_off + old_len) n;
    Value.VIslice { s with i_len = new_len }
  | _ ->
    let cap = grown_cap (Array.length old_ints - old_off) new_len in
    let ints = Array.make cap 0 in
    for i = 0 to old_len - 1 do
      ints.(i) <- Value.read_int st.heap old_obj old_ints (old_off + i)
    done;
    Array.blit elems off ints old_len n;
    alloc_slice st fr ~site ~growth:true (Value.Ints ints) ~cap ~len:new_len

(* ------------------------------------------------------------------ *)
(* Calls, defers, panics                                               *)
(* ------------------------------------------------------------------ *)

let rec dispatch_defers st defers =
  match defers with
  | [] -> ()
  | (fid, args) :: rest ->
    ignore (st.dispatch st fid args 0 : Value.value);
    dispatch_defers st rest

let run_defers st frame =
  match frame.defers with
  | [] -> ()  (* the overwhelmingly common case: allocation-free *)
  | defers ->
    frame.defers <- [];
    dispatch_defers st defers

let rec release_scopes heap scopes =
  match scopes with
  | [] -> ()
  | objs :: rest ->
    release_all heap objs;
    release_scopes heap rest

let pop_all_scopes st frame =
  frame.lazy_scopes <- 0;
  match frame.stack_objs with
  | [] -> ()
  | scopes ->
    frame.stack_objs <- [];
    release_scopes st.heap scopes

(* Run the frame's defers, pop its scopes and release it.  A deferred
   call that panics does not skip the release: the pool's depth stays
   the call depth and the released frame holds no binding. *)
let leave_frame st frame nslots =
  match frame.defers with
  | [] ->
    pop_all_scopes st frame;
    pop_frame st frame nslots
  | _ -> (
    match run_defers st frame with
    | () ->
      pop_all_scopes st frame;
      pop_frame st frame nslots
    | exception e ->
      pop_all_scopes st frame;
      pop_frame st frame nslots;
      raise e)

(** A call's results as one value: [VUnit] for none, the value itself
    for one, a [VTuple] for more. *)
let pack_results = function
  | [] -> Value.VUnit
  | [ v ] -> v
  | vs -> Value.VTuple vs

(** The shared call protocol: acquire a pooled frame, run [body] on
    [data] and the arguments ([args] from [off] on) — it binds the
    parameters and runs to the packed results ({!pack_results}) —, then
    run defers, pop scopes and release the frame on every exit path: a
    normal return, panic unwinding with its recover handshake, where
    [zeros st data] gives the results of a recovered call, and a
    deferred call that panics.  Both
    execution modes call functions through here, parameterized by how
    the body runs; [body] and [zeros] are top-level functions, so a call
    allocates no closure and the normal path raises nothing. *)
let call_fn st ~nslots
    ~(body : state -> frame -> 'a -> Value.value array -> int -> Value.value)
    ~(zeros : state -> 'a -> Value.value) (data : 'a)
    (args : Value.value array) (off : int) : Value.value =
  (* no GC can run before the arguments are bound: the first safepoint
     is the body's *)
  let frame = push_frame st nslots in
  match body st frame data args off with
  | results ->
    leave_frame st frame nslots;
    results
  | exception Panic v ->
    (* run this frame's defers while unwinding; a recover() inside one of
       them clears the panic and the function returns zero values.  A
       defer that panics replaces this panic: the new one propagates and
       the unwinding state is the caller's again. *)
    let outer = st.unwinding in
    st.unwinding <- Some v;
    (match leave_frame st frame nslots with
    | () -> ()
    | exception e ->
      st.unwinding <- outer;
      raise e);
    (match st.unwinding with
    | None ->
      (* recovered *)
      st.unwinding <- outer;
      zeros st data
    | Some v ->
      st.unwinding <- outer;
      raise (Panic v))

(* ------------------------------------------------------------------ *)
(* Expression evaluation (reference tree-walker)                       *)
(* ------------------------------------------------------------------ *)

let rec eval st (e : Tast.expr) : Value.value =
  match e.Tast.desc with
  | Tast.Tint n -> Value.VInt n
  | Tast.Tfloat f -> Value.VFloat f
  | Tast.Tbool b -> Value.VBool b
  | Tast.Tstring s -> Value.VStr s
  | Tast.Tnil -> Value.VNil
  | Tast.Tvar v -> Value.read_cell (binding_cell (lookup_binding st v))
  | Tast.Tbinop (Ast.Band, a, b) ->
    if truthy (eval st a) then eval st b else Value.VBool false
  | Tast.Tbinop (Ast.Bor, a, b) ->
    if truthy (eval st a) then Value.VBool true else eval st b
  | Tast.Tbinop (op, a, b) ->
    let va = eval st a in
    let vb = eval st b in
    eval_binop op va vb
  | Tast.Tunop (Ast.Uneg, a) -> begin
    match eval st a with
    | Value.VInt n -> Value.VInt (-n)
    | Value.VFloat f -> Value.VFloat (-.f)
    | _ -> raise (Runtime_error "cannot negate")
  end
  | Tast.Tunop (Ast.Unot, a) -> Value.vbool (not (truthy (eval st a)))
  | Tast.Taddr lv -> eval_addr st lv
  | Tast.Tderef a -> deref st.heap (eval st a)
  | Tast.Tindex (a, i) ->
    let va = eval st a in
    let vi = as_int (eval st i) in
    index_value st.heap va vi
  | Tast.Tmap_get (m, k) -> begin
    let vm = eval st m in
    let vk = eval st k in
    let zero = zero_of st e.Tast.ty in
    match vm with
    | Value.VMap hdr -> map_get st hdr vk ~zero
    | Value.VNil -> zero ()  (* reading a nil map yields the zero value *)
    | _ -> raise (Runtime_error "not a map")
  end
  | Tast.Tfield ({ Tast.desc = Tast.Tindex (a, i); ty = Types.Struct _; _ }, idx, _)
    ->
    (* an element of a slice of structs: read in its flat store *)
    let va = eval st a in
    let vi = as_int (eval st i) in
    index_field st.heap va vi idx
  | Tast.Tfield
      (({ Tast.desc = Tast.Tderef a; ty = Types.Struct _; _ } | a), idx, name)
    -> begin
    (* [( *p).f] reads through [p] like [p.f]: no copy of the pointee, so
       a nested struct read here still aliases its storage *)
    match eval st a with
    | Value.VPtr p -> begin
      match Value.read_ptr p with
      | Value.VStruct fields -> Value.read_elem fields idx
      | _ -> raise (Runtime_error ("field access ." ^ name ^ " on non-struct"))
    end
    | Value.VEptr e -> Value.read_elem e.Value.e_arr (e.Value.e_base + idx)
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | Value.VStruct fields -> Value.read_elem fields idx
    | _ -> raise (Runtime_error ("field access ." ^ name ^ " on non-struct"))
  end
  | Tast.Tcall (name, args) ->
    let args = Array.of_list (List.map (fun a -> eval st a) args) in
    let v = call_function st name args in
    pin st (cur_frame st) v
  | Tast.Tmake_slice (site, elem, len, cap) ->
    let len = as_int (eval st len) in
    if len < 0 then raise (Panic (Value.VStr "makeslice: negative length"));
    let cap =
      match cap with Some c -> as_int (eval st c) | None -> len
    in
    make_slice_obj st (cur_frame st) ~site ~len ~cap
      ~zero_of:(zero_of st elem)
  | Tast.Tmake_map (site, kt, vt) ->
    make_map_obj st (cur_frame st) ~site ~key:(Value.key_kind kt)
      ~value:(Value.val_kind vt)
  | Tast.Tnew (site, ty) ->
    let c = Value.cell (Value.zero st.program.Tast.p_tenv ty) in
    let obj =
      alloc_obj st (cur_frame st) ~site ~category:Rt.Metrics.Cat_other
        ~size:(max 8 site.Tast.site_elem_size)
        ~payload:(Value.Pcells c)
    in
    pin st (cur_frame st) (Value.VPtr (Value.cell_ptr obj c))
  | Tast.Tslice_lit (site, elem, es) ->
    let n = List.length es in
    let store =
      if elem = Types.Int then
        Value.Ints (Array.of_list (List.map (fun e -> as_int (eval st e)) es))
      else
        Value.grown_store (zero_of st elem ()) [||] 0 0
          (Array.of_list (List.map (fun e -> Value.copy (eval st e)) es))
          0 n n
    in
    alloc_slice st (cur_frame st) ~site ~growth:false store ~cap:n ~len:n
  | Tast.Tstruct_lit (_, es) ->
    Value.VStruct
      (Array.of_list (List.map (fun e -> Value.copy (eval st e)) es))
  | Tast.Taddr_struct_lit (site, _, es) ->
    let v =
      Value.VStruct
        (Array.of_list (List.map (fun e -> Value.copy (eval st e)) es))
    in
    let c = Value.cell v in
    let obj =
      alloc_obj st (cur_frame st) ~site ~category:Rt.Metrics.Cat_other
        ~size:(max 8 site.Tast.site_elem_size)
        ~payload:(Value.Pcells c)
    in
    pin st (cur_frame st) (Value.VPtr (Value.cell_ptr obj c))
  | Tast.Tappend (site, s, vs) -> begin
    let base = eval st s in
    let n = List.length vs in
    match s.Tast.ty with
    | Types.Slice Types.Int ->
      let elems = Array.of_list (List.map (fun v -> as_int (eval st v)) vs) in
      append_ints st (cur_frame st) ~site base elems 0 n
    | Types.Slice elem ->
      let elems =
        Array.of_list (List.map (fun v -> Value.copy (eval st v)) vs)
      in
      append_values st (cur_frame st) ~site ~zero_of:(zero_of st elem) base
        elems 0 n
    | _ -> raise (Runtime_error "append to non-slice")
  end
  | Tast.Tlen a -> Value.VInt (length st (eval st a))
  | Tast.Tcap a -> Value.VInt (capacity (eval st a))
  | Tast.Titoa a -> Value.VStr (Value.itoa (as_int (eval st a)))
  | Tast.Trand a -> Value.VInt (rand_int st (as_int (eval st a)))
  | Tast.Tsubstr (s, a, b) -> begin
    match eval st s with
    | Value.VStr s ->
      let lo = as_int (eval st a) in
      let hi = as_int (eval st b) in
      if lo < 0 || hi > String.length s || lo > hi then
        raise (Panic (Value.VStr "substr out of range"))
      else Value.VStr (String.sub s lo (hi - lo))
    | _ -> raise (Runtime_error "substr on non-string")
  end
  | Tast.Tslice_sub (a, lo, hi) ->
    let base = eval st a in
    let lo = Option.map (fun e -> as_int (eval st e)) lo in
    let hi = Option.map (fun e -> as_int (eval st e)) hi in
    reslice base lo hi
  | Tast.Tcopy (dst, src) ->
    let vd = eval st dst in
    let vs = eval st src in
    Value.VInt (slice_copy st vd vs)
  | Tast.Tmap_get_ok (m, k) -> begin
    let vm = eval st m in
    let vk = eval st k in
    let zero () =
      match e.Tast.ty with
      | Types.Tuple [ vt; _ ] -> Value.zero st.program.Tast.p_tenv vt
      | _ -> Value.VUnit
    in
    match vm with
    | Value.VMap hdr ->
      let present = ref true in
      let v = map_get st hdr vk ~zero:(fun () -> present := false; zero ()) in
      Value.VTuple [ v; Value.VBool !present ]
    | Value.VNil -> Value.VTuple [ zero (); Value.VBool false ]
    | _ -> raise (Runtime_error "not a map")
  end
  | Tast.Trecover -> recover st

and recover st =
  match st.unwinding with
  | Some v ->
    (* stop the unwind; hand the panic message to the program *)
    st.unwinding <- None;
    Value.VStr (show st v)
  | None -> Value.VStr ""

(* Address-of: produce a pointer value. *)
and eval_addr st (lv : Tast.lvalue) : Value.value =
  match lv with
  | Tast.Lvar v -> begin
    match lookup_binding st v with
    | Bdirect c -> Value.VPtr (Value.cell_ptr Rt.Heap.no_obj c)
    | Bboxed (obj, c) -> Value.VPtr (Value.cell_ptr obj c)
    | Bunbound -> raise (Runtime_error "unbound variable")
  end
  | Tast.Lderef e -> eval st e
  | Tast.Lindex (a, i) ->
    let va = eval st a in
    let vi = as_int (eval st i) in
    addr_index va vi
  | Tast.Lmap _ -> raise (Runtime_error "cannot take address of map element")
  | Tast.Lfield ({ Tast.desc = Tast.Tindex (a, i); ty = Types.Struct _; _ }, idx, _)
    ->
    (* a field of an element of a slice of structs: its slot *)
    let va = eval st a in
    let vi = as_int (eval st i) in
    addr_index_field st.heap va vi idx
  | Tast.Lfield
      ((({ Tast.ty = Types.Ptr _; _ } as base) | { Tast.desc = Tast.Tderef base; _ }),
        idx, _) -> begin
    (* pointer base, or [( *p).f]: the field lives inside the pointee *)
    match eval st base with
    | Value.VPtr p -> begin
      match Value.read_ptr p with
      | Value.VStruct fields -> Value.field_ptr p.Value.p_owner fields idx
      | _ -> raise (Runtime_error "field of non-struct")
    end
    | Value.VEptr e ->
      Value.field_ptr e.Value.e_owner e.Value.e_arr (e.Value.e_base + idx)
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | _ -> raise (Runtime_error "field of non-pointer")
  end
  | Tast.Lfield (base, idx, _) -> begin
    (* struct-valued base: find its storage without copying *)
    let owner, fields =
      match base.Tast.desc with
      | Tast.Tvar v -> begin
        let c, owner =
          match lookup_binding st v with
          | Bdirect c -> (c, Rt.Heap.no_obj)
          | Bboxed (obj, c) -> (c, obj)
          | Bunbound -> raise (Runtime_error "unbound variable")
        in
        match Value.read_cell c with
        | Value.VStruct fields -> (owner, fields)
        | _ -> raise (Runtime_error "field of non-struct")
      end
      | _ -> begin
        (* nested struct value (s.inner.f, a[i].in.f, …): evaluating the
           base yields its field array itself, so the pointer still
           aliases the storage.  The owner is conservatively the base's
           owning object when it is an element/deref; for pure
           temporaries there is no owner. *)
        match eval st base with
        | Value.VStruct fields -> (owner_of_struct_base st base, fields)
        | _ -> raise (Runtime_error "field of non-struct")
      end
    in
    Value.field_ptr owner fields idx
  end

(* The heap object owning the storage of a struct-valued expression, for
   pointers created into nested fields; [no_obj] when it is frame-local. *)
and owner_of_struct_base st (e : Tast.expr) : Rt.Heap.obj =
  match e.Tast.desc with
  | Tast.Tfield (inner, _, _) -> begin
    match inner.Tast.ty with
    | Types.Ptr _ -> Value.owner_of (eval st inner)
    | _ -> owner_of_struct_base st inner
  end
  | Tast.Tindex (a, _) | Tast.Tderef a -> Value.owner_of (eval st a)
  | _ -> Rt.Heap.no_obj

(* Store into an lvalue: resolve the target (its sub-expressions
   evaluate now, after the right-hand side), then write with Go's
   assignment semantics ({!Value.store}). *)
and assign st (lv : Tast.lvalue) (v : Value.value) =
  match lv with
  | Tast.Lvar x -> Value.store (binding_cell (lookup_binding st x)) 0 v
  | Tast.Lderef e -> store_deref (eval st e) v
  | Tast.Lindex (a, i) ->
    let va = eval st a in
    let vi = as_int (eval st i) in
    store_index va vi v
  | Tast.Lmap (m, k) -> begin
    let vm = eval st m in
    let vk = eval st k in
    match vm with
    | Value.VMap hdr -> map_store st hdr vk (Value.copy v)
    | Value.VNil ->
      raise (Panic (Value.VStr "assignment to entry in nil map"))
    | _ -> raise (Runtime_error "not a map")
  end
  | Tast.Lfield _ -> begin
    match eval_addr st lv with
    | Value.VPtr p -> Value.store p.Value.p_arr p.Value.p_idx v
    | _ -> raise (Runtime_error "bad field target")
  end

and call_function st name (args : Value.value array) : Value.value =
  match Layout.func_id st.layout name with
  | Some fid -> st.dispatch st fid args 0
  | None -> raise (Runtime_error ("undefined function " ^ name))

(** Reference call path: interpret the function body by tree-walking.
    The default [dispatch] of a state. *)
and call_by_id st fid (args : Value.value array) off : Value.value =
  call_fn st ~nslots:st.layout.Layout.l_nslots.(fid) ~body:walk_body
    ~zeros:walk_zeros st.layout.Layout.l_funcs.(fid) args off

and walk_body st frame (f : Tast.func) args off =
  List.iteri
    (fun i p -> declare_var st frame p (Value.copy args.(off + i)))
    f.Tast.f_params;
  (* falling off the end yields the zero values *)
  match exec_block st f.Tast.f_body with
  | () -> walk_zeros st f
  | exception Return_values vs -> vs

and walk_zeros st (f : Tast.func) =
  pack_results
    (List.map (fun ty -> Value.zero st.program.Tast.p_tenv ty) f.Tast.f_results)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and exec_block st (b : Tast.block) =
  push_scope (cur_frame st);
  match List.iter (exec_stmt st) b.Tast.b_stmts with
  | () -> pop_scope st (cur_frame st)
  | exception e ->
    pop_scope st (cur_frame st);
    raise e

and exec_stmt st (s : Tast.stmt) =
  safepoint st;
  match s with
  | Tast.Sdecl (v, init) ->
    let value =
      match init with
      | Some e -> Value.copy (eval st e)
      | None -> Value.zero st.program.Tast.p_tenv v.Tast.v_ty
    in
    declare_var st (cur_frame st) v value
  | Tast.Smulti_decl (vars, e) -> begin
    match eval st e with
    | Value.VTuple vs when List.length vs = List.length vars ->
      List.iter2
        (fun v value -> declare_var st (cur_frame st) v (Value.copy value))
        vars vs
    | _ -> raise (Runtime_error "multi-value declaration mismatch")
  end
  | Tast.Sassign (lv, e) -> assign st lv (eval st e)
  | Tast.Smulti_assign (lvs, e) -> begin
    match eval st e with
    | Value.VTuple vs when List.length vs = List.length lvs ->
      (* resolve targets left to right, then assign *)
      List.iter2 (fun lv v -> assign st lv v) lvs vs
    | _ -> raise (Runtime_error "multi-value assignment mismatch")
  end
  | Tast.Sexpr e -> ignore (eval st e)
  | Tast.Sif (c, b1, b2) ->
    if truthy (eval st c) then exec_block st b1
    else Option.iter (exec_block st) b2
  | Tast.Sfor (init, cond, post, body) ->
    push_scope (cur_frame st);
    let cleanup f = match f () with
      | x -> pop_scope st (cur_frame st); x
      | exception e -> pop_scope st (cur_frame st); raise e
    in
    cleanup (fun () ->
        Option.iter (exec_stmt st) init;
        let rec loop () =
          safepoint st;
          let continue_loop =
            match cond with Some c -> truthy (eval st c) | None -> true
          in
          if continue_loop then begin
            (match exec_block st body with
            | () -> Option.iter (exec_stmt st) post
            | exception Break_loop -> raise Exit
            | exception Continue_loop -> Option.iter (exec_stmt st) post);
            loop ()
          end
        in
        try loop () with Exit -> ())
  | Tast.Sforrange_map (v, m, body) -> begin
    match eval st m with
    | Value.VMap hdr ->
      (* snapshot the keys so mutation during iteration is well-defined *)
      let keys = map_range_keys st hdr in
      (try
         List.iter
           (fun key ->
             safepoint st;
             declare_var st (cur_frame st) v (Value.copy key);
             match exec_block st body with
             | () -> ()
             | exception Break_loop -> raise Exit
             | exception Continue_loop -> ())
           keys
       with Exit -> ())
    | Value.VNil -> ()
    | _ -> raise (Runtime_error "range over non-map")
  end
  | Tast.Sreturn es ->
    let vs = List.map (fun e -> Value.copy (eval st e)) es in
    raise (Return_values (pack_results vs))
  | Tast.Sblock b -> exec_block st b
  | Tast.Sgo (name, args) ->
    let args =
      Array.of_list (List.map (fun a -> Value.copy (eval st a)) args)
    in
    spawn_goroutine st (resolve_func st name) args
  | Tast.Sdefer (name, args) ->
    let args =
      Array.of_list (List.map (fun a -> Value.copy (eval st a)) args)
    in
    let fid = resolve_func st name in
    let f = cur_frame st in
    f.defers <- (fid, args) :: f.defers
  | Tast.Spanic e -> raise (Panic (eval st e))
  | Tast.Sbreak -> raise Break_loop
  | Tast.Scontinue -> raise Continue_loop
  | Tast.Sdelete (m, k) -> begin
    let vm = eval st m in
    let vk = eval st k in
    match vm with
    | Value.VMap hdr -> map_delete st hdr vk
    | Value.VNil -> ()
    | _ -> raise (Runtime_error "delete on non-map")
  end
  | Tast.Sprint es ->
    let parts = List.map (fun e -> show st (eval st e)) es in
    emit_str st (String.concat " " parts ^ "\n")
  | Tast.Stcfree (v, kind) ->
    (* tcfree is only inserted for locals; a global here (impossible by
       construction) indexes the wrong slot space, so guard it out *)
    if v.Tast.v_kind <> Tast.Vglobal then begin
      match (cur_frame st).slots.(Layout.slot st.layout v) with
      | Bunbound -> ()  (* declaration never executed on this path *)
      | b -> tcfree_binding st b kind
    end

and resolve_func st name : int =
  match Layout.func_id st.layout name with
  | Some fid -> fid
  | None -> raise (Runtime_error ("undefined function " ^ name))


