(** Tree-walking interpreter for instrumented MiniGo over the simulated
    GoFree runtime.  Goroutines are cooperative fibers; GC runs only at
    statement-boundary safepoints; tcfree statements call the runtime's
    free family.

    Variables resolve through a per-program {!Layout} into pre-sized
    frame slot arrays; calls go through interned function ids.  The
    state's [dispatch] hook selects the execution mode per call:
    {!call_by_id}, this module's reference tree-walker, or the bytecode
    bodies installed by {!Vm}.  Both modes share the allocation/map/call
    helpers exported below, so they are observationally identical by
    construction. *)

open Minigo
module Rt = Gofree_runtime

exception Runtime_error of string

exception Panic of Value.value

exception Break_loop

exception Continue_loop

(** A variable's storage: a frame cell, or a heap box whose payload is
    the cell itself when its address escapes (the analysis decides).
    [Bunbound] marks a slot whose declaration has not executed on this
    path. *)
type binding =
  | Bunbound
  | Bdirect of Value.cell
  | Bboxed of Rt.Heap.obj * Value.cell

(** Engine-private state kept with a pooled frame (the bytecode VM's
    dispatch registers); [No_ext] until an engine stores its own. *)
type frame_ext = ..

type frame_ext += No_ext

type frame = {
  mutable slots : binding array;
      (** locals by {!Layout} frame slot; may be longer than the live
          call needs, the excess unbound *)
  mutable defers : (int * Value.value array) list;
      (** interned function id + evaluated arguments *)
  mutable stack_objs : Rt.Heap.obj list list;
  mutable lazy_scopes : int;
      (** open scopes not yet materialized in [stack_objs] because no
          stack object has registered in them *)
  mutable temps : Value.value list;
      (** GC pins for values produced in the current statement *)
  mutable ext : frame_ext;
}

type goroutine = {
  g_id : int;
  mutable g_frames : frame array;
      (** frame pool: [g_frames.(0) .. g_frames.(g_depth - 1)] are the
          live frames, innermost last; the rest are released and hold no
          binding *)
  mutable g_depth : int;
  (* operand-stack pool for the bytecode VM; windows are strictly LIFO
     within a goroutine and never alive across a safepoint *)
  mutable g_stk_v : Value.value array;
  mutable g_top_v : int;
  mutable g_stk_i : int array;
  mutable g_top_i : int;
  mutable g_pending : Value.value array;
      (** spawn arguments of a not-yet-started goroutine (GC roots) *)
}

(** Which execution engine interprets function bodies.  Both share the
    allocation/map/call/safepoint helpers exported below through the state's
    [dispatch] hook, so observable behaviour (output, metrics, GC) is
    identical by construction. *)
type engine =
  | Eng_reference  (** tree-walking reference interpreter (this module) *)
  | Eng_bytecode  (** flat bytecode VM ({!Emit}/{!Vm}) *)

type run_config = {
  heap_config : Rt.Heap.config;
  seed : int64;  (** PRNG seed for MiniGo's [rand] *)
  max_steps : int;  (** hard budget; exceeded = [Runtime_error] *)
  yield_every : int;  (** steps between goroutine switches *)
  sample_every : int;
      (** snapshot the heap counters every N steps (0 = off) *)
  engine : engine;
      (** which engine executes function bodies; the reference
          tree-walker is slowest but is the semantic ground truth *)
  domains : int;
      (** N >= 1 (default 1): run goroutines on N OCaml domains through
          the work-stealing scheduler; each domain is one P (mcache) *)
}

val default_config : run_config

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
      (** how calls execute: {!call_by_id} or compiled bodies; defers
          and goroutine entry points route through it.  Arguments are
          read from the array at the offset; the result is packed by
          {!pack_results}. *)
  mutable current : goroutine;
  mutable steps : int;
  mutable unwinding : Value.value option;
      (** the active panic value while defers run during unwinding *)
  mutable ic_hits : int;
      (** bytecode-engine inline-cache hits (map-key + struct-field
          sites); flushed into the telemetry registry by the runner *)
  mutable ic_misses : int;
  mutable yield_at : int;
      (** the step count at which the safepoint fast path next gives way
          to the slow path: the earlier of [next_yield] and the step the
          attached sampler's next sample falls due *)
  mutable next_yield : int;
      (** next step count at which to yield (advances by
          [config.yield_every]) *)
  mutable sampled : int;  (** steps already added to the sampler's clock *)
  mutable dom : int;
      (** index of the domain currently executing this state's
          goroutine — the P whose mcache it allocates from *)
  par : parctx;  (** the shared scheduler context *)
}

(** Shared context of one run: per-domain run queues, the goroutine
    registry (the GC's root set), scheduler
    bookkeeping and the stop-the-world handshake state.
    [p_mutex]/[p_work] guard every mutable field except the queues
    (internally locked) and [p_rng] (atomic). *)
and parctx = {
  p_nd : int;  (** number of domains *)
  p_queues : ptask Gofree_sched.Wsq.t array;  (** one per domain *)
  p_mutex : Mutex.t;
  p_work : Condition.t;
  mutable p_live : int;  (** goroutines queued or running *)
  mutable p_running : int;  (** domains currently executing a slice *)
  mutable p_regs : (goroutine * state) list;
  mutable p_yields : int;
  mutable p_steals : int;  (** goroutines moved by work stealing *)
  mutable p_spawns : int;  (** goroutines spawned; also the last gid *)
  mutable p_steps_done : int;
      (** summed step counts of finished goroutines *)
  mutable p_ic_hits : int;  (** inline-cache hits of finished goroutines *)
  mutable p_ic_misses : int;
  mutable p_abort : exn option;
  mutable p_gc_active : bool;
      (** a domain is leading a stop-the-world GC handshake *)
  p_out_mutex : Mutex.t;
  p_seed : int64;
  p_rng : int Atomic.t;  (** values claimed from [p_seed]'s stream *)
}

and ptask = {
  tk_st : state;  (** the goroutine's state copy ([dom] set per slice) *)
  tk_run : unit -> unit;  (** start the fiber or resume its continuation *)
}

val make_parctx : nd:int -> seed:int64 -> parctx

(** Enumerate every root object: globals, then each registered
    goroutine's live frames (slots, statement pins, pending defer
    arguments) and — for a goroutine that has not started — its spawn
    arguments.  Released pool frames are not roots. *)
val iter_roots_par :
  parctx -> globals:binding array -> (Rt.Heap.obj -> unit) -> unit

(** Append to the program output; whole-string-atomic when nd > 1. *)
val emit_str : state -> string -> unit

(** Package a goroutine body as a schedulable task whose yields
    re-enqueue on the domain executing it.  A captured trace shows each
    of its slices as a [run gN] span on the goroutine's own track. *)
val fiber_task : parctx -> state -> (unit -> unit) -> ptask

val eval : state -> Tast.expr -> Value.value

(** Call a MiniGo function with already-evaluated arguments through the
    state's dispatch; runs its defers on both normal exit and panic
    unwind. *)
val call_function : state -> string -> Value.value array -> Value.value

(** The reference (tree-walking) call path, by interned function id; the
    default value of [dispatch]. *)
val call_by_id : state -> int -> Value.value array -> int -> Value.value

(** {2 Shared execution machinery}

    Everything below is the single implementation of the runtime
    semantics used by both the reference walker and the bytecode VM —
    keeping them shared is what makes the two modes agree on every
    allocator-visible event. *)

val cur_frame : state -> frame

(** Acquire the current goroutine's next pooled frame, with at least the
    given number of unbound slots.  {!call_fn} does this for every call;
    the runner also uses it for the synthetic frame the global
    initializers run in. *)
val push_frame : state -> int -> frame

(** Release the innermost frame, unbinding the given number of slots and
    its statement pins. *)
val pop_frame : state -> frame -> int -> unit

(** Statement boundary: step accounting, pin reset, and the slow path
    when a GC request, a yield or a sample falls due ([yield_at]). *)
val safepoint : state -> unit

(** The safepoint's slow path (budget check, GC — stop-the-world
    handshake in multi-domain runs —, sampling, yield); exported for the
    bytecode VM, whose fast path replicates {!safepoint}'s guard. *)
val safepoint_slow : state -> unit

val push_scope : frame -> unit

val pop_scope : state -> frame -> unit

(** Pin a value on [frame] for the rest of the current statement. *)
val pin : state -> frame -> Value.value -> Value.value

val rand_int : state -> int -> int

val zero_of : state -> Types.t -> unit -> Value.value

val truthy : Value.value -> bool

val as_int : Value.value -> int

(** Strict binary operators ([&&]/[||] are handled lazily by callers). *)
val eval_binop : Ast.binop -> Value.value -> Value.value -> Value.value

val value_eq : Value.value -> Value.value -> bool

val alloc_obj :
  state ->
  frame ->
  site:Tast.alloc_site ->
  category:Rt.Metrics.category ->
  size:int ->
  payload:Rt.Heap.payload ->
  Rt.Heap.obj

val alloc_heap_obj :
  state ->
  category:Rt.Metrics.category ->
  size:int ->
  payload:Rt.Heap.payload ->
  Rt.Heap.obj

val make_slice_obj :
  state ->
  frame ->
  site:Tast.alloc_site ->
  len:int ->
  cap:int ->
  zero_of:(unit -> Value.value) ->
  Value.value

(** A new map whose buckets have the given key and value columns
    ({!Value.key_kind}, {!Value.val_kind} of its static types). *)
val make_map_obj :
  state ->
  frame ->
  site:Tast.alloc_site ->
  key:Value.key_kind ->
  value:Value.val_kind ->
  Value.value

(** The live header payload of a map header object; raises
    {!Value.Corruption} when it has been freed.  Allocates nothing.
    Exported for the bytecode VM's map-site inline caches, which key on
    [Value.map_data.md_version]. *)
val map_data : state -> Rt.Heap.obj -> Value.map_data

(** The live buckets a map header names; raises {!Value.Corruption}
    when they have been freed.  Allocates nothing. *)
val map_buckets : state -> Value.map_data -> Value.buckets

val map_store : state -> Rt.Heap.obj -> Value.value -> Value.value -> unit

(** {!map_store} with the value as its int-stack word (an int, or a bool
    as 0/1). *)
val map_store_vi : state -> Rt.Heap.obj -> Value.value -> int -> unit

(** {!map_store} with both the key and the value as int-stack words. *)
val map_store_ii : state -> Rt.Heap.obj -> int -> int -> unit

val map_get :
  state -> Rt.Heap.obj -> Value.value -> zero:(unit -> Value.value) ->
  Value.value

val map_delete : state -> Rt.Heap.obj -> Value.value -> unit

val map_len : state -> Rt.Heap.obj -> int

(** Key snapshot for [for k := range m], in iteration order. *)
val map_range_keys : state -> Rt.Heap.obj -> Value.value list

(** {2 Slice operations}

    Each is the one implementation of its operation on both kinds of
    slice store ({!Value.VSlice}, {!Value.VIslice}) for both engines. *)

(** [alloc_slice st fr ~site ~growth store ~cap ~len]: the slice over the
    first [len] elements of a fresh [cap]-element store, allocated at
    [site] — from the heap regardless of the site when [growth] — and
    pinned.  [make], slice literals and [append] growth all allocate
    here. *)
val alloc_slice :
  state ->
  frame ->
  site:Tast.alloc_site ->
  growth:bool ->
  Value.store ->
  cap:int ->
  len:int ->
  Value.value

(** The text [println] prints; int-store elements are poison-checked. *)
val show : state -> Value.value -> string

(** [a[i]] of a slice or string, boxed. *)
val index_value : Rt.Heap.t -> Value.value -> int -> Value.value

(** [a[i] = v]: bounds check, then the assignment ({!Value.store}). *)
val store_index : Value.value -> int -> Value.value -> unit

(** [&a[i]]: a slot pointer, or a flat store's struct element
    ({!Value.eptr}). *)
val addr_index : Value.value -> int -> Value.value

(** [index_field heap a i f]: [a[i].f] of a slice of structs, read in
    the element's slot of the flat store, with [a[i]]'s errors. *)
val index_field : Rt.Heap.t -> Value.value -> int -> int -> Value.value

(** [&a[i].f] of a slice of structs: a pointer to the field's slot. *)
val addr_index_field : Rt.Heap.t -> Value.value -> int -> int -> Value.value

(** [*p]. *)
val deref : Rt.Heap.t -> Value.value -> Value.value

(** [*p = v], an assignment ({!Value.store}, {!Value.store_struct}). *)
val store_deref : Value.value -> Value.value -> unit

(** [len] of a slice, string, map or nil. *)
val length : state -> Value.value -> int

(** [cap] of a slice or nil. *)
val capacity : Value.value -> int

(** [reslice a lo hi]: [a[lo:hi]] of a slice or string, a header
    operation; an absent bound is [None]. *)
val reslice : Value.value -> int option -> int option -> Value.value

(** [copy(dst, src)], returning the count copied.  Memmove semantics:
    every source slot is read (poison-checked) before the first write,
    so overlapping views of one backing store copy correctly; each is
    stored into its destination slot in place ({!Value.store}). *)
val slice_copy : state -> Value.value -> Value.value -> int

(** [append_values st fr ~site ~zero_of base elems off n]: append the
    [n] already-evaluated, assignment-copied elements of [elems] from
    [off] to a value-store slice: stored into its backing array within
    capacity ({!Value.set_elem}), else into one fresh heap store whose
    spare capacity holds zero slots ({!Value.grown_store}). *)
val append_values :
  state ->
  frame ->
  site:Tast.alloc_site ->
  zero_of:(unit -> Value.value) ->
  Value.value ->
  Value.value array ->
  int ->
  int ->
  Value.value

(** [append_fields st fr ~site ~zero_of base fields off w]:
    {!append_values} of one struct literal whose [w] assignment-copied
    fields are [fields] from [off], stored straight into the element's
    slots when it fits the capacity. *)
val append_fields :
  state ->
  frame ->
  site:Tast.alloc_site ->
  zero_of:(unit -> Value.value) ->
  Value.value ->
  Value.value array ->
  int ->
  int ->
  Value.value

(** {!append_values} for an int slice, the elements unboxed. *)
val append_ints :
  state ->
  frame ->
  site:Tast.alloc_site ->
  Value.value ->
  int array ->
  int ->
  int ->
  Value.value

(** Apply a tcfree of the given kind to an already-resolved binding
    (callers filter [Bunbound] — never executed — as a no-op). *)
val tcfree_binding : state -> binding -> Tast.free_kind -> unit

(** A call's results as one value: [VUnit] for none, the value itself
    for one, a [VTuple] for more. *)
val pack_results : Value.value list -> Value.value

(** The shared call protocol: acquire a pooled frame ({!push_frame}),
    run [body st frame data args off] — it binds the parameters from the
    arguments at the offset and runs to the packed results —, then run
    defers, release scopes and the frame on every exit path, including
    the panic/recover handshake, where [zeros st data] gives the packed
    zero results a recovered call returns, and a deferred call that
    panics, whose panic replaces the one being unwound.  A call allocates nothing
    here: the frame and its slot array come from the goroutine's pool,
    [body] and [zeros] are meant to be top-level functions, and a normal
    return raises nothing. *)
val call_fn :
  state ->
  nslots:int ->
  body:(state -> frame -> 'a -> Value.value array -> int -> Value.value) ->
  zeros:(state -> 'a -> Value.value) ->
  'a ->
  Value.value array ->
  int ->
  Value.value

(** Start a goroutine running function [fid] (through dispatch) on the
    given arguments, which it keeps. *)
val spawn_goroutine : state -> int -> Value.value array -> unit
