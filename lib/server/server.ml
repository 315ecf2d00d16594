(** The [gofreec serve] daemon: a Unix-domain socket listener that keeps
    compilation and build results resident across requests.

    Threading model:
    - the {e accept} loop runs in {!serve}'s caller (or a background
      thread via {!start});
    - each connection gets a lightweight {e reader thread} that frames
      request lines, decodes them, and feeds the shared bounded
      {!Pool}, keyed by connection so the pool drains round-robin
      across clients — one pipelining client cannot starve the rest;
    - a request that needs no worker is answered on the reader thread
      itself, ahead of any queue: [stats], [telemetry], [shutdown], and
      an [analyze] or [explain] of an inline source whose compilation
      is already resident (a lookup and a JSON rendering, far cheaper
      than waiting behind a [run]).  Reader threads are systhreads that
      share the main domain, so work done there must stay this cheap;
      misses, [run], [build] and [File] sources (reading a file is I/O
      of unbounded cost) always go to the pool;
    - a fixed pool of {e worker domains} executes the pooled requests
      (the parallelism follows "Retrofitting Parallelism onto OCaml",
      like the build driver's analysis waves) and writes each response
      back under the connection's write mutex, so responses never
      interleave mid-line even when one client pipelines requests —
      which also means a pipelining client may get a reader-path
      response before an earlier pooled one: ids are the correlation.

    Overload behavior (admission control):
    - past the shed high-watermark the daemon answers [overloaded]
      immediately instead of blocking the reader — per-request work
      stays bounded and the client decides whether to back off or
      retry (graceful degradation rather than unbounded queueing);
    - a request still {e queued} past its deadline ([deadline_ms]
      param, or the server-wide default) gets a [timed_out] response
      when it reaches a worker; running requests are never interrupted;
    - queued work whose client has disconnected is cancelled — the
      worker skips it (counted, no response owed);
    - requests answered on the reader are never shed and never time
      out: they never queue.

    Failure containment, per the protocol contract:
    - a malformed line gets a [bad_request] error response and the
      connection keeps serving;
    - a client that disconnects mid-request only loses its own
      response (the write fails, the result is dropped, the daemon
      lives on);
    - [shutdown] stops intake, {e drains} queued and in-flight work so
      every accepted request is answered, then closes.

    The invariant all three overload paths preserve: {e one response
    per request} on a live connection — shed and timeout produce error
    {e responses} with the request's id echoed, never silence, so a
    pipelining client's id bookkeeping survives overload. *)

module Json = Gofree_obs.Json
module Trace = Gofree_obs.Trace
module Ring = Gofree_obs.Ring
module Reg = Gofree_obs.Registry
module Log = Gofree_obs.Log
module Pool = Gofree_sched.Pool

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_wmutex : Mutex.t;  (** guards writes and the fields below *)
  mutable c_alive : bool;  (** false once a write failed *)
  mutable c_pending : int;  (** requests submitted, response not written *)
  mutable c_eof : bool;  (** reader saw EOF; close once pending drains *)
  mutable c_closed : bool;
  mutable c_served : int;  (** responses written to this client *)
}

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  pool : Pool.t;
  shed_watermark : int;  (** queue depth past which requests shed *)
  default_deadline_ms : int;  (** 0 = no server-wide deadline *)
  cache : Cache.t;
  stopping : bool Atomic.t;
  t0 : float;
  (* ---- telemetry (the per-server registry; lock-free updates) ---- *)
  reg : Reg.t;
  m_responses : Reg.counter;  (** responses sent, errors included *)
  m_errors : Reg.counter;  (** error responses among them *)
  m_malformed : Reg.counter;  (** undecodable request lines *)
  m_dropped : Reg.counter;  (** responses lost to dead connections *)
  m_shed : Reg.counter;  (** requests refused with [overloaded] *)
  m_timed_out : Reg.counter;  (** queued past deadline, answered so *)
  m_cancelled : Reg.counter;  (** queued work skipped: client gone *)
  h_queue_wait : Reg.histogram;  (** ms, receipt → dequeue *)
  h_service : Reg.histogram;  (** ms, dequeue → response written *)
  h_request : Reg.histogram;  (** ms, receipt → response written *)
  g_queue_depth : Reg.gauge;
  g_connections : Reg.gauge;
  g_uptime : Reg.gauge;
  next_req : int Atomic.t;  (** request ids, minted at the reader *)
  (* ---- connection bookkeeping (under st_mutex) ---- *)
  st_mutex : Mutex.t;
  latencies : float Ring.t;
      (** ms, receipt → response, pooled requests and resident hits
          answered on the reader — the bounded
          {e recent window} behind [stats.latency_recent_ms]; the
          all-time percentiles come from [h_request] *)
  mutable conns : conn list;
  mutable conns_total : int;
  mutable threads : Thread.t list;
  mutable serve_thread : Thread.t option;
}

(* One latency ladder for queue-wait, service and total so snapshots of
   the three merge and compare; sub-ms lower rungs resolve the
   queue-wait of an idle daemon. *)
let latency_buckets_ms = Reg.default_buckets_ms

let method_counter_prefix = "gofree_rpc_method_"

let method_counter (t : t) name =
  Reg.counter t.reg (method_counter_prefix ^ name ^ "_total")

let now_ms () = Unix.gettimeofday () *. 1000.

(* ---------------------------------------------------------------- *)
(* Lifecycle                                                         *)
(* ---------------------------------------------------------------- *)

(* The minor heap of the main domain (the reader threads) and of each
   worker domain, in words: 512K, 4 MiB, twice OCaml's default.  In
   OCaml 5 every minor collection stops every domain, so each one is a
   handshake between the main domain and the workers, and under load
   the handshakes, not the requests' own work, set the latency.  Twice
   the heap makes half the collections per request.  A 1M-word heap was
   faster again, but each domain's heap is resident memory: the daemon's
   peak RSS rose 19% at 1M words, past perfbench's 15% bound, against 6%
   at 512K (EXPERIMENTS.md, "Daemon minor heaps"). *)
let minor_heap_words = 512 * 1024

(* [Gc.set] sizes the calling domain's minor heap only. *)
let size_minor_heap () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words }

let create ?(workers = 0) ?(queue_capacity = 64) ?shed_watermark
    ?(default_deadline_ms = 0) ~socket () : t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists socket then begin
    match (Unix.lstat socket).Unix.st_kind with
    | Unix.S_SOCK -> Unix.unlink socket  (* stale socket of a dead server *)
    | _ ->
      invalid_arg
        (Printf.sprintf "Server.create: %s exists and is not a socket"
           socket)
  end;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket);
     Unix.listen listen_fd 64
   with e ->
     Unix.close listen_fd;
     raise e);
  let queue_capacity = max 1 queue_capacity in
  (* the daemon's lifetime turns the runtime instruments (GC pause/gap,
     tcfree counters) on; [serve] releases on the way out *)
  Reg.acquire_runtime ();
  size_minor_heap ();
  let reg = Reg.create () in
  let histo help name =
    Reg.histogram reg ~help ~buckets:latency_buckets_ms name
  in
  {
    socket_path = socket;
    listen_fd;
    pool =
      Pool.create ~workers ~capacity:queue_capacity
        ~domain_init:size_minor_heap ();
    shed_watermark =
      (match shed_watermark with
      | Some w -> min (max 1 w) queue_capacity
      | None -> queue_capacity);
    default_deadline_ms = max 0 default_deadline_ms;
    cache = Cache.create ();
    stopping = Atomic.make false;
    t0 = now_ms ();
    reg;
    m_responses =
      Reg.counter reg ~help:"responses sent, errors included"
        "gofree_rpc_responses_total";
    m_errors =
      Reg.counter reg ~help:"error responses among the responses"
        "gofree_rpc_responses_error_total";
    m_malformed =
      Reg.counter reg ~help:"undecodable request lines"
        "gofree_rpc_malformed_total";
    m_dropped =
      Reg.counter reg ~help:"responses lost to dead connections"
        "gofree_rpc_responses_dropped_total";
    m_shed =
      Reg.counter reg ~help:"requests refused with overloaded"
        "gofree_rpc_shed_total";
    m_timed_out =
      Reg.counter reg ~help:"requests queued past their deadline"
        "gofree_rpc_timed_out_total";
    m_cancelled =
      Reg.counter reg ~help:"queued work skipped: client disconnected"
        "gofree_rpc_cancelled_total";
    h_queue_wait =
      histo "ms from receipt to dequeue (0 when answered on the reader)"
        "gofree_rpc_queue_wait_ms";
    h_service =
      histo "ms from dequeue to response written"
        "gofree_rpc_service_ms";
    h_request =
      histo "ms from receipt to response written"
        "gofree_rpc_request_ms";
    g_queue_depth =
      Reg.gauge reg ~help:"queue depth at last scrape"
        "gofree_rpc_queue_depth";
    g_connections =
      Reg.gauge reg ~help:"active connections at last scrape"
        "gofree_rpc_connections_active";
    g_uptime = Reg.gauge reg ~help:"ms since create" "gofree_uptime_ms";
    next_req = Atomic.make 1;
    st_mutex = Mutex.create ();
    latencies = Ring.create ~capacity:1024;
    conns = [];
    conns_total = 0;
    threads = [];
    serve_thread = None;
  }

(* Wake the accept loop after [stopping] flips: a throwaway connection
   to our own socket makes the blocking accept return. *)
let wake_accept (t : t) =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.connect fd (Unix.ADDR_UNIX t.socket_path)
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(** Ask the server to stop: intake ends, queued and in-flight requests
    are still answered, then sockets close.  Safe from any thread. *)
let request_shutdown (t : t) : unit =
  if Atomic.compare_and_set t.stopping false true then wake_accept t

(* ---------------------------------------------------------------- *)
(* Connection bookkeeping                                            *)
(* ---------------------------------------------------------------- *)

let close_locked (c : conn) =
  if not c.c_closed then begin
    c.c_closed <- true;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

(* The fd closes only when the reader is done AND no response is still
   owed — otherwise a freshly accepted connection could reuse the fd
   number and receive a stale response. *)
let conn_done_one (c : conn) =
  Mutex.lock c.c_wmutex;
  c.c_pending <- c.c_pending - 1;
  if c.c_eof && c.c_pending = 0 then close_locked c;
  Mutex.unlock c.c_wmutex

let conn_reader_done (t : t) (c : conn) =
  Mutex.lock c.c_wmutex;
  c.c_eof <- true;
  if c.c_pending = 0 then close_locked c;
  Mutex.unlock c.c_wmutex;
  Mutex.lock t.st_mutex;
  t.conns <- List.filter (fun c' -> c'.c_id <> c.c_id) t.conns;
  Mutex.unlock t.st_mutex;
  if Log.enabled Log.Debug then
    Log.log Log.Debug "conn_close"
      [ ("conn", Json.Int c.c_id); ("served", Json.Int c.c_served) ]

(** Write one response line; [false] (and counted) when the client is
    gone.  A dead connection swallows all later responses too. *)
let send (t : t) (c : conn) (j : Json.t) : bool =
  (* counted before the bytes go out: the moment the write lands the
     client can already be scraping stats/telemetry on another
     connection, and the scrape must include this response.  A failed
     write is counted under dropped as well. *)
  Reg.incr t.m_responses;
  Mutex.lock c.c_wmutex;
  let ok =
    c.c_alive && not c.c_closed
    &&
    match Rpc.write_line c.c_fd j with
    | () -> true
    | exception Unix.Unix_error _ ->
      c.c_alive <- false;
      false
  in
  if ok then c.c_served <- c.c_served + 1;
  Mutex.unlock c.c_wmutex;
  if not ok then Reg.incr t.m_dropped;
  ok

let count_method (t : t) name = Reg.incr (method_counter t name)

let count_error (t : t) = Reg.incr t.m_errors

(* The three overload outcomes: counter, request-correlated trace
   instant on the connection's reader track, and a warn-level log line. *)
let count_outcome (c : conn) ~rid ~meth counter what =
  Reg.incr counter;
  if Trace.enabled () then
    Trace.instant
      ~args:[ ("req", Json.Int rid); ("conn", Json.Int c.c_id) ]
      ~tid:(Trace.tid_reader c.c_id)
      ("rpc:" ^ what);
  if Log.enabled Log.Warn then
    Log.log Log.Warn what
      [
        ("req", Json.Int rid);
        ("conn", Json.Int c.c_id);
        ("method", Json.Str meth);
      ]

let count_shed (t : t) c ~rid ~meth =
  count_outcome c ~rid ~meth t.m_shed "shed"

let count_timed_out (t : t) c ~rid ~meth =
  count_outcome c ~rid ~meth t.m_timed_out "timed_out"

let count_cancelled (t : t) c ~rid ~meth =
  count_outcome c ~rid ~meth t.m_cancelled "cancelled"

(* A connection whose reader saw EOF (or whose last write failed) owes
   nothing: queued work for it is cancelled instead of executed. *)
let conn_gone (c : conn) =
  Mutex.lock c.c_wmutex;
  let gone = (not c.c_alive) || c.c_closed || c.c_eof in
  Mutex.unlock c.c_wmutex;
  gone

(* ---------------------------------------------------------------- *)
(* Request handlers                                                  *)
(* ---------------------------------------------------------------- *)

let insertion_json (i : Gofree_api.insertion) : Json.t =
  Json.Obj
    [
      ("function", Json.Str i.Gofree_api.ins_function);
      ("variable", Json.Str i.Gofree_api.ins_variable);
      ("kind", Json.Str (Gofree_api.free_kind_name i.Gofree_api.ins_kind));
    ]

let outcome_json ~cached (o : Gofree_api.run_outcome) : Json.t =
  Json.Obj
    [
      ("output", Json.Str o.Gofree_api.output);
      ("panicked", Json.Bool o.Gofree_api.panicked);
      ("steps", Json.Int o.Gofree_api.steps);
      ("wall_ns", Json.Int (Int64.to_int o.Gofree_api.wall_ns));
      ("cached", Json.Bool cached);
      ("metrics", o.Gofree_api.metrics_json);
    ]

let source_of_src : Rpc.src -> (string, Gofree_api.error) result = function
  | Rpc.Inline s -> Ok s
  | Rpc.File f -> begin
    match Gofree_api.read_file f with
    | s -> Ok s
    | exception Sys_error m -> Error (Gofree_api.Compile_error m)
  end

let cached_compilation (t : t) ~config src =
  match source_of_src src with
  | Error e -> Error e
  | Ok source -> Cache.compilation t.cache ~config source

(* The ladder both latency views share.  The all-time view reads the
   request histogram — unlike the pre-telemetry ring it never forgets
   early requests once more than the window have been served, so p99
   keeps meaning p99 {e of the run} under pressure.  Quantiles are
   bucket-interpolated estimates clamped to the tracked maximum. *)
let histogram_latency_fields (h : Reg.Snapshot.histo) =
  let count = Reg.Snapshot.count h in
  if count = 0 then []
  else
    [
      ("count", Json.Int count);
      ("p50_ms", Json.Float (Reg.Snapshot.quantile h 50.0));
      ("p95_ms", Json.Float (Reg.Snapshot.quantile h 95.0));
      ("p99_ms", Json.Float (Reg.Snapshot.quantile h 99.0));
      ("max_ms", Json.Float h.Reg.Snapshot.max_value);
    ]

(* Exact sample percentiles, but only over the ring's bounded recent
   window — the complementary "what just happened" view. *)
let ring_latency_fields (lats : float array) =
  match Gofree_stats.Stats.latency_summary lats with
  | None -> []
  | Some s ->
    [
      ("window", Json.Int (Array.length lats));
      ("p50_ms", Json.Float s.Gofree_stats.Stats.ls_p50_ms);
      ("p95_ms", Json.Float s.Gofree_stats.Stats.ls_p95_ms);
      ("p99_ms", Json.Float s.Gofree_stats.Stats.ls_p99_ms);
      ("max_ms", Json.Float s.Gofree_stats.Stats.ls_max_ms);
    ]

let stats_json (t : t) : Json.t =
  let hits, misses = Cache.counts t.cache in
  Mutex.lock t.st_mutex;
  let active = List.length t.conns and total = t.conns_total in
  let clients =
    List.rev_map
      (fun c ->
        Mutex.lock c.c_wmutex;
        let served = c.c_served and pending = c.c_pending in
        Mutex.unlock c.c_wmutex;
        Json.Obj
          [
            ("id", Json.Int c.c_id);
            ("served", Json.Int served);
            ("pending", Json.Int pending);
          ])
      t.conns
  in
  let lats = Array.of_list (Ring.to_list t.latencies) in
  Mutex.unlock t.st_mutex;
  let snap = Reg.snapshot t.reg in
  let by_method =
    List.filter_map
      (fun (name, v) ->
        let plen = String.length method_counter_prefix in
        if
          String.length name > plen + 6
          && String.sub name 0 plen = method_counter_prefix
          && Filename.check_suffix name "_total"
        then
          Some
            ( String.sub name plen (String.length name - plen - 6),
              Json.Int v )
        else None)
      snap.Reg.Snapshot.counters
  in
  let served = Reg.counter_value t.m_responses in
  let errored = Reg.counter_value t.m_errors in
  let malformed = Reg.counter_value t.m_malformed in
  let dropped = Reg.counter_value t.m_dropped in
  let shed = Reg.counter_value t.m_shed in
  let timed_out = Reg.counter_value t.m_timed_out in
  let cancelled = Reg.counter_value t.m_cancelled in
  let latency =
    match Reg.Snapshot.find_histogram "gofree_rpc_request_ms" snap with
    | Some h -> histogram_latency_fields h
    | None -> []
  in
  Json.Obj
    [
      ("api_version", Json.Int Gofree_api.api_version);
      ("uptime_ms", Json.Float (now_ms () -. t.t0));
      ( "requests",
        Json.Obj
          [
            ("served", Json.Int served);
            ("errors", Json.Int errored);
            ("malformed", Json.Int malformed);
            ("dropped_responses", Json.Int dropped);
            ("shed", Json.Int shed);
            ("timed_out", Json.Int timed_out);
            ("cancelled", Json.Int cancelled);
            ("by_method", Json.Obj by_method);
          ] );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int hits);
            ("misses", Json.Int misses);
            ( "hit_ratio",
              Json.Float
                (if hits + misses = 0 then 0.0
                 else float_of_int hits /. float_of_int (hits + misses)) );
          ] );
      ( "unit_cache",
        let uh, um = Cache.unit_counts t.cache in
        Json.Obj
          [ ("hits", Json.Int uh); ("misses", Json.Int um) ] );
      ( "vm",
        (* the bytecode engine's inline-cache traffic across every run
           this process served, from the process-wide runtime registry *)
        let rsnap = Reg.snapshot Reg.runtime in
        let counter name =
          Option.value ~default:0
            (List.assoc_opt name rsnap.Reg.Snapshot.counters)
        in
        let ic_hits = counter "gofree_vm_ic_hit_total" in
        let ic_misses = counter "gofree_vm_ic_miss_total" in
        Json.Obj
          [
            ("ic_hits", Json.Int ic_hits);
            ("ic_misses", Json.Int ic_misses);
            ( "ic_hit_ratio",
              Json.Float
                (if ic_hits + ic_misses = 0 then 0.0
                 else
                   float_of_int ic_hits
                   /. float_of_int (ic_hits + ic_misses)) );
          ] );
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int (Pool.queue_depth t.pool));
            ("high_watermark", Json.Int (Pool.max_queue_depth t.pool));
            ("capacity", Json.Int (Pool.capacity t.pool));
            ("shed_watermark", Json.Int t.shed_watermark);
            ("workers", Json.Int (Pool.size t.pool));
          ] );
      ( "connections",
        Json.Obj
          [
            ("active", Json.Int active);
            ("total", Json.Int total);
            ("clients", Json.List clients);
          ] );
      ("latency_ms", Json.Obj latency);
      ("latency_recent_ms", Json.Obj (ring_latency_fields lats));
      ( "host_gc",
        (* the OCaml runtime's own collections over the process's life,
           every domain's: each minor one stops them all *)
        let g = Gc.quick_stat () in
        Json.Obj
          [
            ("minor_collections", Json.Int g.Gc.minor_collections);
            ("major_collections", Json.Int g.Gc.major_collections);
            ("minor_words", Json.Float g.Gc.minor_words);
          ] );
    ]

(** The [telemetry] verb: one [gofree-telemetry-v1] document merging
    this server's request registry with the process-wide runtime
    registry (GC pause/gap histograms, tcfree counters).  Gauges are
    sampled at scrape time. *)
let telemetry_json (t : t) : Json.t =
  Reg.set t.g_uptime (now_ms () -. t.t0);
  Reg.set t.g_queue_depth (float_of_int (Pool.queue_depth t.pool));
  Mutex.lock t.st_mutex;
  let active = List.length t.conns in
  Mutex.unlock t.st_mutex;
  Reg.set t.g_connections (float_of_int active);
  Reg.Snapshot.to_json
    (Reg.Snapshot.merge (Reg.snapshot Reg.runtime) (Reg.snapshot t.reg))

(** The result of an [analyze] (or, for any other request, [explain])
    request, rendered from its compilation — the part both the pooled
    path and a resident hit answered on the reader share. *)
let compilation_result (t : t) (r : Rpc.request) ~cached
    (e : Cache.entry) : Json.t =
  let c = e.Cache.comp in
  let explain_json () = Cache.explain t.cache e in
  match r with
  | Rpc.Analyze { explain; _ } ->
    Json.Obj
      ([
         ( "functions",
           Json.List
             (List.map (fun f -> Json.Str f) (Gofree_api.function_names c))
         );
         ( "insertions",
           Json.List (List.map insertion_json (Gofree_api.insertions c)) );
         ("cached", Json.Bool cached);
       ]
      @ if explain then [ ("explain", explain_json ()) ] else [])
  | _ -> Json.Obj [ ("cached", Json.Bool cached); ("explain", explain_json ()) ]

(** Execute one decoded request; [Error (code, message)] becomes an
    error response. *)
let handle (t : t) (r : Rpc.request) : (Json.t, string * string) result =
  let api e = (Rpc.error_code e, Gofree_api.error_message e) in
  match r with
  | Rpc.Stats -> Ok (stats_json t)
  | Rpc.Telemetry -> Ok (telemetry_json t)
  | Rpc.Shutdown ->
    request_shutdown t;
    Ok (Json.Obj [ ("stopping", Json.Bool true) ])
  | Rpc.Analyze { src; config; _ } | Rpc.Explain { src; config } -> begin
    match cached_compilation t ~config src with
    | Error e -> Error (api e)
    | Ok (e, cached) -> Ok (compilation_result t r ~cached e)
  end
  | Rpc.Run { src; config; options } -> begin
    match cached_compilation t ~config src with
    | Error e -> Error (api e)
    | Ok (e, cached) -> begin
      match Gofree_api.run_compilation ~options e.Cache.comp with
      | Error e -> Error (api e)
      | Ok o -> Ok (outcome_json ~cached o)
    end
  end
  | Rpc.Build { dir; config; force; run; cache_dir; options } ->
  begin
    match Cache.build t.cache ~config ?cache_dir ~force dir with
    | Error e -> Error (api e)
    | Ok (b, resident) -> begin
      let packages, store_hits = Gofree_api.build_cache_counts b in
      let unit_hits, units_analyzed = Gofree_api.build_unit_counts b in
      let base =
        [
          ("resident_cache", Json.Str (if resident then "hit" else "miss"));
          ("packages", Json.Int packages);
          ("store_hits", Json.Int store_hits);
          ("unit_hits", Json.Int unit_hits);
          ("units_analyzed", Json.Int units_analyzed);
          ("stats", Gofree_api.build_stats_to_json
             (Gofree_api.build_stats b));
          ( "insertions",
            Json.List
              (List.map insertion_json (Gofree_api.build_insertions b)) );
        ]
      in
      if not run then Ok (Json.Obj base)
      else begin
        match Gofree_api.run_build ~options b with
        | Error e -> Error (api e)
        | Ok o ->
          Ok (Json.Obj (base @ [ ("run", outcome_json ~cached:resident o) ]))
      end
    end
  end

(* ---------------------------------------------------------------- *)
(* Per-connection reader                                             *)
(* ---------------------------------------------------------------- *)

let respond (t : t) (c : conn) ~id (outcome : (Json.t, string * string) result)
    =
  let response =
    match outcome with
    | Ok result -> Rpc.response_ok ~id result
    | Error (code, message) ->
      count_error t;
      Rpc.response_error ~id ~code message
  in
  ignore (send t c response)

let outcome_name = function
  | Ok _ -> "ok"
  | Error (code, _) -> code

(* Log an info line with the whole latency decomposition and the [path]
   that answered it (["reader"] or ["pool"]), then send the response and
   mark it on the reader track.  The line goes first: once the client
   has the response it may send its next request, and that request's
   line must not land before this one's. *)
let reply (t : t) (c : conn) ~rid ~meth ~id ~path ~queue_wait_ms
    ~service_ms ~total_ms outcome =
  if Log.enabled Log.Info then
    Log.log Log.Info "request"
      [
        ("req", Json.Int rid);
        ("conn", Json.Int c.c_id);
        ("method", Json.Str meth);
        ("path", Json.Str path);
        ("outcome", Json.Str (outcome_name outcome));
        ("queue_wait_ms", Json.Float queue_wait_ms);
        ("service_ms", Json.Float service_ms);
        ("total_ms", Json.Float total_ms);
      ];
  respond t c ~id outcome;
  if Trace.enabled () then
    Trace.instant ~args:[ ("req", Json.Int rid) ]
      ~tid:(Trace.tid_reader c.c_id) "rpc:respond"

(* Record one request's latency split — receipt [t_recv], start of
   service [t_start] (dequeue, or receipt on the reader), done now —
   into the three histograms and the recent window, then {!reply}.  A
   request that timed out in the queue had no service ([~served:false]).
   Recorded before the response goes out, so a stats or telemetry call
   pipelined right behind the response already sees this request; the
   write itself is not part of the service time. *)
let complete (t : t) (c : conn) ~rid ~meth ~id ~path ~t_recv ~t_start
    ?(served = true) outcome =
  let t_done = now_ms () in
  let queue_wait_ms = t_start -. t_recv and total_ms = t_done -. t_recv in
  let service_ms = if served then t_done -. t_start else 0.0 in
  Reg.observe t.h_queue_wait queue_wait_ms;
  if served then Reg.observe t.h_service service_ms;
  Reg.observe t.h_request total_ms;
  Mutex.lock t.st_mutex;
  Ring.push t.latencies total_ms;
  Mutex.unlock t.st_mutex;
  reply t c ~rid ~meth ~id ~path ~queue_wait_ms ~service_ms ~total_ms outcome

(* A request's work, in an [rpc:<method>] span on [tid], with an
   exception turned into [internal_error]. *)
let serve ?args ~tid ~meth f =
  match Trace.with_span ?args ~tid ("rpc:" ^ meth) f with
  | outcome -> outcome
  | exception e -> Error ("internal_error", Printexc.to_string e)

(* Answer [r] on the reader thread, ahead of any queue, when no worker
   is needed: the control verbs ([stats], [telemetry], [shutdown]), and
   an [analyze] or [explain] of an inline source whose compilation is
   already resident (one counted lookup, then rendering).  A [File]
   source always goes to the pool: reading it is I/O of unbounded cost.
   Like the control verbs, a resident hit is never shed and never times
   out.  Unlike them it is a served request in the latency histograms:
   queue-wait 0 and service = receipt → response, so queue-wait +
   service = request stays exact; the control verbs only count in the
   method counters.  [false]: the pool takes [r]. *)
let answer_on_reader (t : t) (c : conn) ~rid ~meth ~id ~t_recv
    (r : Rpc.request) : bool =
  let resident =
    match r with
    | Rpc.Analyze { src = Rpc.Inline source; config; _ }
    | Rpc.Explain { src = Rpc.Inline source; config } ->
      Cache.resident t.cache ~config source
    | _ -> None
  in
  match (r, resident) with
  | _, Some comp ->
    (* reader threads share the main domain, so the span carries the
       request id itself rather than through [Trace.with_request_id] *)
    complete t c ~rid ~meth ~id ~path:"reader" ~t_recv ~t_start:t_recv
      (serve ~args:[ ("req", Json.Int rid) ] ~tid:(Trace.tid_reader c.c_id)
         ~meth (fun () -> Ok (compilation_result t r ~cached:true comp)));
    true
  | (Rpc.Stats | Rpc.Telemetry | Rpc.Shutdown), None ->
    let outcome = handle t r in
    let ms = now_ms () -. t_recv in
    reply t c ~rid ~meth ~id ~path:"reader" ~queue_wait_ms:0.0
      ~service_ms:ms ~total_ms:ms outcome;
    true
  | _ -> false

let reader_loop (t : t) (c : conn) =
  let rd = Rpc.reader c.c_fd in
  if Trace.enabled () then
    Trace.name_thread
      ~tid:(Trace.tid_reader c.c_id)
      (Printf.sprintf "reader %d" c.c_id);
  let rec loop () =
    match Rpc.read_line rd with
    | None -> ()
    | Some line ->
      let t_recv = now_ms () in
      (* the request id is minted here, at the reader, and follows the
         request through queue, worker domain and nested spans *)
      let rid = Atomic.fetch_and_add t.next_req 1 in
      let rtid = Trace.tid_reader c.c_id in
      (match Rpc.decode line with
      | Error (id, message) ->
        Reg.incr t.m_malformed;
        if Log.enabled Log.Warn then
          Log.log Log.Warn "malformed"
            [
              ("req", Json.Int rid);
              ("conn", Json.Int c.c_id);
              ("message", Json.Str message);
            ];
        respond t c ~id (Error ("bad_request", message))
      | Ok { Rpc.rq_id = id; rq_request; rq_deadline_ms } -> begin
        let meth = Rpc.method_name rq_request in
        count_method t meth;
        if Trace.enabled () then
          Trace.instant
            ~args:[ ("req", Json.Int rid); ("method", Json.Str meth) ]
            ~tid:rtid "rpc:recv";
        if not (answer_on_reader t c ~rid ~meth ~id ~t_recv rq_request)
        then begin
          let deadline_ms =
            match rq_deadline_ms with
            | Some d -> d
            | None -> t.default_deadline_ms
          in
          Mutex.lock c.c_wmutex;
          c.c_pending <- c.c_pending + 1;
          Mutex.unlock c.c_wmutex;
          (* queue-wait renders as a span on the reader track: B here,
             E at dequeue (or right below, when admission refuses) *)
          if Trace.enabled () then
            Trace.begin_span
              ~args:[ ("req", Json.Int rid); ("method", Json.Str meth) ]
              ~tid:rtid "rpc:queued";
          let job () =
            (* the worker domain owns this request until done: nested
               spans (pipeline, GC, tcfree) inherit args.req *)
            Trace.with_request_id (Some rid) (fun () ->
                let t_deq = now_ms () in
                if Trace.enabled () then Trace.end_span ~tid:rtid "rpc:queued";
                (* decided at dequeue time, so queued work is never
                   executed for a dead client or past its deadline *)
                if conn_gone c then count_cancelled t c ~rid ~meth
                else if
                  deadline_ms > 0
                  && t_deq -. t_recv > float_of_int deadline_ms
                then begin
                  count_timed_out t c ~rid ~meth;
                  complete t c ~rid ~meth ~id ~path:"pool" ~t_recv
                    ~t_start:t_deq ~served:false
                    (Error
                       ( "timed_out",
                         Printf.sprintf
                           "request exceeded its %dms deadline while queued"
                           deadline_ms ))
                end
                else
                  complete t c ~rid ~meth ~id ~path:"pool" ~t_recv
                    ~t_start:t_deq
                    (serve ~tid:(Trace.domain_tid ()) ~meth (fun () ->
                         handle t rq_request)));
            conn_done_one c
          in
          (* admission control: keyed by connection (round-robin
             fairness); past the watermark shed rather than block *)
          match
            Pool.try_submit ~key:c.c_id ~watermark:t.shed_watermark t.pool
              job
          with
          | `Accepted -> ()
          | `Full ->
            if Trace.enabled () then Trace.end_span ~tid:rtid "rpc:queued";
            count_shed t c ~rid ~meth;
            respond t c ~id
              (Error
                 ( "overloaded",
                   Printf.sprintf
                     "queue at high-watermark (%d); request shed"
                     t.shed_watermark ));
            conn_done_one c
          | `Stopping ->
            if Trace.enabled () then Trace.end_span ~tid:rtid "rpc:queued";
            respond t c ~id
              (Error ("shutting_down", "server is shutting down"));
            conn_done_one c
        end
      end);
      if not (Atomic.get t.stopping) then loop ()
  in
  (try loop () with _ -> ());
  conn_reader_done t c

(* ---------------------------------------------------------------- *)
(* Accept loop                                                       *)
(* ---------------------------------------------------------------- *)

(** Serve until a [shutdown] request (or {!request_shutdown}) arrives:
    accepts connections, drains outstanding work, closes everything,
    removes the socket file. *)
let serve (t : t) : unit =
  if Log.enabled Log.Info then
    Log.log Log.Info "listening"
      [
        ("socket", Json.Str t.socket_path);
        ("workers", Json.Int (Pool.size t.pool));
      ];
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.accept t.listen_fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()  (* listener closed under us *)
      | fd, _ ->
        if Atomic.get t.stopping then
          try Unix.close fd with Unix.Unix_error _ -> ()
        else begin
          let c =
            {
              c_id = t.conns_total;
              c_fd = fd;
              c_wmutex = Mutex.create ();
              c_alive = true;
              c_pending = 0;
              c_eof = false;
              c_closed = false;
              c_served = 0;
            }
          in
          Mutex.lock t.st_mutex;
          t.conns_total <- t.conns_total + 1;
          t.conns <- c :: t.conns;
          Mutex.unlock t.st_mutex;
          if Log.enabled Log.Debug then
            Log.log Log.Debug "conn_open" [ ("conn", Json.Int c.c_id) ];
          let th = Thread.create (fun () -> reader_loop t c) () in
          Mutex.lock t.st_mutex;
          t.threads <- th :: t.threads;
          Mutex.unlock t.st_mutex;
          accept_loop ()
        end
    end
  in
  accept_loop ();
  (* intake over: answer everything already accepted ... *)
  Pool.shutdown t.pool;
  (* ... then unblock readers still waiting for request lines *)
  Mutex.lock t.st_mutex;
  let conns = t.conns and threads = t.threads in
  Mutex.unlock t.st_mutex;
  List.iter
    (fun c ->
      try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    conns;
  List.iter Thread.join threads;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  if Log.enabled Log.Info then
    Log.log Log.Info "shutdown"
      [
        ("socket", Json.Str t.socket_path);
        ("conns_total", Json.Int t.conns_total);
        ("responses", Json.Int (Reg.counter_value t.m_responses));
      ];
  (* [create] turned the runtime instruments on for the daemon's
     lifetime; release on the way out. *)
  Reg.release_runtime ()

(** {!create} + {!serve} on a background thread — the in-process form
    the tests and benches use.  {!wait} joins it. *)
let start ?workers ?queue_capacity ?shed_watermark ?default_deadline_ms
    ~socket () : t =
  let t =
    create ?workers ?queue_capacity ?shed_watermark ?default_deadline_ms
      ~socket ()
  in
  t.serve_thread <- Some (Thread.create (fun () -> serve t) ());
  t

let wait (t : t) : unit =
  match t.serve_thread with Some th -> Thread.join th | None -> ()

(** {!request_shutdown} + {!wait}. *)
let stop (t : t) : unit =
  request_shutdown t;
  wait t
