(** The telemetry layer end to end: registry semantics (unit and
    property tests), the [telemetry] RPC and its schema, the server-side
    latency decomposition against client-observed latency, request-id
    correlation across trace tracks, and the structured event log. *)

module Json = Gofree_obs.Json
module Reg = Gofree_obs.Registry
module Schema = Gofree_obs.Schema
module Trace = Gofree_obs.Trace
module Log = Gofree_obs.Log
module Server = Gofree_server.Server
module Client = Gofree_server.Client
module Rpc = Gofree_server.Rpc

let counter = ref 0

let fresh_socket () =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "gofree-telemetry-test-%d-%d.sock" (Unix.getpid ())
       !counter)

let with_server ?workers ?queue_capacity ?shed_watermark f =
  let socket = fresh_socket () in
  let t = Server.start ?workers ?queue_capacity ?shed_watermark ~socket () in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t socket)

let run_req src =
  Rpc.Run
    {
      src = Rpc.Inline src;
      config = Gofree_api.Preset.(to_config default);
      options = Gofree_api.default_run_options;
    }

let src_small =
  "func main() {\n\txs := make([]int, 64)\n\tprintln(len(xs))\n}\n"

(* ---- registry unit tests ---- *)

let test_registry_basics () =
  let r = Reg.create () in
  let c = Reg.counter r ~help:"a counter" "c_total" in
  Reg.incr c;
  Reg.incr c;
  Reg.add c 3;
  Alcotest.(check int) "counter accumulates" 5 (Reg.counter_value c);
  Alcotest.(check bool) "counter create-or-return" true
    (Reg.counter_value (Reg.counter r "c_total") = 5);
  let g = Reg.gauge r "g" in
  Reg.set g 1.0;
  Reg.set g 2.5;
  let h = Reg.histogram r ~buckets:[| 1.0; 10.0; 100.0 |] "h_ms" in
  List.iter (Reg.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  let snap = Reg.snapshot r in
  Alcotest.(check (option int))
    "snapshot counter" (Some 5)
    (Reg.Snapshot.find_counter "c_total" snap);
  Alcotest.(check (option (float 1e-9)))
    "gauge last write wins" (Some 2.5)
    (List.assoc_opt "g" snap.Reg.Snapshot.gauges);
  (match Reg.Snapshot.find_histogram "h_ms" snap with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some histo ->
    Alcotest.(check (array int))
      "one observation per bucket (incl. overflow)" [| 1; 1; 1; 1 |]
      histo.Reg.Snapshot.counts;
    Alcotest.(check (float 1e-9)) "sum" 555.5 histo.Reg.Snapshot.sum;
    Alcotest.(check (float 1e-9)) "max" 500.0 histo.Reg.Snapshot.max_value;
    Alcotest.(check int) "count" 4 (Reg.Snapshot.count histo));
  (* name collisions across kinds are refused, not silently aliased *)
  (match Reg.gauge r "c_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  match Reg.histogram r ~buckets:[| 2.0 |] "h_ms" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bucket mismatch accepted"

let test_quantiles () =
  let r = Reg.create () in
  let h = Reg.histogram r ~buckets:Reg.default_buckets_ms "h" in
  for i = 1 to 1000 do
    Reg.observe h (float_of_int i /. 10.0)  (* 0.1 .. 100.0 ms *)
  done;
  let snap = Reg.snapshot r in
  let histo = Option.get (Reg.Snapshot.find_histogram "h" snap) in
  let q p = Reg.Snapshot.quantile histo p in
  Alcotest.(check bool) "monotone in p" true
    (q 50.0 <= q 95.0 && q 95.0 <= q 99.0 && q 99.0 <= q 100.0);
  Alcotest.(check bool) "clamped to max" true
    (q 100.0 <= histo.Reg.Snapshot.max_value);
  (* bucket interpolation lands in the right decade *)
  Alcotest.(check bool) "p50 near the true median" true
    (q 50.0 >= 10.0 && q 50.0 <= 100.0);
  let empty =
    Option.get
      (Reg.Snapshot.find_histogram "e" (Reg.snapshot (let r = Reg.create () in
        ignore (Reg.histogram r "e"); r)))
  in
  Alcotest.(check (float 1e-9)) "empty histogram quantile" 0.0
    (Reg.Snapshot.quantile empty 99.0)

(* ---- property tests: merge / snapshot ---- *)

(* a snapshot built from integer-valued observations: bucket counts and
   sums stay exact, so merge associativity holds with (=) *)
let snapshot_of_obs (obs : int list) : Reg.Snapshot.t =
  let r = Reg.create () in
  let c = Reg.counter r "n_total" in
  let h = Reg.histogram r ~buckets:[| 4.0; 16.0; 64.0 |] "v" in
  List.iter
    (fun v ->
      Reg.incr c;
      Reg.observe h (float_of_int v))
    obs;
  Reg.snapshot r

let gen_obs = QCheck.list_of_size (QCheck.Gen.int_range 0 40) (QCheck.int_range 0 256)

let prop_merge_associative =
  QCheck.Test.make ~count:100 ~name:"snapshot merge is associative"
    (QCheck.triple gen_obs gen_obs gen_obs)
    (fun (a, b, c) ->
      let sa = snapshot_of_obs a
      and sb = snapshot_of_obs b
      and sc = snapshot_of_obs c in
      let open Reg.Snapshot in
      merge sa (merge sb sc) = merge (merge sa sb) sc)

let prop_merge_counts_add =
  QCheck.Test.make ~count:100 ~name:"merge adds counters and counts"
    (QCheck.pair gen_obs gen_obs)
    (fun (a, b) ->
      let m = Reg.Snapshot.merge (snapshot_of_obs a) (snapshot_of_obs b) in
      Reg.Snapshot.find_counter "n_total" m
      = Some (List.length a + List.length b)
      && Reg.Snapshot.count
           (Option.get (Reg.Snapshot.find_histogram "v" m))
         = List.length a + List.length b)

let prop_snapshot_monotone =
  QCheck.Test.make ~count:60
    ~name:"snapshots are monotone under more observations"
    (QCheck.pair gen_obs gen_obs)
    (fun (a, b) ->
      let r = Reg.create () in
      let c = Reg.counter r "n_total" in
      let h = Reg.histogram r ~buckets:[| 4.0; 16.0; 64.0 |] "v" in
      let feed vs =
        List.iter
          (fun v ->
            Reg.incr c;
            Reg.observe h (float_of_int v))
          vs
      in
      feed a;
      let s1 = Reg.snapshot r in
      feed b;
      let s2 = Reg.snapshot r in
      let h1 = Option.get (Reg.Snapshot.find_histogram "v" s1) in
      let h2 = Option.get (Reg.Snapshot.find_histogram "v" s2) in
      Reg.Snapshot.find_counter "n_total" s1
      <= Reg.Snapshot.find_counter "n_total" s2
      && Array.for_all2 ( <= ) h1.Reg.Snapshot.counts h2.Reg.Snapshot.counts
      && h1.Reg.Snapshot.sum <= h2.Reg.Snapshot.sum
      && h1.Reg.Snapshot.max_value <= h2.Reg.Snapshot.max_value)

(* ---- export formats ---- *)

let test_json_round_trip () =
  let r = Reg.create () in
  let c = Reg.counter r ~help:"requests" "req_total" in
  Reg.add c 7;
  Reg.set (Reg.gauge r "depth") 3.0;
  let h = Reg.histogram r ~buckets:[| 1.0; 10.0 |] "lat_ms" in
  List.iter (Reg.observe h) [ 0.5; 5.0; 50.0 ];
  let snap = Reg.snapshot r in
  let doc = Reg.Snapshot.to_json snap in
  (match Schema.check Schema.Telemetry doc with
  | Ok () -> ()
  | Error m -> Alcotest.failf "telemetry document failed schema: %s" m);
  let back = Reg.Snapshot.of_json (Json.parse (Json.to_string doc)) in
  Alcotest.(check bool) "of_json inverts to_json" true (back = snap);
  let text = Reg.Snapshot.to_prometheus snap in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "prometheus exposition contains %S" needle)
        true
        (let len = String.length needle in
         let n = String.length text in
         let rec go i = i + len <= n && (String.sub text i len = needle || go (i + 1)) in
         go 0))
    [
      "# HELP req_total requests";
      "# TYPE req_total counter";
      "req_total 7";
      "# TYPE depth gauge";
      "# TYPE lat_ms histogram";
      "lat_ms_bucket{le=\"1\"} 1";
      "lat_ms_bucket{le=\"10\"} 2";
      "lat_ms_bucket{le=\"+Inf\"} 3";
      "lat_ms_count 3";
    ]

let test_runtime_gating () =
  let before = Reg.runtime_enabled () in
  Reg.acquire_runtime ();
  Alcotest.(check bool) "enabled after acquire" true (Reg.runtime_enabled ());
  Reg.acquire_runtime ();
  Reg.release_runtime ();
  Alcotest.(check bool) "still enabled while one holder remains" true
    (Reg.runtime_enabled ());
  Reg.release_runtime ();
  Alcotest.(check bool) "balanced release restores the initial state"
    before (Reg.runtime_enabled ())

(* ---- the telemetry RPC and the latency decomposition ---- *)

let scrape socket =
  match Client.call_once ~socket Rpc.Telemetry with
  | Ok doc -> doc
  | Error (code, m) -> Alcotest.failf "telemetry rpc error %s: %s" code m

let test_telemetry_rpc_schema () =
  with_server (fun _ socket ->
      let doc = scrape socket in
      match Schema.check Schema.Telemetry doc with
      | Ok () -> ()
      | Error m -> Alcotest.failf "telemetry response failed schema: %s" m)

let test_single_request_reconciles () =
  with_server (fun _ socket ->
      let t0 = Unix.gettimeofday () in
      (match Client.call_once ~socket (run_req src_small) with
      | Ok _ -> ()
      | Error (code, m) -> Alcotest.failf "run failed: %s: %s" code m);
      let client_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let snap = Reg.Snapshot.of_json (scrape socket) in
      let histo name =
        match Reg.Snapshot.find_histogram name snap with
        | Some h -> h
        | None -> Alcotest.failf "histogram %s missing" name
      in
      let qw = histo "gofree_rpc_queue_wait_ms" in
      let svc = histo "gofree_rpc_service_ms" in
      let req = histo "gofree_rpc_request_ms" in
      Alcotest.(check int) "one queue-wait observation" 1
        (Reg.Snapshot.count qw);
      Alcotest.(check int) "one service observation" 1
        (Reg.Snapshot.count svc);
      Alcotest.(check int) "one request observation" 1
        (Reg.Snapshot.count req);
      let server_ms = qw.Reg.Snapshot.sum +. svc.Reg.Snapshot.sum in
      (* queue-wait + service happens inside the client-observed span
         (socket round-trip adds; timer resolution subtracts a hair) *)
      Alcotest.(check bool)
        (Printf.sprintf "server %.2fms fits inside client %.2fms" server_ms
           client_ms)
        true
        (server_ms <= client_ms +. 5.0);
      Alcotest.(check bool) "decomposition accounts for the latency" true
        (client_ms -. server_ms <= 250.0);
      Alcotest.(check (option int))
        "one response counted" (Some 1)
        (Reg.Snapshot.find_counter "gofree_rpc_responses_total" snap);
      Alcotest.(check (option int))
        "method counter" (Some 1)
        (Reg.Snapshot.find_counter "gofree_rpc_method_run_total" snap);
      (* the daemon holds the runtime acquisition: GC/tcfree instruments
         appear in the merged snapshot *)
      Alcotest.(check bool) "runtime instruments merged in" true
        (Reg.Snapshot.find_counter "gofree_tcfree_attempts_total" snap
        <> None))

(* ---- request-id correlation in the trace ---- *)

let test_trace_request_correlation () =
  Trace.start ();
  with_server (fun _ socket ->
      match Client.call_once ~socket (run_req src_small) with
      | Ok _ -> ()
      | Error (code, m) -> Alcotest.failf "run failed: %s: %s" code m);
  let doc = Json.parse (Trace.stop ()) in
  let events = Json.get_list "traceEvents" doc in
  (* events carrying args.req, grouped by request id *)
  let tagged =
    List.filter_map
      (fun e ->
        match Json.member "args" e with
        | Some args -> begin
          match Json.member "req" args with
          | Some (Json.Int rid) ->
            Some
              ( rid,
                Json.get_string "name" e,
                Json.get_int "tid" e,
                Json.get_string "ph" e )
          | _ -> None
        end
        | None -> None)
      events
  in
  let rids = List.sort_uniq compare (List.map (fun (r, _, _, _) -> r) tagged) in
  (* find the run request's id: the one whose events include the worker
     execution span *)
  let rid =
    match
      List.find_opt
        (fun r ->
          List.exists (fun (r', n, _, _) -> r' = r && n = "rpc:run") tagged)
        rids
    with
    | Some r -> r
    | None -> Alcotest.fail "no request id carries an rpc:run span"
  in
  let mine = List.filter (fun (r, _, _, _) -> r = rid) tagged in
  let names = List.map (fun (_, n, _, _) -> n) mine in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " tagged with the request id") true
        (List.mem n names))
    [ "rpc:recv"; "rpc:queued"; "rpc:run"; "rpc:respond" ];
  let tids = List.sort_uniq compare (List.map (fun (_, _, t, _) -> t) mine) in
  Alcotest.(check bool)
    "request id spans reader and worker tracks (>= 2 tids)" true
    (List.length tids >= 2);
  (* the queue-wait span opened on the reader track is closed exactly
     once, even though the E comes from the worker *)
  let queued_b =
    List.length
      (List.filter (fun (_, n, _, ph) -> n = "rpc:queued" && ph = "B") mine)
  in
  let queued_e =
    List.length
      (List.filter
         (fun e ->
           Json.get_string "ph" e = "E"
           && Json.get_string "name" e = "rpc:queued")
         events)
  in
  Alcotest.(check int) "one rpc:queued begin" 1 queued_b;
  Alcotest.(check bool) "every rpc:queued begin is closed" true
    (queued_e >= queued_b)

let analyze_req src =
  Rpc.Analyze
    {
      src = Rpc.Inline src;
      config = Gofree_api.Preset.(to_config default);
      explain = false;
    }

let call_ok c request =
  match Client.call c request with
  | Ok r -> r
  | Error (code, m) -> Alcotest.failf "rpc error %s: %s" code m

let test_trace_reader_hit () =
  (* a resident hit is served on the reader track: one rpc:analyze B/E
     pair carrying the request id on both events, and no queue span *)
  Trace.start ();
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      ignore (call_ok c (analyze_req src_small));
      ignore (call_ok c (analyze_req src_small));
      Client.close c);
  let events =
    Json.get_list "traceEvents" (Json.parse (Trace.stop ()))
  in
  let req e =
    match Json.member "args" e with
    | Some args -> (
      match Json.member "req" args with Some (Json.Int r) -> Some r | _ -> None)
    | None -> None
  in
  let analyze_spans =
    List.filter (fun e -> Json.get_string "name" e = "rpc:analyze") events
  in
  let on_reader =
    List.filter (fun e -> Json.get_int "tid" e >= Trace.tid_reader 0)
      analyze_spans
  in
  Alcotest.(check (list string)) "one B/E pair on the reader track"
    [ "B"; "E" ]
    (List.map (fun e -> Json.get_string "ph" e) on_reader);
  let rid =
    match List.map req on_reader with
    | [ Some b; Some e ] when b = e -> b
    | _ -> Alcotest.fail "req missing or different on B and E"
  in
  Alcotest.(check bool) "the miss was served on a worker" true
    (List.exists (fun e -> Json.get_int "tid" e < Trace.tid_reader 0)
       analyze_spans);
  Alcotest.(check int) "no rpc:queued for the hit" 0
    (List.length
       (List.filter
          (fun e ->
            Json.get_string "name" e = "rpc:queued" && req e = Some rid)
          events))

let test_histograms_equal_counts () =
  (* misses and runs through the pool, resident hits on the reader: the
     three latency histograms count every one of them, and queue-wait +
     service = request *)
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      ignore (call_ok c (analyze_req src_small));
      ignore (call_ok c (analyze_req src_small));
      ignore (call_ok c (analyze_req src_small));
      ignore (call_ok c (run_req src_small));
      ignore (call_ok c Rpc.Stats);
      Client.close c;
      let snap = Reg.Snapshot.of_json (scrape socket) in
      let histo name =
        match Reg.Snapshot.find_histogram name snap with
        | Some h -> h
        | None -> Alcotest.failf "histogram %s missing" name
      in
      let qw = histo "gofree_rpc_queue_wait_ms" in
      let svc = histo "gofree_rpc_service_ms" in
      let req = histo "gofree_rpc_request_ms" in
      Alcotest.(check (list int)) "queue-wait, service, request counts"
        [ 4; 4; 4 ]
        (List.map Reg.Snapshot.count [ qw; svc; req ]);
      let split = qw.Reg.Snapshot.sum +. svc.Reg.Snapshot.sum in
      Alcotest.(check bool)
        (Printf.sprintf "queue-wait + service %.6f = request %.6f" split
           req.Reg.Snapshot.sum)
        true
        (Float.abs (split -. req.Reg.Snapshot.sum) < 1e-6))

(* Two tcfree give-up reasons and a successful free: [work]'s [xs] is
   freed after its span filled and left the mcache, or while a GC is
   marking; [localSum]'s is freed in place. *)
let src_giveups =
  {|
func work(n int, keep [][]int) int {
	xs := make([]int, n)
	for i := range keep {
		keep[i] = make([]int, n)
	}
	xs[0] = n
	s := xs[0]
	return s
}

func localSum(n int) int {
	xs := make([]int, n)
	s := 0
	for i := range xs {
		xs[i] = i
		s = s + xs[i]
	}
	return s
}

func main() {
	keep := make([][]int, 600)
	s := 0
	for r := 0; r < 6; r++ {
		s = s + work(16+r, keep) + localSum(8+r)
	}
	println(s)
}
|}

let test_tcfree_totals_reconcile () =
  (* each run folds its metrics' tcfree outcomes into the runtime
     registry once: the registry's growth over several served runs is
     exactly the sum of those runs' metrics *)
  let giveup_names = Array.to_list Gofree_runtime.Metrics.giveup_names in
  let names =
    [
      "gofree_tcfree_attempts_total";
      "gofree_tcfree_freed_total";
      "gofree_tcfree_giveup_total";
    ]
    @ List.map (fun n -> "gofree_tcfree_giveup_" ^ n ^ "_total") giveup_names
  in
  with_server (fun _ socket ->
      let totals () =
        let snap = Reg.Snapshot.of_json (scrape socket) in
        List.map
          (fun n ->
            Option.value ~default:0 (Reg.Snapshot.find_counter n snap))
          names
      in
      let before = totals () in
      let c = Client.connect ~socket in
      let runs =
        List.map
          (fun src ->
            Json.get "metrics" (Json.get "metrics" (call_ok c (run_req src))))
          [ src_giveups; src_small; src_giveups ]
      in
      Client.close c;
      let after = totals () in
      let sum f = List.fold_left (fun acc m -> acc + f m) 0 runs in
      let giveup n m = Json.get_int n (Json.get "giveups" m) in
      let expected =
        [
          sum (Json.get_int "tcfree_calls");
          sum (Json.get_int "tcfree_success");
          sum (fun m ->
              List.fold_left (fun a n -> a + giveup n m) 0 giveup_names);
        ]
        @ List.map (fun n -> sum (giveup n)) giveup_names
      in
      Alcotest.(check (list int)) "registry growth == sum of run metrics"
        expected
        (List.map2 ( - ) after before);
      Alcotest.(check bool) "the runs freed and gave up" true
        (List.nth expected 1 > 0 && List.nth expected 2 > 0))

let test_tcfree_counted_on_raising_run () =
  (* a run that raises still folds its tcfree outcomes in: the unsound
     analysis frees a live alias and the poison heap faults on the next
     read, after the free *)
  let trap =
    {|
var acc int
func main() {
  s2 := make([]int, 4+rand(2))
  s2[0] = 77
  {
    s1 := make([]int, 3+rand(2))
    ps := &s1
    *ps = s2
    al := *ps
    if len(al) > 0 { acc += al[0] }
  }
  println("alive", s2[0], acc)
}
|}
  in
  let freed () =
    Option.value ~default:0
      (Reg.Snapshot.find_counter "gofree_tcfree_freed_total"
         (Reg.snapshot Reg.runtime))
  in
  Reg.acquire_runtime ();
  Fun.protect ~finally:Reg.release_runtime (fun () ->
      let before = freed () in
      let run_config =
        { Gofree_interp.Interp.default_config with
          heap_config =
            { Gofree_runtime.Heap.default_config with poison_on_free = true }
        }
      in
      (match
         Gofree_interp.Runner.compile_and_run
           ~gofree_config:Gofree_core.Config.unsound_no_backprop ~run_config
           trap
       with
      | _ -> Alcotest.fail "expected the poison heap to fault"
      | exception Gofree_interp.Value.Corruption _ -> ());
      Alcotest.(check bool) "the wrong free reached the registry" true
        (freed () > before))

(* ---- the structured event log ---- *)

let test_log_levels_and_request_ids () =
  let path = Filename.temp_file "gofree-log" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Log.start ~level:Log.Info ~path ();
      Alcotest.(check bool) "info enabled" true (Log.enabled Log.Info);
      Alcotest.(check bool) "debug filtered" false (Log.enabled Log.Debug);
      Log.log Log.Debug "dropped" [];
      with_server (fun _ socket ->
          match Client.call_once ~socket (run_req src_small) with
          | Ok _ -> ()
          | Error (code, m) -> Alcotest.failf "run failed: %s: %s" code m);
      Log.stop ();
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let events =
        List.rev_map
          (fun line ->
            let j = Json.parse line in
            Alcotest.(check bool) "line has ts_ms" true
              (Json.member "ts_ms" j <> None);
            (Json.get_string "event" j, j))
          !lines
      in
      let names = List.map fst events in
      Alcotest.(check bool) "debug event dropped" true
        (not (List.mem "dropped" names));
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " logged") true (List.mem n names))
        [ "listening"; "request"; "shutdown" ];
      let request = List.assoc "request" events in
      Alcotest.(check bool) "request line carries the request id" true
        (match Json.member "req" request with
        | Some (Json.Int _) -> true
        | _ -> false);
      Alcotest.(check string) "request line names the method" "run"
        (Json.get_string "method" request);
      Alcotest.(check string) "level field present" "info"
        (Json.get_string "level" request))

(* ---- stats RPC: histogram percentiles plus the recent window ---- *)

let test_stats_latency_sources () =
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for _ = 1 to 3 do
            match Client.call c (run_req src_small) with
            | Ok _ -> ()
            | Error (code, m) -> Alcotest.failf "run failed: %s: %s" code m
          done;
          let stats =
            match Client.call c Rpc.Stats with
            | Ok s -> s
            | Error (code, m) ->
              Alcotest.failf "stats failed: %s: %s" code m
          in
          let all_time = Json.get "latency_ms" stats in
          let recent = Json.get "latency_recent_ms" stats in
          Alcotest.(check int) "histogram count covers every request" 3
            (Json.get_int "count" all_time);
          Alcotest.(check int) "ring window agrees while small" 3
            (Json.get_int "window" recent);
          let p50 = Json.get_float "p50_ms" all_time in
          let p99 = Json.get_float "p99_ms" all_time in
          let mx = Json.get_float "max_ms" all_time in
          Alcotest.(check bool) "histogram ladder ordered" true
            (p50 <= p99 && p99 <= mx)))

let suite =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_merge_counts_add;
    QCheck_alcotest.to_alcotest prop_snapshot_monotone;
    Alcotest.test_case "json round-trip and prometheus" `Quick
      test_json_round_trip;
    Alcotest.test_case "runtime registry gating" `Quick test_runtime_gating;
    Alcotest.test_case "telemetry rpc schema" `Quick
      test_telemetry_rpc_schema;
    Alcotest.test_case "single request reconciles" `Quick
      test_single_request_reconciles;
    Alcotest.test_case "trace request correlation" `Quick
      test_trace_request_correlation;
    Alcotest.test_case "trace: resident hit on the reader track" `Quick
      test_trace_reader_hit;
    Alcotest.test_case "latency histograms keep equal counts" `Quick
      test_histograms_equal_counts;
    Alcotest.test_case "tcfree registry totals == run metrics" `Quick
      test_tcfree_totals_reconcile;
    Alcotest.test_case "tcfree counted on a raising run" `Quick
      test_tcfree_counted_on_raising_run;
    Alcotest.test_case "log levels and request ids" `Quick
      test_log_levels_and_request_ids;
    Alcotest.test_case "stats latency sources" `Quick
      test_stats_latency_sources;
  ]
