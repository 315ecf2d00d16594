(** The [gofreec load] harness: mix parsing, seeded determinism of the
    generated schedules, the [gofree-load-v1] report, and a smoke run
    against a live in-process daemon. *)

module Json = Gofree_obs.Json
module Schema = Gofree_obs.Schema
module Rng = Gofree_load.Rng
module Mix = Gofree_load.Mix
module Schedule = Gofree_load.Schedule
module Harness = Gofree_load.Harness
module Server = Gofree_server.Server

(* ---- mix ---- *)

let test_mix_parse () =
  (match Mix.of_string "analyze=4,run=2,explain=1,stats=1" with
  | Ok m ->
    Alcotest.(check int) "analyze weight" 4 (Mix.weight m Mix.Analyze);
    Alcotest.(check int) "build weight defaults 0" 0
      (Mix.weight m Mix.Build);
    Alcotest.(check int) "total" 8 (Mix.total m);
    (* round-trip through the canonical rendering *)
    Alcotest.(check string) "to_string round-trips"
      (Mix.to_string m)
      (match Mix.of_string (Mix.to_string m) with
      | Ok m' -> Mix.to_string m'
      | Error e -> e)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  let bad s =
    match Mix.of_string s with
    | Ok _ -> Alcotest.failf "%S parsed" s
    | Error _ -> ()
  in
  bad "";
  bad "frobnicate=1";
  bad "analyze=x";
  bad "analyze=-1";
  bad "analyze=1,analyze=2";
  bad "analyze=0,run=0"

let test_mix_pick_covers () =
  (* picking across the unit interval must reach exactly the positive
     weights, in proportion *)
  let m =
    match Mix.of_string "analyze=3,run=1" with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let n = 1000 in
  let counts = Hashtbl.create 4 in
  for i = 0 to n - 1 do
    let k = Mix.pick m ~u:(float_of_int i /. float_of_int n) in
    Hashtbl.replace counts k
      (1 + Option.value (Hashtbl.find_opt counts k) ~default:0)
  done;
  Alcotest.(check int) "analyze share" 750
    (Option.value (Hashtbl.find_opt counts Mix.Analyze) ~default:0);
  Alcotest.(check int) "run share" 250
    (Option.value (Hashtbl.find_opt counts Mix.Run) ~default:0);
  Alcotest.(check int) "zero-weight kinds never picked" 0
    (Option.value (Hashtbl.find_opt counts Mix.Stats) ~default:0)

(* ---- rng ---- *)

let test_rng_determinism () =
  let a = Rng.stream ~seed:7 ~client:3 in
  let b = Rng.stream ~seed:7 ~client:3 in
  for i = 1 to 64 do
    Alcotest.(check int)
      (Printf.sprintf "draw %d equal" i)
      (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done;
  (* distinct clients of one seed are distinct streams *)
  let c0 = Rng.stream ~seed:7 ~client:0 in
  let c1 = Rng.stream ~seed:7 ~client:1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int c0 1_000_000 = Rng.int c1 1_000_000 then incr same
  done;
  Alcotest.(check bool) "client streams diverge" true (!same < 8);
  (* floats live in [0, 1) *)
  let r = Rng.create ~seed:123 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

(* ---- schedule determinism (the seeded-determinism contract) ---- *)

let events_fingerprint ~seed ~client ~arrival n =
  let gen =
    Schedule.make ~seed ~client ~mix:Mix.default ~workloads:6 ~churn:0.2
      ~arrival
  in
  List.init n (fun _ ->
      Json.to_string
        (Schedule.event_json
           ~workload_name:(fun _ i -> string_of_int i)
           (Schedule.next gen)))
  |> String.concat "\n"

let test_schedule_determinism () =
  List.iter
    (fun arrival ->
      Alcotest.(check string)
        (Schedule.arrival_name arrival ^ " schedule is seed-determined")
        (events_fingerprint ~seed:42 ~client:1 ~arrival 200)
        (events_fingerprint ~seed:42 ~client:1 ~arrival 200))
    [ Schedule.Closed; Schedule.Poisson 50.0; Schedule.Uniform 50.0 ];
  (* different seed, different schedule *)
  Alcotest.(check bool) "seed changes the schedule" true
    (events_fingerprint ~seed:1 ~client:0 ~arrival:Schedule.Closed 200
    <> events_fingerprint ~seed:2 ~client:0 ~arrival:Schedule.Closed 200);
  (* a client's stream does not shift when its index changes *)
  Alcotest.(check bool) "clients get distinct schedules" true
    (events_fingerprint ~seed:1 ~client:0 ~arrival:Schedule.Closed 200
    <> events_fingerprint ~seed:1 ~client:1 ~arrival:Schedule.Closed 200)

let test_schedule_shapes () =
  let gen arrival =
    Schedule.make ~seed:5 ~client:0 ~mix:Mix.default ~workloads:6
      ~churn:0.0 ~arrival
  in
  let g = gen Schedule.Closed in
  for _ = 1 to 50 do
    let ev = Schedule.next g in
    Alcotest.(check (float 0.0)) "closed loop has no gaps" 0.0
      ev.Schedule.ev_gap_ms;
    Alcotest.(check bool) "no churn, no reconnects" false
      ev.Schedule.ev_reconnect;
    Alcotest.(check bool) "workload in range" true
      (ev.Schedule.ev_workload >= 0 && ev.Schedule.ev_workload < 6)
  done;
  let g = gen (Schedule.Uniform 100.0) in
  ignore (Schedule.next g);
  let ev = Schedule.next g in
  Alcotest.(check (float 1e-9)) "uniform gap is 1000/rps" 10.0
    ev.Schedule.ev_gap_ms;
  let g = gen (Schedule.Poisson 100.0) in
  let total = ref 0.0 in
  let n = 2000 in
  for _ = 1 to n do
    let ev = Schedule.next g in
    Alcotest.(check bool) "poisson gap nonnegative" true
      (ev.Schedule.ev_gap_ms >= 0.0);
    total := !total +. ev.Schedule.ev_gap_ms
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "poisson mean gap near 10ms (got %.2f)" mean)
    true
    (mean > 8.0 && mean < 12.0);
  (* a churning generator's first event never reconnects: there is no
     connection to drop yet *)
  let g =
    Schedule.make ~seed:5 ~client:0 ~mix:Mix.default ~workloads:6
      ~churn:1.0 ~arrival:Schedule.Closed
  in
  let first = Schedule.next g in
  Alcotest.(check bool) "first event cannot churn" false
    first.Schedule.ev_reconnect;
  Alcotest.(check bool) "churn 1.0 reconnects afterwards" true
    (Schedule.next g).Schedule.ev_reconnect

(* ---- dry-run: two same-seed runs, identical schedules, valid doc ---- *)

let dry_cfg socket =
  {
    (Harness.default_config ~socket) with
    Harness.clients = 3;
    arrival = Schedule.Poisson 10.0;
    churn = 0.1;
    seed = 99;
    scale = 10;
  }

let test_dry_run_deterministic () =
  let doc () =
    match Harness.dry_run (dry_cfg "/nonexistent.sock") ~events:32 with
    | Ok d -> Json.to_string d
    | Error m -> Alcotest.fail m
  in
  let a = doc () in
  Alcotest.(check string) "same seed, byte-identical schedule" a (doc ());
  (* the document passes the registry gate and declares the dry run *)
  let j = Json.parse a in
  (match Schema.check Schema.Load j with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "dry_run marked" true
    (Json.member "dry_run" j = Some (Json.Bool true));
  Alcotest.(check int) "one entry per client" 3
    (List.length (Json.get_list "clients" j));
  (* a different seed yields a different schedule *)
  let other =
    match
      Harness.dry_run
        { (dry_cfg "/nonexistent.sock") with Harness.seed = 100 }
        ~events:32
    with
    | Ok d -> Json.to_string d
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "seed changes the dry run" true (a <> other)

let test_config_validation () =
  let cfg = Harness.default_config ~socket:"/nonexistent.sock" in
  let expect_error c =
    match Harness.dry_run c ~events:1 with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "invalid config accepted"
  in
  expect_error { cfg with Harness.clients = 0 };
  expect_error { cfg with Harness.duration_s = 0.0 };
  expect_error
    {
      cfg with
      Harness.mix =
        [ (Mix.Analyze, 0); (Mix.Run, 0); (Mix.Explain, 0);
          (Mix.Build, 1); (Mix.Stats, 0) ];
      (* build weight without a build dir *)
      build_dir = None;
    }

(* ---- live smoke: harness against an in-process daemon ---- *)

let test_harness_smoke () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-load-%d.sock" (Unix.getpid ()))
  in
  let t = Server.start ~workers:2 ~socket () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let cfg =
        {
          (Harness.default_config ~socket) with
          Harness.clients = 2;
          duration_s = 0.6;
          scale = 10;
          seed = 11;
        }
      in
      match Harness.run cfg with
      | Error m -> Alcotest.fail m
      | Ok report ->
        (match Schema.check Schema.Load report with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        let achieved = Json.get "achieved" report in
        Alcotest.(check bool) "some requests served" true
          (Json.get_int "ok" achieved >= 1);
        Alcotest.(check int) "no hard errors" 0
          (Json.get_int "errors" achieved);
        Alcotest.(check bool) "well-formed load meets its SLO" true
          (Harness.slo_ok report);
        Alcotest.(check bool) "outputs byte-identical" true
          (Json.member "outputs_identical" (Json.get "consistency" report)
          = Some (Json.Bool true));
        let all = Json.get "all" (Json.get "latency_ms" report) in
        Alcotest.(check bool) "latency ladder present" true
          (Json.get_float "p50_ms" all <= Json.get_float "p99_ms" all))

(* ---- failure reasons: a hard-error response lands in the report ---- *)

let test_failure_samples () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-load-fail-%d.sock" (Unix.getpid ()))
  in
  let missing =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-load-missing-%d" (Unix.getpid ()))
  in
  let t = Server.start ~workers:1 ~socket () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      (* every request builds a directory that does not exist: the daemon
         answers each with an error response *)
      let cfg =
        {
          (Harness.default_config ~socket) with
          Harness.clients = 1;
          duration_s = 0.3;
          mix =
            [ (Mix.Analyze, 0); (Mix.Run, 0); (Mix.Explain, 0);
              (Mix.Build, 1); (Mix.Stats, 0) ];
          build_dir = Some missing;
          seed = 3;
        }
      in
      match Harness.run cfg with
      | Error m -> Alcotest.fail m
      | Ok report ->
        let errors = Json.get_int "errors" (Json.get "achieved" report) in
        Alcotest.(check bool) "the daemon answered with errors" true
          (errors >= 1);
        let failures = Json.get "failures" report in
        Alcotest.(check int) "every error counted" errors
          (Json.get_int "count" failures);
        let samples = Json.get_list "samples" failures in
        Alcotest.(check int) "samples capped"
          (min errors Harness.max_failure_samples)
          (List.length samples);
        let first = List.hd samples in
        Alcotest.(check string) "a hard error" "error"
          (Json.get_string "failure" first);
        Alcotest.(check string) "its method" "build"
          (Json.get_string "method" first);
        (* the code and message are the daemon's own *)
        let client = Gofree_server.Client.connect ~socket in
        let direct =
          Fun.protect
            ~finally:(fun () -> Gofree_server.Client.close client)
            (fun () ->
              Gofree_server.Client.send_line client
                (Json.to_string
                   (Gofree_server.Rpc.request_to_json ~id:(Json.Int 1)
                      (Harness.request_of_event cfg
                         (Harness.targets ~scale:cfg.Harness.scale)
                         (Schedule.next
                            (Schedule.make ~seed:3 ~client:0
                               ~mix:cfg.Harness.mix ~workloads:6 ~churn:0.0
                               ~arrival:Schedule.Closed)))));
              match Gofree_server.Client.recv client with
              | Some resp -> Json.get "error" resp
              | None -> Alcotest.fail "no response")
        in
        Alcotest.(check string) "its code"
          (Json.get_string "code" direct)
          (Json.get_string "code" first);
        Alcotest.(check string) "its message"
          (Json.get_string "message" direct)
          (Json.get_string "message" first);
        Alcotest.(check bool) "errors violate the SLO" false
          (Harness.slo_ok report))

let suite =
  [
    Alcotest.test_case "mix parse" `Quick test_mix_parse;
    Alcotest.test_case "mix pick covers weights" `Quick
      test_mix_pick_covers;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "schedule determinism" `Quick
      test_schedule_determinism;
    Alcotest.test_case "schedule shapes" `Quick test_schedule_shapes;
    Alcotest.test_case "dry-run deterministic" `Quick
      test_dry_run_deterministic;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "harness smoke against live daemon" `Quick
      test_harness_smoke;
    Alcotest.test_case "failure reasons in the report" `Quick
      test_failure_samples;
  ]
