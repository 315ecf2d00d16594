(** Load generation against a live daemon: where saturation is, what
    admission control does past it, and what a warm resident cache buys
    under concurrency.

    Three experiments over one in-process daemon (a deliberately low
    shed watermark so the experiment reaches the admission-control
    regime quickly):

    - {e rate sweep}: open-loop Poisson arrivals at 0.5x, 1x and 2x the
      measured closed-loop capacity.  Below saturation everything is
      served; past it the daemon answers [overloaded] immediately
      instead of queueing without bound — offered load rises, p99 of the
      {e served} requests stays in the same regime, and the shed count
      absorbs the difference.

    - {e closed-loop client sweep}: 1..8 clients each keeping one
      request in flight — throughput scaling and the latency cost of
      concurrency.

    - {e warm vs cold}: the same closed-loop load against a fresh daemon
      (every distinct source pays its compile on first sight) and again
      on the now-resident cache.

    Every run also digest-checks response payloads across clients — the
    harness's consistency verdict — so "the daemon under load serves the
    same bytes as a lone client" is asserted, not assumed.

    A fourth part checks that the server's own request-latency p99 tells
    the client's story: closed-loop points at 1, 4 and 8 clients, each on
    a fresh daemon so that its request histogram holds exactly that
    point's requests, then one telemetry scrape.  A request's server time
    lies inside its client round trip, so a point's server p99 may not
    exceed its client p99 by more than the histogram's bucket slack.  (A
    scrape before and after a point on one long-lived daemon isolates
    the point's bucket counts, but not its maximum, which caps the
    bucket interpolation: without it the estimate sits near the bucket's
    upper edge.)

    [measure ~options ()] returns the machine-readable section embedded
    in [BENCH_gofree.json] under ["load"]; [run ~options ()] prints the
    tables. *)

module Json = Gofree_obs.Json
module Reg = Gofree_obs.Registry
module Server = Gofree_server.Server
module Client = Gofree_server.Client
module Rpc = Gofree_server.Rpc
module Harness = Gofree_load.Harness
module Schedule = Gofree_load.Schedule

(* Load points are about server behavior, not workload size: cap the
   per-request cost so the sweep finds the daemon's limits, not the
   interpreter's. *)
let load_scale ~(options : Bench_common.options) = max 1 (min options.scale 25)

let shed_watermark = 16

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-load-bench-%d-%d.sock" (Unix.getpid ()) !n)

let ok_exn = function
  | Ok v -> v
  | Error m -> failwith ("load harness: " ^ m)

(* ---- report digestion ---- *)

type point = {
  p_label : string;
  p_offered : int;
  p_offered_rps : float;
  p_ok : int;
  p_achieved_rps : float;
  p_shed : int;
  p_timed_out : int;
  p_errors : int;
  p_dropped : int;
  p_p50_ms : float;
  p_p99_ms : float;
  p_identical : bool;
  p_slo_ok : bool;
}

let point_of_report ~label (r : Json.t) : point =
  let offered = Json.get "offered" r in
  let achieved = Json.get "achieved" r in
  let lat = Json.get "all" (Json.get "latency_ms" r) in
  let pct name =
    match Json.member name lat with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  {
    p_label = label;
    p_offered = Json.get_int "requests" offered;
    p_offered_rps = Json.get_float "rps" offered;
    p_ok = Json.get_int "ok" achieved;
    p_achieved_rps = Json.get_float "rps" achieved;
    p_shed = Json.get_int "shed" achieved;
    p_timed_out = Json.get_int "timed_out" achieved;
    p_errors = Json.get_int "errors" achieved;
    p_dropped = Json.get_int "dropped" achieved;
    p_p50_ms = pct "p50_ms";
    p_p99_ms = pct "p99_ms";
    p_identical =
      Json.member "outputs_identical" (Json.get "consistency" r)
      = Some (Json.Bool true);
    p_slo_ok = Harness.slo_ok r;
  }

let point_json (p : point) : Json.t =
  Json.Obj
    [
      ("label", Json.Str p.p_label);
      ("offered_requests", Json.Int p.p_offered);
      ("offered_rps", Json.Float p.p_offered_rps);
      ("ok", Json.Int p.p_ok);
      ("achieved_rps", Json.Float p.p_achieved_rps);
      ("shed", Json.Int p.p_shed);
      ("timed_out", Json.Int p.p_timed_out);
      ("errors", Json.Int p.p_errors);
      ("dropped", Json.Int p.p_dropped);
      ("p50_ms", Json.Float p.p_p50_ms);
      ("p99_ms", Json.Float p.p_p99_ms);
      ("outputs_identical", Json.Bool p.p_identical);
      ("slo_ok", Json.Bool p.p_slo_ok);
    ]

(* ---- the measurement campaign ---- *)

type campaign = {
  c_scale : int;
  c_seed : int;
  c_duration_s : float;
  c_capacity_rps : float;  (** closed-loop achieved, 4 clients *)
  c_rate_sweep : point list;
  c_closed_loop : point list;
  c_p99_check : (point * float) list;
      (** fresh-daemon points, each with the server's request p99 *)
  c_cold : point;
  c_warm : point;
}

let base_cfg ~socket ~scale ~seed ~duration_s =
  {
    (Harness.default_config ~socket) with
    Harness.duration_s;
    scale;
    seed;
  }

let run_point ~socket ~scale ~seed ~duration_s ~label ~clients ~arrival ()
    : point =
  let cfg =
    {
      (base_cfg ~socket ~scale ~seed ~duration_s) with
      Harness.clients;
      arrival;
    }
  in
  point_of_report ~label (ok_exn (Harness.run cfg))

(* p99 of the daemon's request histogram, over every request it has
   served *)
let server_request_p99_ms ~socket =
  match Client.call_once ~socket Rpc.Telemetry with
  | Ok doc -> begin
    match
      Reg.Snapshot.find_histogram "gofree_rpc_request_ms"
        (Reg.Snapshot.of_json doc)
    with
    | Some h -> Reg.Snapshot.quantile h 99.0
    | None -> failwith "telemetry scrape: no gofree_rpc_request_ms histogram"
  end
  | Error (code, m) ->
    failwith (Printf.sprintf "telemetry scrape: %s: %s" code m)

(* one closed-loop point on a fresh daemon, with the server's p99 over
   exactly its requests *)
let p99_check_point ~scale ~seed ~clients : point * float =
  let socket = fresh_socket () in
  let t = Server.start ~socket () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let p =
        run_point ~socket ~scale ~seed:(seed + clients) ~duration_s:1.0
          ~label:(Printf.sprintf "%d clients" clients)
          ~clients ~arrival:Schedule.Closed ()
      in
      (p, server_request_p99_ms ~socket))

let measure_campaign ~(options : Bench_common.options) : campaign =
  let scale = load_scale ~options in
  let seed = options.seed in
  let duration_s = 1.2 in
  (* -- server vs client p99: a fresh daemon per point -- *)
  let p99_check =
    List.map
      (fun clients -> p99_check_point ~scale ~seed ~clients)
      [ 1; 4; 8 ]
  in
  (* -- warm vs cold: fresh daemon, then its resident cache -- *)
  let socket = fresh_socket () in
  let t = Server.start ~shed_watermark ~socket () in
  let cold, warm =
    Fun.protect
      ~finally:(fun () -> Server.stop t)
      (fun () ->
        let go label seed =
          run_point ~socket ~scale ~seed ~duration_s ~label ~clients:4
            ~arrival:Schedule.Closed ()
        in
        let cold = go "cold" seed in
        (cold, go "warm" (seed + 1)))
  in
  (* -- one long-lived daemon for the sweeps, pre-warmed -- *)
  let socket = fresh_socket () in
  let t = Server.start ~shed_watermark ~socket () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      ignore
        (run_point ~socket ~scale ~seed ~duration_s:0.6 ~label:"warmup"
           ~clients:4 ~arrival:Schedule.Closed ());
      (* closed-loop client sweep; the 4-client point doubles as the
         capacity estimate for the rate sweep *)
      let closed_loop =
        List.map
          (fun clients ->
            run_point ~socket ~scale ~seed:(seed + clients) ~duration_s
              ~label:(Printf.sprintf "%d clients" clients)
              ~clients ~arrival:Schedule.Closed ())
          [ 1; 2; 4; 8 ]
      in
      let capacity_rps =
        match List.nth_opt closed_loop 2 with
        | Some p when p.p_achieved_rps > 0.0 -> p.p_achieved_rps
        | _ -> 50.0
      in
      let rate_sweep =
        List.map
          (fun mult ->
            let total = capacity_rps *. mult in
            let clients = 4 in
            let per_client = Harness.per_client_rate ~clients total in
            run_point ~socket ~scale ~seed:(seed + 100) ~duration_s:1.5
              ~label:(Printf.sprintf "%.1fx" mult)
              ~clients
              ~arrival:(Schedule.Poisson per_client) ())
          [ 0.5; 1.0; 2.0 ]
      in
      {
        c_scale = scale;
        c_seed = seed;
        c_duration_s = duration_s;
        c_capacity_rps = capacity_rps;
        c_rate_sweep = rate_sweep;
        c_closed_loop = closed_loop;
        c_p99_check = p99_check;
        c_cold = cold;
        c_warm = warm;
      })

let campaign_json (c : campaign) : Json.t =
  Json.Obj
    [
      ("scale_pct", Json.Int c.c_scale);
      ("seed", Json.Int c.c_seed);
      ("duration_s", Json.Float c.c_duration_s);
      ("shed_watermark", Json.Int shed_watermark);
      ("capacity_rps", Json.Float c.c_capacity_rps);
      ("rate_sweep", Json.List (List.map point_json c.c_rate_sweep));
      ("closed_loop", Json.List (List.map point_json c.c_closed_loop));
      ( "p99_check",
        Json.List
          (List.map
             (fun (p, server_p99) ->
               Json.Obj
                 [
                   ("label", Json.Str p.p_label);
                   ("ok", Json.Int p.p_ok);
                   ("client_p99_ms", Json.Float p.p_p99_ms);
                   ("server_request_p99_ms", Json.Float server_p99);
                 ])
             c.c_p99_check) );
      ("cold", point_json c.c_cold);
      ("warm", point_json c.c_warm);
    ]

(** The ["load"] section of [BENCH_gofree.json]. *)
let measure ~options () : Json.t = campaign_json (measure_campaign ~options)

(* ---- human-readable run ---- *)

let print_points title points =
  Bench_common.heading title;
  Printf.printf "  %-10s %8s %8s %6s %6s %5s %9s %9s %5s\n" "point"
    "offered" "ok/s" "shed" "t/o" "err" "p50ms" "p99ms" "same";
  List.iter
    (fun p ->
      Printf.printf "  %-10s %8d %8.1f %6d %6d %5d %9.1f %9.1f %5b\n"
        p.p_label p.p_offered p.p_achieved_rps p.p_shed p.p_timed_out
        p.p_errors p.p_p50_ms p.p_p99_ms p.p_identical)
    points;
  print_newline ()

let run ~options () =
  let c = measure_campaign ~options in
  Printf.printf
    "load harness: scale %d%%, seed %d, shed watermark %d, capacity \
     ~%.1f req/s (closed loop, 4 clients)\n\n"
    c.c_scale c.c_seed shed_watermark c.c_capacity_rps;
  print_points "load: open-loop rate sweep (Poisson, 4 clients)"
    c.c_rate_sweep;
  print_points "load: closed-loop client sweep" c.c_closed_loop;
  print_points "load: server vs client p99 (closed loop, fresh daemon each)"
    (List.map fst c.c_p99_check);
  List.iter
    (fun (p, server_p99) ->
      Printf.printf "  %-10s server request p99 %.1f ms, client p99 %.1f ms\n"
        p.p_label server_p99 p.p_p99_ms)
    c.c_p99_check;
  print_newline ();
  print_points "load: cold daemon vs resident cache (closed loop, 4 clients)"
    [ c.c_cold; c.c_warm ];
  let over =
    List.exists
      (fun p -> p.p_label = "2.0x" && p.p_shed > 0 && p.p_errors = 0)
      c.c_rate_sweep
  in
  Printf.printf
    "  overload handled by shedding (2x point sheds, zero hard errors): %b\n"
    over;
  let all_identical =
    List.for_all
      (fun p -> p.p_identical)
      (c.c_cold :: c.c_warm
      :: (c.c_rate_sweep @ c.c_closed_loop @ List.map fst c.c_p99_check))
  in
  Printf.printf "  outputs byte-identical across every point: %b\n\n"
    all_identical;
  if not all_identical then failwith "load changed response payloads";
  List.iter
    (fun (p, server_p99) ->
      if p.p_ok > 0 && server_p99 > (p.p_p99_ms *. 1.5) +. 5.0 then
        failwith
          (Printf.sprintf
             "load: server request p99 %.1f ms exceeds client p99 %.1f ms at \
              %s"
             server_p99 p.p_p99_ms p.p_label))
    c.c_p99_check
