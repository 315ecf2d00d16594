(** Registry of the JSON document schemas this codebase emits.

    Every machine-readable document carries a ["schema"] field whose
    value is one fixed tag per document family ([gofree-<family>-v1]).
    Producers stamp documents with {!field}; consumers gate parsing on
    {!check} (or {!check_exn}) so a version or family mismatch fails
    with one clear message instead of a shape error deep inside the
    decoder. *)

type t =
  | Metrics  (** runtime counters, [Gofree_runtime.Metrics.to_json] *)
  | Samples  (** sampler time series, [Gofree_runtime.Sampler.to_json] *)
  | Build_stats  (** build driver waves/cache, [Driver.stats_to_json] *)
  | Explain  (** freeing diagnostics, [Report.explain_to_json] *)
  | Bench  (** the BENCH_gofree.json evaluation export *)
  | Rpc  (** the [gofreec serve] wire protocol *)
  | Load  (** the [gofreec load] harness report *)
  | Telemetry  (** metrics-registry snapshots, [Registry.Snapshot.to_json] *)
  | Precision  (** the precision-mode smoke export, [precision_smoke.json] *)

let all =
  [
    Metrics; Samples; Build_stats; Explain; Bench; Rpc; Load; Telemetry;
    Precision;
  ]

let tag = function
  | Metrics -> "gofree-metrics-v1"
  | Samples -> "gofree-samples-v1"
  | Build_stats -> "gofree-build-stats-v1"
  | Explain -> "gofree-explain-v1"
  | Bench -> "gofree-bench-v1"
  | Rpc -> "gofree-rpc-v2"
  | Load -> "gofree-load-v1"
  | Telemetry -> "gofree-telemetry-v1"
  | Precision -> "gofree-precision-v1"

let of_tag s = List.find_opt (fun t -> tag t = s) all

(** The [("schema", ...)] field a document of kind [t] must carry; by
    convention the first field of the object. *)
let field t = ("schema", Json.Str (tag t))

(** Check that [j] is an object declaring schema [t].  [Error] carries a
    human-readable diagnosis: missing field, non-string field, a known
    tag of another family, or an unknown (e.g. future-version) tag. *)
let check t (j : Json.t) : (unit, string) result =
  match Json.member "schema" j with
  | None ->
    Error
      (Printf.sprintf "document has no \"schema\" field (expected %s)"
         (tag t))
  | Some (Json.Str s) when s = tag t -> Ok ()
  | Some (Json.Str s) -> begin
    match of_tag s with
    | Some _ ->
      Error
        (Printf.sprintf "schema mismatch: expected %s, got %s" (tag t) s)
    | None ->
      Error
        (Printf.sprintf
           "unknown schema %s (expected %s); produced by a newer \
            version?" s (tag t))
  end
  | Some _ ->
    Error
      (Printf.sprintf "\"schema\" field is not a string (expected %s)"
         (tag t))

(** [check] raising {!Json.Parse_error} — for decoders that already
    signal shape errors that way. *)
let check_exn t j =
  match check t j with
  | Ok () -> ()
  | Error m -> raise (Json.Parse_error m)
