(** Registry of the JSON document schemas this codebase emits.

    One tag per machine-readable document family; producers stamp
    documents with {!field}, consumers gate parsing on {!check}. *)

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

val all : t list

(** The wire tag, e.g. [gofree-metrics-v1]. *)
val tag : t -> string

val of_tag : string -> t option

(** The [("schema", ...)] field a document of kind [t] must carry. *)
val field : t -> string * Json.t

(** Check that [j] is an object declaring schema [t]; [Error] carries a
    clear mismatch diagnosis (missing/mistyped field, wrong family, or
    unknown — possibly future — version). *)
val check : t -> Json.t -> (unit, string) result

(** [check] raising {!Json.Parse_error}. *)
val check_exn : t -> Json.t -> unit
