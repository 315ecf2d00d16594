(** Typed metrics registry (see the .mli for the model).

    Striping: every counter (and histogram bucket array) is an array of
    [stripes] atomics; a writer picks the stripe of its domain id so
    domains running in parallel do not bounce one cache line.  Readers
    ([snapshot]) sum the stripes — values are eventually consistent
    while writers are active, exact once they stop. *)

let stripes = 8  (* power of two; stripe = domain id land (stripes-1) *)

let stripe_index () = (Domain.self () :> int) land (stripes - 1)

type counter = int Atomic.t array

type gauge = float Atomic.t

type histogram = {
  h_buckets : float array;  (** sorted upper bounds *)
  h_counts : int Atomic.t array array;  (** stripe → bucket counts *)
  h_sum : float Atomic.t array;  (** per stripe *)
  h_max : float Atomic.t array;  (** per stripe *)
}

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram

type t = {
  mutex : Mutex.t;  (** guards instrument creation, not updates *)
  instruments : (string, instrument) Hashtbl.t;
  help : (string, string) Hashtbl.t;
}

let create () =
  {
    mutex = Mutex.create ();
    instruments = Hashtbl.create 32;
    help = Hashtbl.create 32;
  }

(* ---------------------------------------------------------------- *)
(* Instrument creation                                               *)
(* ---------------------------------------------------------------- *)

let with_registry t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let register t ?help name make match_existing =
  with_registry t (fun () ->
      (match help with
      | Some h -> Hashtbl.replace t.help name h
      | None -> ());
      match Hashtbl.find_opt t.instruments name with
      | Some existing -> match_existing existing
      | None ->
        let i = make () in
        Hashtbl.replace t.instruments name i;
        i)

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"

let wrong_kind name want got =
  invalid_arg
    (Printf.sprintf "Registry: %s already registered as a %s, not a %s"
       name (kind_name got) want)

let counter t ?help name : counter =
  match
    register t ?help name
      (fun () -> I_counter (Array.init stripes (fun _ -> Atomic.make 0)))
      (function I_counter _ as i -> i | i -> wrong_kind name "counter" i)
  with
  | I_counter c -> c
  | _ -> assert false

let gauge t ?help name : gauge =
  match
    register t ?help name
      (fun () -> I_gauge (Atomic.make 0.0))
      (function I_gauge _ as i -> i | i -> wrong_kind name "gauge" i)
  with
  | I_gauge g -> g
  | _ -> assert false

let default_buckets_ms =
  [|
    0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0;
    500.0; 1000.0; 2500.0; 5000.0;
  |]

let exponential_buckets ~start ~factor ~count =
  if start <= 0.0 || factor <= 1.0 || count < 1 then
    invalid_arg "Registry.exponential_buckets";
  Array.init count (fun i -> start *. (factor ** float_of_int i))

let validate_buckets name buckets =
  let n = Array.length buckets in
  if n = 0 then
    invalid_arg (Printf.sprintf "Registry: histogram %s: empty buckets" name);
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg
        (Printf.sprintf
           "Registry: histogram %s: buckets must be strictly increasing"
           name)
  done

let histogram t ?help ?(buckets = default_buckets_ms) name : histogram =
  validate_buckets name buckets;
  match
    register t ?help name
      (fun () ->
        let nb = Array.length buckets + 1 in
        I_histogram
          {
            h_buckets = Array.copy buckets;
            h_counts =
              Array.init stripes (fun _ ->
                  Array.init nb (fun _ -> Atomic.make 0));
            h_sum = Array.init stripes (fun _ -> Atomic.make 0.0);
            h_max = Array.init stripes (fun _ -> Atomic.make 0.0);
          })
      (function
        | I_histogram h as i ->
          if h.h_buckets <> buckets then
            invalid_arg
              (Printf.sprintf
                 "Registry: histogram %s already registered with \
                  different buckets" name);
          i
        | i -> wrong_kind name "histogram" i)
  with
  | I_histogram h -> h
  | _ -> assert false

(* ---------------------------------------------------------------- *)
(* Updates (lock-free)                                               *)
(* ---------------------------------------------------------------- *)

let add (c : counter) n = ignore (Atomic.fetch_and_add c.(stripe_index ()) n)

let incr c = add c 1

let counter_value (c : counter) =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c

let set (g : gauge) v = Atomic.set g v

let rec cas_add cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then cas_add cell x

let rec cas_max cell x =
  let old = Atomic.get cell in
  if x > old && not (Atomic.compare_and_set cell old x) then cas_max cell x

(* Smallest bucket whose upper bound admits [v]; the trailing overflow
   slot when none does. *)
let bucket_for buckets v =
  let n = Array.length buckets in
  let rec go lo hi =
    (* invariant: every bucket < lo is too small, every >= hi admits v *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if v <= buckets.(mid) then go lo mid else go (mid + 1) hi
    end
  in
  go 0 n

let observe (h : histogram) v =
  let s = stripe_index () in
  ignore (Atomic.fetch_and_add h.h_counts.(s).(bucket_for h.h_buckets v) 1);
  cas_add h.h_sum.(s) v;
  cas_max h.h_max.(s) v

(* ---------------------------------------------------------------- *)
(* Snapshots                                                         *)
(* ---------------------------------------------------------------- *)

module Snapshot = struct
  type histo = {
    buckets : float array;
    counts : int array;
    sum : float;
    max_value : float;
  }

  type t = {
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * histo) list;
    help : (string * string) list;
  }

  let empty = { counters = []; gauges = []; histograms = []; help = [] }

  let count (h : histo) = Array.fold_left ( + ) 0 h.counts

  let quantile (h : histo) p =
    let total = count h in
    if total = 0 then 0.0
    else begin
      let rank = p /. 100.0 *. float_of_int total in
      let nb = Array.length h.buckets in
      let rec go i cum =
        if i > nb then h.max_value
        else begin
          let cum' = cum + h.counts.(i) in
          if float_of_int cum' >= rank && h.counts.(i) > 0 then begin
            let lo = if i = 0 then 0.0 else h.buckets.(i - 1) in
            let hi = if i < nb then h.buckets.(i) else h.max_value in
            let hi = max lo hi in
            lo
            +. (hi -. lo)
               *. ((rank -. float_of_int cum) /. float_of_int h.counts.(i))
          end
          else go (i + 1) cum'
        end
      in
      min (go 0 0) h.max_value |> max 0.0
    end

  let merge_assoc ~combine a b =
    (* both inputs sorted by name; keep the output sorted *)
    let rec go acc a b =
      match (a, b) with
      | [], rest | rest, [] -> List.rev_append acc rest
      | (ka, va) :: ta, (kb, vb) :: tb ->
        if ka < kb then go ((ka, va) :: acc) ta b
        else if kb < ka then go ((kb, vb) :: acc) a tb
        else go ((ka, combine ka va vb) :: acc) ta tb
    in
    go [] a b

  let merge (a : t) (b : t) : t =
    {
      counters = merge_assoc ~combine:(fun _ x y -> x + y) a.counters b.counters;
      gauges = merge_assoc ~combine:(fun _ _ y -> y) a.gauges b.gauges;
      histograms =
        merge_assoc a.histograms b.histograms ~combine:(fun name x y ->
            if x.buckets <> y.buckets then
              invalid_arg
                (Printf.sprintf
                   "Snapshot.merge: histogram %s has different buckets"
                   name);
            {
              buckets = x.buckets;
              counts = Array.mapi (fun i c -> c + y.counts.(i)) x.counts;
              sum = x.sum +. y.sum;
              max_value = max x.max_value y.max_value;
            });
      help = merge_assoc ~combine:(fun _ _ y -> y) a.help b.help;
    }

  let find_counter name (t : t) = List.assoc_opt name t.counters

  let find_histogram name (t : t) = List.assoc_opt name t.histograms

  let to_json (t : t) : Json.t =
    let histo_json (h : histo) =
      Json.Obj
        [
          ( "buckets",
            Json.List
              (Array.to_list (Array.map (fun b -> Json.Float b) h.buckets))
          );
          ( "counts",
            Json.List
              (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)) );
          ("count", Json.Int (count h));
          ("sum", Json.Float h.sum);
          ("max", Json.Float h.max_value);
        ]
    in
    Json.Obj
      [
        Schema.field Schema.Telemetry;
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
        ( "gauges",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.gauges) );
        ( "histograms",
          Json.Obj
            (List.map (fun (k, h) -> (k, histo_json h)) t.histograms) );
        ( "help",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.help) );
      ]

  let of_json (j : Json.t) : t =
    Schema.check_exn Schema.Telemetry j;
    let bad fmt = Printf.ksprintf (fun m -> raise (Json.Parse_error m)) fmt in
    let fields name =
      match Json.member name j with
      | None -> []
      | Some (Json.Obj kvs) -> kvs
      | Some _ -> bad "telemetry: %S must be an object" name
    in
    let int_of name = function
      | Json.Int n -> n
      | _ -> bad "telemetry: %S must be an integer" name
    in
    let float_of name = function
      | Json.Int n -> float_of_int n
      | Json.Float f -> f
      | _ -> bad "telemetry: %S must be a number" name
    in
    let histo_of name = function
      | Json.Obj _ as o ->
        let arr field conv =
          match Json.member field o with
          | Some (Json.List l) -> Array.of_list (List.map (conv field) l)
          | _ -> bad "telemetry: histogram %S needs %S" name field
        in
        let buckets = arr "buckets" float_of in
        let counts = arr "counts" int_of in
        if Array.length counts <> Array.length buckets + 1 then
          bad "telemetry: histogram %S: counts must be buckets+1 long" name;
        {
          buckets;
          counts;
          sum =
            (match Json.member "sum" o with
            | Some v -> float_of "sum" v
            | None -> bad "telemetry: histogram %S needs \"sum\"" name);
          max_value =
            (match Json.member "max" o with
            | Some v -> float_of "max" v
            | None -> bad "telemetry: histogram %S needs \"max\"" name);
        }
      | _ -> bad "telemetry: histogram %S must be an object" name
    in
    let str_of name = function
      | Json.Str s -> s
      | _ -> bad "telemetry: %S must be a string" name
    in
    {
      counters = List.map (fun (k, v) -> (k, int_of k v)) (fields "counters");
      gauges = List.map (fun (k, v) -> (k, float_of k v)) (fields "gauges");
      histograms =
        List.map (fun (k, v) -> (k, histo_of k v)) (fields "histograms");
      help = List.map (fun (k, v) -> (k, str_of k v)) (fields "help");
    }

  let to_prometheus (t : t) : string =
    let buf = Buffer.create 4096 in
    let num f =
      (* integral floats print without a fraction, like Prometheus does *)
      if abs_float f < 1e15 && float_of_int (truncate f) = f then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.9g" f
    in
    let header name kind =
      (match List.assoc_opt name t.help with
      | Some h -> Printf.bprintf buf "# HELP %s %s\n" name h
      | None -> ());
      Printf.bprintf buf "# TYPE %s %s\n" name kind
    in
    List.iter
      (fun (name, v) ->
        header name "counter";
        Printf.bprintf buf "%s %d\n" name v)
      t.counters;
    List.iter
      (fun (name, v) ->
        header name "gauge";
        Printf.bprintf buf "%s %s\n" name (num v))
      t.gauges;
    List.iter
      (fun (name, h) ->
        header name "histogram";
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            let le =
              if i < Array.length h.buckets then num h.buckets.(i)
              else "+Inf"
            in
            Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" name le !cum)
          h.counts;
        Printf.bprintf buf "%s_sum %s\n" name (num h.sum);
        Printf.bprintf buf "%s_count %d\n" name !cum)
      t.histograms;
    Buffer.contents buf
end

let snapshot (t : t) : Snapshot.t =
  let counters = ref [] and gauges = ref [] in
  let histograms = ref [] and help = ref [] in
  with_registry t (fun () ->
      Hashtbl.iter
        (fun name i ->
          match i with
          | I_counter c -> counters := (name, counter_value c) :: !counters
          | I_gauge g -> gauges := (name, Atomic.get g) :: !gauges
          | I_histogram h ->
            let nb = Array.length h.h_buckets + 1 in
            let counts = Array.make nb 0 in
            Array.iter
              (fun stripe ->
                Array.iteri
                  (fun i c -> counts.(i) <- counts.(i) + Atomic.get c)
                  stripe)
              h.h_counts;
            let fold f init cells =
              Array.fold_left (fun acc c -> f acc (Atomic.get c)) init cells
            in
            histograms :=
              ( name,
                {
                  Snapshot.buckets = Array.copy h.h_buckets;
                  counts;
                  sum = fold ( +. ) 0.0 h.h_sum;
                  max_value = fold max 0.0 h.h_max;
                } )
              :: !histograms)
        t.instruments;
      Hashtbl.iter (fun k v -> help := (k, v) :: !help) t.help);
  {
    Snapshot.counters = List.sort compare !counters;
    gauges = List.sort compare !gauges;
    histograms =
      List.sort (fun (a, _) (b, _) -> compare a b) !histograms;
    help = List.sort compare !help;
  }

(* ---------------------------------------------------------------- *)
(* The process-wide runtime registry                                 *)
(* ---------------------------------------------------------------- *)

let runtime = create ()

let runtime_users = Atomic.make 0

let acquire_runtime () = ignore (Atomic.fetch_and_add runtime_users 1)

let release_runtime () =
  ignore (Atomic.fetch_and_add runtime_users (-1))

let runtime_enabled () = Atomic.get runtime_users > 0
