(** The workload-mix model: a weighted blend of request kinds.

    A mix is written [analyze=4,run=2,explain=1,stats=1,build=0] — each
    term a method of the [gofree-rpc-v2] protocol with an integer
    weight.  Sampling is by cumulative weight over one uniform draw, so
    a mix plus a {!Rng} stream yields a deterministic request kind
    sequence. *)

module Json = Gofree_obs.Json

type kind = Analyze | Run | Explain | Build | Stats

let kinds = [ Analyze; Run; Explain; Build; Stats ]

let kind_name = function
  | Analyze -> "analyze"
  | Run -> "run"
  | Explain -> "explain"
  | Build -> "build"
  | Stats -> "stats"

let kind_of_name n = List.find_opt (fun k -> kind_name k = n) kinds

(** Weights in the fixed {!kinds} order; absent terms weigh 0. *)
type t = (kind * int) list

let default : t =
  [ (Analyze, 4); (Run, 2); (Explain, 1); (Build, 0); (Stats, 1) ]

let weight (t : t) k = Option.value (List.assoc_opt k t) ~default:0

let total (t : t) = List.fold_left (fun acc (_, w) -> acc + w) 0 t

let to_string (t : t) =
  String.concat ","
    (List.filter_map
       (fun k ->
         let w = weight t k in
         if w = 0 then None
         else Some (Printf.sprintf "%s=%d" (kind_name k) w))
       kinds)

(** Parse a [kind=weight,...] spec.  Unknown kinds, bad weights, repeats
    and the all-zero mix are errors. *)
let of_string (s : string) : (t, string) result =
  let exception Bad of string in
  try
    let terms =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun term -> term <> "")
    in
    if terms = [] then raise (Bad "empty mix");
    let parsed =
      List.map
        (fun term ->
          match String.index_opt term '=' with
          | None ->
            raise
              (Bad (Printf.sprintf "term %S is not of the form kind=N" term))
          | Some i ->
            let name = String.sub term 0 i in
            let value = String.sub term (i + 1) (String.length term - i - 1) in
            let kind =
              match kind_of_name name with
              | Some k -> k
              | None ->
                raise
                  (Bad
                     (Printf.sprintf
                        "unknown kind %S (analyze | run | explain | build \
                         | stats)" name))
            in
            let w =
              match int_of_string_opt value with
              | Some w when w >= 0 -> w
              | _ ->
                raise
                  (Bad
                     (Printf.sprintf "weight %S must be a non-negative int"
                        value))
            in
            (kind, w))
        terms
    in
    List.iter
      (fun k ->
        if List.length (List.filter (fun (k', _) -> k' = k) parsed) > 1 then
          raise (Bad (Printf.sprintf "kind %s repeated" (kind_name k))))
      kinds;
    let t =
      List.map
        (fun k ->
          (k, Option.value (List.assoc_opt k parsed) ~default:0))
        kinds
    in
    if total t = 0 then raise (Bad "mix has zero total weight");
    Ok t
  with Bad m -> Error m

(** Sample one kind from [u] in [0, 1) by cumulative weight. *)
let pick (t : t) ~(u : float) : kind =
  let tot = total t in
  if tot = 0 then invalid_arg "Mix.pick: zero total weight";
  let target = int_of_float (u *. float_of_int tot) in
  let rec go acc = function
    | [] -> assert false
    | (k, w) :: rest -> if target < acc + w then k else go (acc + w) rest
  in
  go 0 (List.filter (fun (_, w) -> w > 0) t)

let to_json (t : t) : Json.t =
  Json.Obj
    (List.filter_map
       (fun k ->
         let w = weight t k in
         if w = 0 then None else Some (kind_name k, Json.Int w))
       kinds)
