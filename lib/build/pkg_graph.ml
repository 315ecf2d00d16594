(** The import graph: cycle detection and topological scheduling.

    [waves] computes Kahn levels — wave [i] holds every package whose
    imports all live in waves [< i]; the build analyzes wave by wave,
    and packages within one wave are independent.  Import cycles are illegal (as in Go);
    the offending cycle is reported by name. *)

exception Cycle of string list

(* A cycle certainly exists among [nodes]; walk dep edges until a name
   repeats to produce a readable witness. *)
let find_cycle deps_of nodes =
  match nodes with
  | [] -> []
  | start :: _ ->
    let rec walk trail name =
      match List.find_opt (String.equal name) trail with
      | Some _ ->
        (* drop the tail before the first occurrence *)
        let rec from = function
          | [] -> []
          | x :: rest -> if String.equal x name then x :: rest else from rest
        in
        from (List.rev (name :: trail))
      | None ->
        let next =
          List.find_opt (fun d -> List.mem d nodes) (deps_of name)
        in
        (match next with
        | None -> List.rev (name :: trail)  (* unreachable for true cycles *)
        | Some d -> walk (name :: trail) d)
    in
    walk [] start

(** [waves pkgs] where [pkgs] maps package name → imported package
    names.  Returns the packages grouped into dependency levels, names
    sorted within each wave (deterministic schedule).  Edges to unknown
    names are ignored (the loader has already validated imports).
    Raises {!Cycle} with a witness path on a cyclic import graph. *)
let waves (pkgs : (string * string list) list) : string list list =
  let names = List.map fst pkgs in
  let deps_of name =
    match List.assoc_opt name pkgs with
    | Some ds -> List.filter (fun d -> List.mem d names) ds
    | None -> []
  in
  let placed = Hashtbl.create 16 in
  let rec go acc remaining =
    if remaining = [] then List.rev acc
    else begin
      let ready =
        List.filter
          (fun n -> List.for_all (Hashtbl.mem placed) (deps_of n))
          remaining
      in
      if ready = [] then raise (Cycle (find_cycle deps_of remaining));
      let ready = List.sort compare ready in
      List.iter (fun n -> Hashtbl.replace placed n ()) ready;
      go (ready :: acc)
        (List.filter (fun n -> not (Hashtbl.mem placed n)) remaining)
    end
  in
  go [] names

(** Flat topological order (concatenated waves). *)
let topo_order pkgs = List.concat (waves pkgs)
