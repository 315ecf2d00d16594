(** The escape graph (paper Def 4.1) and the per-root walk that computes
    [Holds]/[MinDerefs]/[PointsTo] (Defs 4.6–4.9).

    Edges are directed value flows: [p = q] adds [q --0--> p], [p = &q]
    adds [q --(-1)--> p], [p = *q] adds [q --1--> p] (Table 2).  The walk
    from a root location traverses edges {e backwards} — from the root to
    everything whose value can reach it — relaxing dereference counts with
    the [max(0, d) + w] recurrence of Def 4.7, so the resulting count for a
    location [m] is [MinDerefs(m, root)]; [-1] means the root may hold
    [&m], i.e. [m ∈ PointsTo(root)]. *)

type edge = { src : Loc.t; weight : int }

type t = {
  mutable locs : Loc.t list;  (** all locations, reverse creation order *)
  mutable n_locs : int;
  incoming : (int, edge list ref) Hashtbl.t;  (** dst id → edges into dst *)
  heap : Loc.t;  (** the dummy heapLoc *)
  defer : Loc.t;  (** sink for defer/panic arguments *)
  mutable returns : Loc.t array;  (** per-return-value dummies *)
  mutable epoch : int;  (** walk generation counter *)
  mutable n_edges : int;
  mutable walk_steps : int;  (** total SPFA relaxations, for complexity stats *)
  walk_lock : Mutex.t;
      (** held by a walk: its state lives in the graph and its locations *)
}

let make_loc id kind ~loop_depth ~decl_depth : Loc.t =
  {
    Loc.id;
    kind;
    loop_depth;
    decl_depth;
    heap_alloc = false;
    exposes = false;
    inc_param = false;
    inc_store = false;
    outermost_ref = decl_depth;
    outlived = false;
    points_to_heap = false;
    walk_derefs = 0;
    walk_epoch = -1;
    walk_queued = false;
  }

let fresh_loc g kind ~loop_depth ~decl_depth : Loc.t =
  let l = make_loc g.n_locs kind ~loop_depth ~decl_depth in
  g.n_locs <- g.n_locs + 1;
  g.locs <- l :: g.locs;
  l

let create () =
  let heap = make_loc 0 Loc.Kheap ~loop_depth:(-1) ~decl_depth:(-1) in
  heap.Loc.heap_alloc <- true;
  heap.Loc.exposes <- true;
  heap.Loc.inc_store <- true;
  let defer = make_loc 1 Loc.Kdefer ~loop_depth:0 ~decl_depth:0 in
  defer.Loc.exposes <- true;
  defer.Loc.inc_store <- true;
  {
    locs = [ defer; heap ];
    n_locs = 2;
    incoming = Hashtbl.create 64;
    heap;
    defer;
    returns = [||];
    epoch = 0;
    n_edges = 0;
    walk_steps = 0;
    walk_lock = Mutex.create ();
  }

let add_edge g ~src ~dst ~weight =
  if src.Loc.id <> dst.Loc.id || weight <> 0 then begin
    let edges =
      match Hashtbl.find_opt g.incoming dst.Loc.id with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace g.incoming dst.Loc.id r;
        r
    in
    (* Deduplicate: flow-insensitive construction frequently emits the
       same edge (e.g. assignments in loops lowered from [+=]). *)
    if not (List.exists (fun e -> e.src == src && e.weight = weight) !edges)
    then begin
      edges := { src; weight } :: !edges;
      g.n_edges <- g.n_edges + 1
    end
  end

let incoming_edges g dst =
  match Hashtbl.find_opt g.incoming dst.Loc.id with
  | Some r -> !r
  | None -> []

(** [walk_one g root f] computes [MinDerefs(m, root)] for every
    [m ∈ Holds(root)] with an SPFA (queue-optimized Bellman-Ford, the
    paper's §4.1 choice) and calls [f m derefs] for each, excluding the
    root itself.  Runs in O(N) average time on the sparse graph.  The
    walk's state is the graph's [epoch] and its locations' [walk_*]
    fields, so walks of one graph hold [walk_lock]: a compilation the
    daemon caches is explained by several worker domains at once. *)
let walk_one g (root : Loc.t) (f : Loc.t -> int -> unit) =
  Mutex.lock g.walk_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.walk_lock) @@ fun () ->
  g.epoch <- g.epoch + 1;
  let epoch = g.epoch in
  root.Loc.walk_derefs <- 0;
  root.Loc.walk_epoch <- epoch;
  root.Loc.walk_queued <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let dst = Queue.pop queue in
    dst.Loc.walk_queued <- false;
    let base = max 0 dst.Loc.walk_derefs in
    List.iter
      (fun { src; weight } ->
        g.walk_steps <- g.walk_steps + 1;
        let d = base + weight in
        let improved =
          src.Loc.walk_epoch <> epoch || d < src.Loc.walk_derefs
        in
        if improved then begin
          src.Loc.walk_epoch <- epoch;
          src.Loc.walk_derefs <- d;
          if not src.Loc.walk_queued then begin
            src.Loc.walk_queued <- true;
            Queue.add src queue
          end
        end)
      (incoming_edges g dst)
  done;
  List.iter
    (fun (l : Loc.t) ->
      if l.Loc.walk_epoch = epoch && l.Loc.id <> root.Loc.id then
        f l l.Loc.walk_derefs)
    g.locs

(** [min_derefs g m root] is [MinDerefs(m, root)], or [None] when
    [m ∉ Holds(root)].  Convenience for tests and summary extraction. *)
let min_derefs g (m : Loc.t) (root : Loc.t) : int option =
  let result = ref None in
  walk_one g root (fun l d -> if l.Loc.id = m.Loc.id then result := Some d);
  if m.Loc.id = root.Loc.id then Some 0 else !result

(** [points_to g root] materializes [PointsTo(root)] (Def 4.9). *)
let points_to g (root : Loc.t) : Loc.t list =
  let acc = ref [] in
  walk_one g root (fun l d -> if d = -1 then acc := l :: !acc);
  !acc

let all_locs g = List.rev g.locs
