(** The daemon's process-resident result cache — what makes a warm
    request cheap.

    Two content-hash keyed tables live for the life of the server
    process:
    - compilations of single sources (key: source bytes + config), so a
      repeated [analyze]/[run]/[explain] of unchanged input skips
      parsing, typechecking, escape analysis and instrumentation;
    - linked multi-package builds (key: every source file's bytes under
      the tree + config), so a warm [build] of an unchanged tree skips
      {e everything} — loading, typechecking, analysis and linking.

    The build table layers over the on-disk [Build.Store]: a resident
    miss still goes through the driver, whose per-package summary store
    turns a cold daemon start on a previously-built tree into cheap
    replay; the resident hit then short-circuits even that on the next
    request.  Values are immutable once published (programs are
    instrumented in place {e before} insertion, and running one never
    mutates it), so worker domains share them freely; the mutex guards
    the tables only — no lock is held while compiling, and two racing
    misses on one key just do the work twice with identical results. *)

module Driver = Gofree_build.Driver
module Store = Gofree_build.Store
module Json = Gofree_obs.Json

(** A resident compilation, with its explain JSON once rendered. *)
type entry = {
  comp : Gofree_api.compilation;
  explain : Json.t option Atomic.t;
}

type t = {
  mutex : Mutex.t;
  compilations : (string, entry) Hashtbl.t;
  builds : (string, Gofree_api.build) Hashtbl.t;
  units : (string, Store.unit_record) Hashtbl.t;
      (** resident analysis-unit records, keyed [pkg ^ "\000" ^ unit key]
          — content-addressed, so sharing across trees is sound *)
  mutable hits : int;
  mutable misses : int;
  mutable unit_hits : int;  (** units replayed, across all builds served *)
  mutable unit_misses : int;  (** units analyzed, across all builds served *)
  explain_renders : int Atomic.t;  (** explains rendered, all entries *)
}

let create () : t =
  {
    mutex = Mutex.create ();
    compilations = Hashtbl.create 64;
    builds = Hashtbl.create 16;
    units = Hashtbl.create 256;
    hits = 0;
    misses = 0;
    unit_hits = 0;
    unit_misses = 0;
    explain_renders = Atomic.make 0;
  }

(** (hits, misses) over both tables since the server started. *)
let counts (t : t) : int * int =
  Mutex.lock t.mutex;
  let c = (t.hits, t.misses) in
  Mutex.unlock t.mutex;
  c

(** Cumulative unit-cache traffic of the builds served: (units replayed
    from a cache level, units actually analyzed). *)
let unit_counts (t : t) : int * int =
  Mutex.lock t.mutex;
  let c = (t.unit_hits, t.unit_misses) in
  Mutex.unlock t.mutex;
  c

let find ?(count_miss = true) tbl (t : t) key =
  Mutex.lock t.mutex;
  let v = Hashtbl.find_opt tbl key in
  (match v with
  | Some _ -> t.hits <- t.hits + 1
  | None -> if count_miss then t.misses <- t.misses + 1);
  Mutex.unlock t.mutex;
  v

let publish tbl (t : t) key v =
  Mutex.lock t.mutex;
  Hashtbl.replace tbl key v;
  Mutex.unlock t.mutex

(** The resident compilation of [source] under [config], counted as a
    hit; [None] counts nothing, because the caller then goes on to
    {!compilation}, which counts the miss (or a hit, should another
    request have published the key meanwhile).  Entries are never
    evicted, so a compilation found here stays valid. *)
let resident (t : t) ~(config : Gofree_api.config) (source : string) :
    entry option =
  find ~count_miss:false t.compilations t
    (Gofree_api.source_key ~config source)

(** Compile [source] under [config], or return the resident result.
    The [bool] is true on a resident hit. *)
let compilation (t : t) ~(config : Gofree_api.config) (source : string) :
    (entry * bool, Gofree_api.error) result =
  let key = Gofree_api.source_key ~config source in
  match find t.compilations t key with
  | Some e -> Ok (e, true)
  | None -> begin
    match Gofree_api.compile_string ~config source with
    | Error e -> Error e
    | Ok comp ->
      let e = { comp; explain = Atomic.make None } in
      publish t.compilations t key e;
      Ok (e, false)
  end

(** The entry's explain JSON ([gofree-explain-v1]), rendered on first
    use: a resident compilation never changes, so every later explain of
    it is the same document.  Two domains that race on the first use may
    both render it; the first to publish wins, and both answer with the
    published one.  No [Lazy]: forcing one from two domains at once
    raises. *)
let explain (t : t) (e : entry) : Json.t =
  match Atomic.get e.explain with
  | Some j -> j
  | None ->
    let j = Gofree_api.explain_to_json (Gofree_api.explain e.comp) in
    Atomic.incr t.explain_renders;
    if Atomic.compare_and_set e.explain None (Some j) then j
    else Option.get (Atomic.get e.explain)

(** The daemon's two-level unit cache: the resident table first, the
    tree's on-disk [.units] files behind it (disk hits are promoted to
    resident, commits write through to both).  A warm daemon therefore
    replays unchanged units without touching disk, and a cold daemon
    start still inherits the previous process's records. *)
let unit_cache (t : t) ~(disk : Driver.unit_cache) : Driver.unit_cache =
  let rkey pkg key = pkg ^ "\000" ^ key in
  {
    Driver.uc_lookup =
      (fun ~pkg ~key ->
        Mutex.lock t.mutex;
        let resident = Hashtbl.find_opt t.units (rkey pkg key) in
        Mutex.unlock t.mutex;
        match resident with
        | Some _ -> resident
        | None -> begin
          match disk.Driver.uc_lookup ~pkg ~key with
          | Some r ->
            Mutex.lock t.mutex;
            Hashtbl.replace t.units (rkey pkg key) r;
            Mutex.unlock t.mutex;
            Some r
          | None -> None
        end);
    uc_commit =
      (fun ~pkg records ->
        Mutex.lock t.mutex;
        List.iter
          (fun (r : Store.unit_record) ->
            Hashtbl.replace t.units (rkey pkg r.Store.u_key) r)
          records;
        Mutex.unlock t.mutex;
        disk.Driver.uc_commit ~pkg records);
    uc_corrupt = disk.Driver.uc_corrupt;
  }

(** Build the tree at [dir], or return the resident linked result.
    [force] bypasses (and refreshes) both this cache and the on-disk
    summary store. *)
let build (t : t) ~(config : Gofree_api.config) ?cache_dir ~force
    (dir : string) : (Gofree_api.build * bool, Gofree_api.error) result =
  match Gofree_api.tree_key ~config dir with
  | Error e -> Error e
  | Ok key -> begin
    match if force then None else find t.builds t key with
    | Some b -> Ok (b, true)
    | None -> begin
      let disk =
        Driver.disk_unit_cache
          ~dir:
            (match cache_dir with
            | Some d -> d
            | None -> Filename.concat dir ".gofree-cache")
      in
      match
        Gofree_api.build_dir ~config ?cache_dir ~force
          ~unit_cache:(unit_cache t ~disk) dir
      with
      | Error e -> Error e
      | Ok b ->
        let uh, um = Gofree_api.build_unit_counts b in
        Mutex.lock t.mutex;
        t.unit_hits <- t.unit_hits + uh;
        t.unit_misses <- t.unit_misses + um;
        Mutex.unlock t.mutex;
        publish t.builds t key b;
        Ok (b, false)
    end
  end
