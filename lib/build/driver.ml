(** The incremental multi-package build driver.

    Pipeline, per build:
    + load the tree ({!Loader}): list, read and digest every package's
      files, read the typed records ({!Store.load_typed}), and parse only
      the packages whose source digest no record matches — the others
      take their package clause and imports from their record;
    + schedule the packages into dependency waves ({!Pkg_graph});
    + frontend, in topological order: a package whose record's key (its
      source digest and its imports' interface digests) still holds is
      decoded from the record; any other is parsed if it was not yet and
      typechecked.  Either way the package is at id base 0, and
      {!Tast.relocate} shifts it to the next free variable, scope and
      site ids, so ids stay globally unique and the packages link
      without renumbering;
    + for each package, compute its content-hash key; on a cache hit
      ({!Store}) skip the escape analysis entirely and replay the
      recorded tcfree insertions, otherwise analyze the package against
      its dependencies' {e stored summaries} (paper §4.4: a callee's
      extended parameter tag is all a caller needs); within a package
      the analysis solves call-graph SCC units bottom-up;
    + on a package-level miss, consult the {e function-granular} unit
      cache: units whose content key (bodies ⊕ callee summary contents ⊕
      config) is unchanged replay their recorded insertions and
      decisions instead of re-analyzing, so one edited function
      re-solves only its own SCC plus the units whose callee-summary
      contents actually changed;
    + link everything into one {!Tast.program} plus the runtime's
      stack/heap and boxing decision arrays, and write the typed records
      back if any was rebuilt.

    The import graph is acyclic, so per-package analysis seeded with
    callee summaries computes exactly what the whole-program SCC order
    would: insertion sites and runtime metrics match a single-file
    compile of the same declarations — cached or not. *)

open Minigo
module E = Gofree_escape
module Core = Gofree_core

exception Error of string

module Trace = Gofree_obs.Trace
module Json = Gofree_obs.Json

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type pkg_report = {
  pr_name : string;
  pr_wave : int;  (** dependency wave the package was scheduled in *)
  pr_typed : bool;  (** parse and typecheck skipped: typed record hit *)
  pr_cached : bool;  (** analysis skipped, summaries came from the store *)
  pr_ms : float;  (** analysis time; 0 for cache hits *)
  pr_nfuncs : int;
  pr_nsummaries : int;
  pr_units : int;  (** analysis units (call-graph SCCs); 0 on pkg hits *)
  pr_unit_hits : int;  (** units replayed from the unit cache *)
}

type stats = {
  bs_pkgs : pkg_report list;  (** topological order *)
  bs_hits : int;
  bs_misses : int;
  bs_unit_hits : int;  (** units replayed instead of re-analyzed *)
  bs_unit_misses : int;  (** units actually analyzed *)
  bs_frontend_hits : int;  (** packages taken from their typed records *)
  bs_frontend_misses : int;  (** packages parsed and typechecked *)
  bs_corrupt : int;  (** corrupt cache records met (each one a miss) *)
  bs_total_ms : float;
}

type result = {
  b_program : Tast.program;  (** linked and instrumented *)
  b_inserted : Core.Instrument.inserted list;
  b_site_heap : bool array;  (** indexed by absolute site id *)
  b_var_boxed : bool array;  (** indexed by absolute variable id *)
  b_stats : stats;
}

let now_ms () = Unix.gettimeofday () *. 1000.

(* ------------------------------------------------------------------ *)
(* Function-granular unit cache                                        *)
(* ------------------------------------------------------------------ *)

(** Where unit records live between builds.  The driver only ever asks
    two things: a record by (package, content key) and "here is the
    package's complete current record set".  The daemon layers its
    resident table over the disk implementation through this same
    interface. *)
type unit_cache = {
  uc_lookup : pkg:string -> key:string -> Store.unit_record option;
  uc_commit : pkg:string -> Store.unit_record list -> unit;
  uc_corrupt : unit -> int;  (** corrupt record files met so far *)
}

(** Always misses, never stores: a build with package-level caching
    only (what the driver did before unit records existed). *)
let no_unit_cache =
  {
    uc_lookup = (fun ~pkg:_ ~key:_ -> None);
    uc_commit = (fun ~pkg:_ _ -> ());
    uc_corrupt = (fun () -> 0);
  }

(** The on-disk unit cache: [<dir>/<pkg>.units], loaded lazily once per
    package and replaced wholesale on commit.  Thread-safe, so one
    instance can serve builds running on several threads. *)
let disk_unit_cache ~dir : unit_cache =
  let mutex = Mutex.create () in
  let corrupt = ref 0 in
  let loaded : (string, (string, Store.unit_record) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let table pkg =
    match Hashtbl.find_opt loaded pkg with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 16 in
      (match
         Store.load_units ~on_corrupt:(fun () -> incr corrupt) ~dir ~pkg ()
       with
      | Some records ->
        List.iter (fun (r : Store.unit_record) ->
            Hashtbl.replace t r.Store.u_key r)
          records
      | None -> ());
      Hashtbl.replace loaded pkg t;
      t
  in
  {
    uc_lookup =
      (fun ~pkg ~key ->
        Mutex.lock mutex;
        let r = Hashtbl.find_opt (table pkg) key in
        Mutex.unlock mutex;
        r);
    uc_commit =
      (fun ~pkg records ->
        Mutex.lock mutex;
        let t = Hashtbl.create 16 in
        List.iter
          (fun (r : Store.unit_record) -> Hashtbl.replace t r.Store.u_key r)
          records;
        (* records are content-addressed by key, so the key set loaded
           from the file names its contents: the same set is not
           rewritten (a body edit upstream re-analyzes every dependent,
           whose units all hit).  An empty table may stand for a
           missing or corrupt file, which is always written. *)
        let unchanged =
          match Hashtbl.find_opt loaded pkg with
          | Some old ->
            Hashtbl.length old > 0
            && Hashtbl.length old = Hashtbl.length t
            && Hashtbl.fold (fun k _ same -> same && Hashtbl.mem old k) t true
          | None -> false
        in
        Hashtbl.replace loaded pkg t;
        (if not unchanged then
           try Store.save_units ~dir ~pkg records with Sys_error _ -> ());
        Mutex.unlock mutex);
    uc_corrupt =
      (fun () ->
        Mutex.lock mutex;
        let n = !corrupt in
        Mutex.unlock mutex;
        n);
  }

(* ------------------------------------------------------------------ *)
(* Per-package analysis                                                *)
(* ------------------------------------------------------------------ *)

type pkg_outcome = {
  po_entry : Store.entry;
  po_inserted : Core.Instrument.inserted list;
  po_records : Store.unit_record list;  (** complete set, unit order *)
  po_units : int;
  po_unit_hits : int;
  po_ms : float;
}

(* First variable id of each function (over params and every declaration)
   and first site id of each function: the bases the unit records'
   function-relative ids are stored against.  Stable per function as
   long as its body is unchanged — which the unit's body hash
   guarantees — even when other functions in the package change size. *)
let func_bases (tp : Tast.program) =
  let min_var = Hashtbl.create 16 in
  List.iter
    (fun (f : Tast.func) ->
      match Core.Instrument.func_vars f with
      | [] -> ()
      | vars ->
        Hashtbl.replace min_var f.Tast.f_name
          (List.fold_left
             (fun acc (v : Tast.var) -> min acc v.Tast.v_id)
             max_int vars))
    tp.Tast.p_funcs;
  let min_site = Hashtbl.create 16 in
  List.iter
    (fun (s : Tast.alloc_site) ->
      match Hashtbl.find_opt min_site s.Tast.site_func with
      | Some m when m <= s.Tast.site_id -> ()
      | _ -> Hashtbl.replace min_site s.Tast.site_func s.Tast.site_id)
    tp.Tast.p_sites;
  (min_var, min_site)

(* Analyze one package against its dependencies' summaries and compress
   the outcome into a store entry plus per-unit records. *)
let analyze_package ~config ~key ~name ~base_var ~nvars ~nsites ~imported
    ~(lookup : pkg:string -> key:string -> Store.unit_record option)
    (tp : Tast.program) : pkg_outcome =
  let t0 = now_ms () in
  let min_var, min_site = func_bases tp in
  let var_base fn = Hashtbl.find min_var fn in
  let site_base fn = Hashtbl.find min_site fn in
  (* Records whose key matched this run, stashed at lookup time so the
     assembly below can replay them. *)
  let hit_records : (string, Store.unit_record) Hashtbl.t =
    Hashtbl.create 8
  in
  let unit_lookup ~key:ukey ~funcs =
    match lookup ~pkg:name ~key:ukey with
    | Some r when r.Store.u_funcs = funcs ->
      Hashtbl.replace hit_records ukey r;
      if Trace.enabled () then
        Trace.instant
          ~args:
            [ ("pkg", Json.Str name);
              ("funcs", Json.Str (String.concat "," funcs)) ]
          ~tid:(Trace.domain_tid ()) "unit hit";
      Some r.Store.u_summaries
    | _ ->
      if Trace.enabled () then
        Trace.instant
          ~args:
            [ ("pkg", Json.Str name);
              ("funcs", Json.Str (String.concat "," funcs)) ]
          ~tid:(Trace.domain_tid ()) "unit miss";
      None
  in
  let analysis =
    Core.Pipeline.analyze_program ~config ~imported ~unit_lookup tp
  in
  (* Which functions came out of the unit cache (no func_result). *)
  let cached_func : (string, Store.unit_record) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (ur : E.Analysis.unit_report) ->
      if ur.E.Analysis.ur_cached then begin
        let r = Hashtbl.find hit_records ur.E.Analysis.ur_key in
        List.iter
          (fun fn -> Hashtbl.replace cached_func fn r)
          ur.E.Analysis.ur_funcs
      end)
    analysis.E.Analysis.units;
  (* Instrument in declaration order: analyzed functions run the real
     instrumentation, cached ones replay their recorded frees shifted
     onto this build's id base — same placement rules, same result. *)
  let inserted_by_func : (string, Core.Instrument.inserted list) Hashtbl.t =
    Hashtbl.create 16
  in
  let inserted =
    Trace.with_span ~tid:(Trace.domain_tid ()) "instrument" (fun () ->
        List.concat_map
          (fun (f : Tast.func) ->
            let fn = f.Tast.f_name in
            let ins =
              match Hashtbl.find_opt cached_func fn with
              | Some r ->
                let frees =
                  List.filter_map
                    (fun (func, rel, fidx, kind) ->
                      if func = fn then Some (var_base fn + rel, fidx, kind)
                      else None)
                    r.Store.u_frees
                in
                if frees = [] then []
                else
                  Core.Instrument.replay_function ~tenv:tp.Tast.p_tenv
                    ~config f frees
              | None ->
                Core.Instrument.instrument_function ~tenv:tp.Tast.p_tenv
                  analysis config f
            in
            Hashtbl.replace inserted_by_func fn ins;
            ins)
          tp.Tast.p_funcs)
  in
  let own_summaries =
    List.filter_map
      (fun (f : Tast.func) ->
        Hashtbl.find_opt analysis.E.Analysis.summaries f.Tast.f_name)
      tp.Tast.p_funcs
  in
  let frees =
    List.map
      (fun (i : Core.Instrument.inserted) ->
        ( i.Core.Instrument.ins_func,
          i.Core.Instrument.ins_var.Tast.v_id - base_var,
          (match i.Core.Instrument.ins_field with
          | Some (idx, _) -> idx
          | None -> -1),
          i.Core.Instrument.ins_kind ))
      inserted
  in
  let site_heap =
    List.map
      (fun (s : Tast.alloc_site) ->
        match Hashtbl.find_opt cached_func s.Tast.site_func with
        | Some r -> begin
          let fn = s.Tast.site_func in
          let rel = s.Tast.site_id - site_base fn in
          match
            List.find_opt
              (fun (func, r2, _) -> func = fn && r2 = rel)
              r.Store.u_sites
          with
          | Some (_, _, heap) -> heap
          | None -> true  (* unknown to the record: stay conservative *)
        end
        | None -> E.Analysis.site_is_heap analysis ~func:s.Tast.site_func s)
      tp.Tast.p_sites
  in
  (* Boxed variables, package-relative: analyzed functions from the live
     graphs, cached ones from their records. *)
  let boxed = ref [] in
  Hashtbl.iter
    (fun _ (fr : E.Analysis.func_result) ->
      Hashtbl.iter
        (fun var_id (l : E.Loc.t) ->
          match l.E.Loc.kind with
          | E.Loc.Kvar v
            when v.Tast.v_kind <> Tast.Vglobal && l.E.Loc.heap_alloc ->
            let rel = var_id - base_var in
            if rel >= 0 && rel < nvars then boxed := rel :: !boxed
          | _ -> ())
        fr.E.Analysis.fr_ctx.E.Build.var_locs)
    analysis.E.Analysis.funcs;
  Hashtbl.iter
    (fun fn (r : Store.unit_record) ->
      List.iter
        (fun (func, rel) ->
          if func = fn then
            boxed := (var_base fn + rel - base_var) :: !boxed)
        r.Store.u_boxed)
    cached_func;
  let entry =
    {
      Store.e_pkg = name;
      e_key = key;
      e_nvars = nvars;
      e_nsites = nsites;
      e_summaries = own_summaries;
      e_frees = frees;
      e_site_heap = site_heap;
      e_var_boxed = List.sort_uniq compare !boxed;
    }
  in
  (* Unit records: hits pass through unchanged, misses are compressed
     from the fresh analysis — together the package's complete set. *)
  let records =
    List.map
      (fun (ur : E.Analysis.unit_report) ->
        if ur.E.Analysis.ur_cached then
          Hashtbl.find hit_records ur.E.Analysis.ur_key
        else begin
          let funcs = ur.E.Analysis.ur_funcs in
          let u_summaries =
            List.filter_map
              (fun fn -> Hashtbl.find_opt analysis.E.Analysis.summaries fn)
              funcs
          in
          let u_frees =
            List.concat_map
              (fun fn ->
                List.map
                  (fun (i : Core.Instrument.inserted) ->
                    ( fn,
                      i.Core.Instrument.ins_var.Tast.v_id - var_base fn,
                      (match i.Core.Instrument.ins_field with
                      | Some (idx, _) -> idx
                      | None -> -1),
                      i.Core.Instrument.ins_kind ))
                  (try Hashtbl.find inserted_by_func fn
                   with Not_found -> []))
              funcs
          in
          let u_sites =
            List.filter_map
              (fun (s : Tast.alloc_site) ->
                let fn = s.Tast.site_func in
                if List.mem fn funcs then
                  Some
                    ( fn,
                      s.Tast.site_id - site_base fn,
                      E.Analysis.site_is_heap analysis ~func:fn s )
                else None)
              tp.Tast.p_sites
          in
          let u_boxed =
            List.concat_map
              (fun fn ->
                match Hashtbl.find_opt analysis.E.Analysis.funcs fn with
                | None -> []
                | Some fr ->
                  let acc = ref [] in
                  Hashtbl.iter
                    (fun var_id (l : E.Loc.t) ->
                      match l.E.Loc.kind with
                      | E.Loc.Kvar v
                        when v.Tast.v_kind <> Tast.Vglobal
                             && l.E.Loc.heap_alloc ->
                        acc := (fn, var_id - var_base fn) :: !acc
                      | _ -> ())
                    fr.E.Analysis.fr_ctx.E.Build.var_locs;
                  List.sort_uniq compare !acc)
              funcs
          in
          { Store.u_key = ur.E.Analysis.ur_key; u_funcs = funcs;
            u_summaries; u_frees; u_sites; u_boxed }
        end)
      analysis.E.Analysis.units
  in
  let unit_hits =
    List.length
      (List.filter
         (fun (ur : E.Analysis.unit_report) -> ur.E.Analysis.ur_cached)
         analysis.E.Analysis.units)
  in
  {
    po_entry = entry;
    po_inserted = inserted;
    po_records = records;
    po_units = List.length analysis.E.Analysis.units;
    po_unit_hits = unit_hits;
    po_ms = now_ms () -. t0;
  }

(** Build the multi-package tree rooted at [root].  [force] ignores all
    three cache levels (typed records, package entries and unit
    records) while still refreshing them.  [unit_cache] defaults to the
    on-disk cache under [cache_dir]; pass {!no_unit_cache} for
    package-level caching only.  Raises {!Error} (or {!Loader.Error}) on
    build problems. *)
let build ?(config = Core.Config.gofree) ?cache_dir ?(force = false)
    ?unit_cache (root : string) : result =
  let t_start = now_ms () in
  let cache_dir =
    match cache_dir with
    | Some d -> d
    | None -> Filename.concat root ".gofree-cache"
  in
  let corrupt = ref 0 in
  let on_corrupt () = incr corrupt in
  (* Typed records whose source digest matches the package's files, by
     package name: the loader takes clause and imports from them instead
     of parsing. *)
  let typed = Hashtbl.create 8 in
  let pkgs, stored =
    Trace.with_span ~tid:(Trace.domain_tid ()) "load" (fun () ->
        let stored =
          if force then Hashtbl.create 1
          else Store.load_typed ~on_corrupt ~dir:cache_dir ()
        in
        let known ~name ~digest =
          match Hashtbl.find_opt stored name with
          | Some (r : Store.typed_record)
            when r.Store.tr_header.Typed.th_source = digest -> begin
            match r.Store.tr_body () with
            | Some b ->
              Hashtbl.replace typed name (r, b);
              Some
                (r.Store.tr_header.Typed.th_clause,
                 r.Store.tr_header.Typed.th_imports)
            | None -> None
          end
          | Some _ | None -> None
        in
        (Loader.load ~known root, stored))
  in
  let unit_cache =
    match unit_cache with
    | Some uc -> uc
    | None -> disk_unit_cache ~dir:cache_dir
  in
  (* force = cold: no lookups on either level, but commits still refresh
     both caches for the next build. *)
  let lookup =
    if force then fun ~pkg:_ ~key:_ -> None else unit_cache.uc_lookup
  in
  let wave_list =
    try
      Pkg_graph.waves
        (List.map (fun p -> (p.Loader.pkg_name, p.Loader.pkg_deps)) pkgs)
    with Pkg_graph.Cycle c ->
      fail "import cycle: %s" (String.concat " -> " c)
  in
  let order = List.concat wave_list in
  let by_name = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace by_name p.Loader.pkg_name p) pkgs;
  let pkg name = Hashtbl.find by_name name in
  (* -------- frontend, in topological order -------- *)
  (* Each package is typechecked (or taken from its typed record) at id
     base 0, then relocated to the next free ids, so ids stay globally
     unique and the packages link without renumbering. *)
  let ifaces = Hashtbl.create 8 in  (* name -> (iface, its digest) *)
  let tprogs = Hashtbl.create 8 in
  let bases = Hashtbl.create 8 in  (* name -> (base_var, base_site) *)
  let owned = Hashtbl.create 8 in  (* name -> (nvars, nsites) *)
  let typed_hits = Hashtbl.create 8 in
  let records = Hashtbl.create 8 in  (* name -> record bytes to store *)
  let next = ref (0, 0, 0) in
  List.iter
    (fun name ->
      let p = pkg name in
      let first_var, first_scope, first_site = !next in
      let deps =
        List.map (fun d -> (d, snd (Hashtbl.find ifaces d))) p.Loader.pkg_deps
      in
      let tp, iface, iface_digest, (c : Typecheck.counters) =
        match Hashtbl.find_opt typed name with
        | Some ((r : Store.typed_record), b)
          when r.Store.tr_header.Typed.th_deps = deps ->
          (* rebind the imported globals the stored program names *)
          List.iter
            (fun (d, rel, (v : Tast.var)) ->
              v.Tast.v_id <- fst (Hashtbl.find bases d) + rel)
            b.Typed.tb_imported;
          Hashtbl.replace typed_hits name ();
          Hashtbl.replace records name r.Store.tr_bytes;
          (b.Typed.tb_program, b.Typed.tb_iface,
           r.Store.tr_header.Typed.th_iface, b.Typed.tb_counters)
        | _ ->
          let file = Lazy.force p.Loader.pkg_file in
          Trace.with_span ~tid:(Trace.domain_tid ()) ("typecheck:" ^ name)
            (fun () ->
              let imports =
                List.map (fun d -> fst (Hashtbl.find ifaces d))
                  p.Loader.pkg_deps
              in
              let tp, iface, c =
                try Typecheck.check_package ~imports file
                with Typecheck.Error (m, pos) ->
                  fail "package %s: type error at %s: %s" name
                    (Token.string_of_pos pos) m
              in
              let iface_digest =
                Digest.to_hex
                  (Digest.string (Typecheck.iface_text iface))
              in
              let imported =
                List.concat_map
                  (fun (i : Typecheck.pkg_iface) ->
                    let base = fst (Hashtbl.find bases i.Typecheck.pi_pkg) in
                    List.map
                      (fun (_, (v : Tast.var)) ->
                        (i.Typecheck.pi_pkg, v.Tast.v_id - base, v))
                      i.Typecheck.pi_globals)
                  imports
              in
              Hashtbl.replace records name
                (Store.slice @@ Typed.encode
                   {
                     Typed.th_source = p.Loader.pkg_digest;
                     th_clause = name;
                     th_imports = p.Loader.pkg_imports;
                     th_deps = deps;
                     th_iface = iface_digest;
                   }
                   {
                     Typed.tb_program = tp;
                     tb_iface = iface;
                     tb_counters = c;
                     tb_imported = imported;
                   });
              (tp, iface, iface_digest, c))
      in
      Tast.relocate tp ~var:first_var ~scope:first_scope ~site:first_site;
      Hashtbl.replace ifaces name (iface, iface_digest);
      Hashtbl.replace tprogs name tp;
      Hashtbl.replace bases name (first_var, first_site);
      Hashtbl.replace owned name
        (c.Typecheck.c_next_var, c.Typecheck.c_next_site);
      next :=
        ( first_var + c.Typecheck.c_next_var,
          first_scope + c.Typecheck.c_next_scope,
          first_site + c.Typecheck.c_next_site ))
    order;
  let total_vars, _, total_sites = !next in
  (* -------- cache keys (dep keys feed in: transitive invalidation) --- *)
  let keys = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let p = pkg name in
      let dep_keys = List.map (Hashtbl.find keys) p.Loader.pkg_deps in
      Hashtbl.replace keys name
        (Store.key ~sources:p.Loader.pkg_files ~dep_keys ~config))
    order;
  let cached = Hashtbl.create 8 in
  if not force then
    List.iter
      (fun name ->
        match Store.load ~on_corrupt ~dir:cache_dir ~pkg:name () with
        | Some e
          when e.Store.e_key = Hashtbl.find keys name
               && (let nv, ns = Hashtbl.find owned name in
                   e.Store.e_nvars = nv && e.Store.e_nsites = ns) ->
          Hashtbl.replace cached name e
        | _ -> ())
      order;
  (* -------- per-wave analysis -------- *)
  let entries = Hashtbl.create 8 in
  let inserted = Hashtbl.create 8 in
  let times = Hashtbl.create 8 in
  let unit_counts = Hashtbl.create 8 in  (* name -> (units, unit hits) *)
  let wave_of = Hashtbl.create 8 in
  List.iteri
    (fun wave_idx wave ->
      List.iter (fun n -> Hashtbl.replace wave_of n wave_idx) wave;
      let hits, misses = List.partition (Hashtbl.mem cached) wave in
      if Trace.enabled () then begin
        Trace.begin_span
          ~args:
            [
              ("packages", Json.Int (List.length wave));
              ("hits", Json.Int (List.length hits));
              ("misses", Json.Int (List.length misses));
            ]
          ~tid:(Trace.domain_tid ())
          (Printf.sprintf "wave %d" wave_idx);
        List.iter
          (fun n ->
            Trace.instant
              ~args:[ ("pkg", Json.Str n) ]
              ~tid:(Trace.domain_tid ()) "cache hit")
          hits;
        List.iter
          (fun n ->
            Trace.instant
              ~args:[ ("pkg", Json.Str n) ]
              ~tid:(Trace.domain_tid ()) "cache miss")
          misses
      end;
      (* Cache hits: no analysis; re-apply the recorded frees to the
         fresh bodies, shifting stored relative ids onto this build's
         id base. *)
      List.iter
        (fun name ->
          let e = Hashtbl.find cached name in
          let tp = Hashtbl.find tprogs name in
          let base_var, _ = Hashtbl.find bases name in
          let ins =
            List.concat_map
              (fun (f : Tast.func) ->
                let frees =
                  List.filter_map
                    (fun (fn, rel, fidx, kind) ->
                      if fn = f.Tast.f_name then
                        Some (base_var + rel, fidx, kind)
                      else None)
                    e.Store.e_frees
                in
                if frees = [] then []
                else
                  Core.Instrument.replay_function ~tenv:tp.Tast.p_tenv
                    ~config f frees)
              tp.Tast.p_funcs
          in
          Hashtbl.replace entries name e;
          Hashtbl.replace inserted name ins;
          Hashtbl.replace times name 0.;
          Hashtbl.replace unit_counts name (0, 0))
        hits;
      (* Misses: analyze against the dependencies' entries, which earlier
         waves have all produced, then commit both cache levels.  Writing
         after the wave's analyses, not after each package's, measured
         about 2 ms faster on a forced 32-package build. *)
      let results =
        List.map
          (fun name ->
            let p = pkg name in
            let imported =
              List.concat_map
                (fun d -> (Hashtbl.find entries d).Store.e_summaries)
                p.Loader.pkg_deps
            in
            let base_var, _ = Hashtbl.find bases name in
            let nvars, nsites = Hashtbl.find owned name in
            Trace.with_span ~tid:(Trace.domain_tid ()) ("analyze:" ^ name)
              (fun () ->
                ( name,
                  analyze_package ~config ~key:(Hashtbl.find keys name) ~name
                    ~base_var ~nvars ~nsites ~imported ~lookup
                    (Hashtbl.find tprogs name) )))
          misses
      in
      List.iter
        (fun (name, o) ->
          Store.save ~dir:cache_dir o.po_entry;
          unit_cache.uc_commit ~pkg:name o.po_records;
          Hashtbl.replace entries name o.po_entry;
          Hashtbl.replace inserted name o.po_inserted;
          Hashtbl.replace times name o.po_ms;
          Hashtbl.replace unit_counts name (o.po_units, o.po_unit_hits))
        results;
      Trace.end_span ~tid:(Trace.domain_tid ())
        (Printf.sprintf "wave %d" wave_idx))
    wave_list;
  (* -------- link -------- *)
  Trace.begin_span ~tid:(Trace.domain_tid ()) "link";
  (* Persist the typed records when one was rebuilt or the tree's
     package set changed; unchanged records are written back as read. *)
  if
    Hashtbl.length typed_hits < List.length order
    || Hashtbl.length stored <> List.length order
  then begin
    try
      Store.save_typed ~dir:cache_dir
        (List.map (fun n -> (n, Hashtbl.find records n)) order)
    with Sys_error _ -> ()
  end;
  let tenv = Types.create_env () in
  List.iter
    (fun name ->
      let tp = Hashtbl.find tprogs name in
      Hashtbl.iter
        (fun n fields -> Types.add_struct tenv n fields)
        tp.Tast.p_tenv.Types.structs)
    order;
  let linked =
    {
      Tast.p_funcs =
        List.concat_map (fun n -> (Hashtbl.find tprogs n).Tast.p_funcs) order;
      p_globals =
        List.concat_map
          (fun n -> (Hashtbl.find tprogs n).Tast.p_globals)
          order;
      p_tenv = tenv;
      p_sites =
        List.concat_map (fun n -> (Hashtbl.find tprogs n).Tast.p_sites) order;
      p_nvars = total_vars;
    }
  in
  (* Instrumentation temporaries (field frees, hoisted returns) carry
     placeholder ids until the whole program is assembled; renumber
     them now, in program order, so ids are deterministic however the
     per-package instrumentation was scheduled.  Grows [p_nvars]. *)
  Core.Instrument.assign_temp_ids linked;
  let site_heap = Array.make (max 1 total_sites) false in
  let var_boxed = Array.make (max 1 linked.Tast.p_nvars) false in
  List.iter
    (fun name ->
      let e = Hashtbl.find entries name in
      let base_var, base_site = Hashtbl.find bases name in
      List.iteri
        (fun i b -> if b then site_heap.(base_site + i) <- true)
        e.Store.e_site_heap;
      List.iter (fun rel -> var_boxed.(base_var + rel) <- true)
        e.Store.e_var_boxed)
    order;
  Trace.end_span ~tid:(Trace.domain_tid ()) "link";
  let reports =
    List.map
      (fun name ->
        let units, unit_hits = Hashtbl.find unit_counts name in
        {
          pr_name = name;
          pr_wave = Hashtbl.find wave_of name;
          pr_typed = Hashtbl.mem typed_hits name;
          pr_cached = Hashtbl.mem cached name;
          pr_ms = Hashtbl.find times name;
          pr_nfuncs =
            List.length (Hashtbl.find tprogs name).Tast.p_funcs;
          pr_nsummaries =
            List.length (Hashtbl.find entries name).Store.e_summaries;
          pr_units = units;
          pr_unit_hits = unit_hits;
        })
      order
  in
  let hits = List.length (List.filter (fun r -> r.pr_cached) reports) in
  let typed_hits = Hashtbl.length typed_hits in
  let unit_hits =
    List.fold_left (fun acc r -> acc + r.pr_unit_hits) 0 reports
  in
  let unit_misses =
    List.fold_left (fun acc r -> acc + (r.pr_units - r.pr_unit_hits)) 0
      reports
  in
  {
    b_program = linked;
    b_inserted = List.concat_map (fun n -> Hashtbl.find inserted n) order;
    b_site_heap = site_heap;
    b_var_boxed = var_boxed;
    b_stats =
      {
        bs_pkgs = reports;
        bs_hits = hits;
        bs_misses = List.length reports - hits;
        bs_unit_hits = unit_hits;
        bs_unit_misses = unit_misses;
        bs_frontend_hits = typed_hits;
        bs_frontend_misses = List.length reports - typed_hits;
        bs_corrupt = !corrupt + unit_cache.uc_corrupt ();
        bs_total_ms = now_ms () -. t_start;
      };
  }

let pp_stats fmt (st : stats) =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-16s wave %d  %s  %3d func(s)  %d summarie(s)%s%s@,"
        r.pr_name r.pr_wave
        (if r.pr_cached then "cached  " else
           Printf.sprintf "%6.1fms" r.pr_ms)
        r.pr_nfuncs r.pr_nsummaries
        (if r.pr_cached then "  [cache hit]"
         else
           Printf.sprintf "  [%d/%d unit(s) cached]" r.pr_unit_hits
             r.pr_units)
        (if r.pr_typed then "  [typed hit]" else ""))
    st.bs_pkgs;
  Format.fprintf fmt
    "packages: %d  typed hits: %d  cache hits: %d  analyzed: %d  unit \
     hits: %d  units analyzed: %d  corrupt records: %d  total: %.1fms@]"
    (List.length st.bs_pkgs) st.bs_frontend_hits st.bs_hits st.bs_misses
    st.bs_unit_hits st.bs_unit_misses st.bs_corrupt st.bs_total_ms

(** Build statistics as JSON (schema [gofree-build-stats-v1]) — the
    payload of [gofreec build --stats-json]. *)
let stats_to_json (st : stats) : Json.t =
  Json.Obj
    [
      Gofree_obs.Schema.(field Build_stats);
      ( "packages",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.pr_name);
                   ("wave", Json.Int r.pr_wave);
                   ("typed", Json.Bool r.pr_typed);
                   ("cached", Json.Bool r.pr_cached);
                   ("analysis_ms", Json.Float r.pr_ms);
                   ("funcs", Json.Int r.pr_nfuncs);
                   ("summaries", Json.Int r.pr_nsummaries);
                   ("units", Json.Int r.pr_units);
                   ("unit_hits", Json.Int r.pr_unit_hits);
                 ])
             st.bs_pkgs) );
      ("cache_hits", Json.Int st.bs_hits);
      ("cache_misses", Json.Int st.bs_misses);
      ("unit_hits", Json.Int st.bs_unit_hits);
      ("units_analyzed", Json.Int st.bs_unit_misses);
      ("frontend_hits", Json.Int st.bs_frontend_hits);
      ("frontend_misses", Json.Int st.bs_frontend_misses);
      ("corrupt_records", Json.Int st.bs_corrupt);
      ("total_ms", Json.Float st.bs_total_ms);
    ]
