(** The GoFree compilation pipeline: source → parse → typecheck →
    escape analysis → tcfree instrumentation.

    [compile] is what [gofreec], the examples, the workload harness and
    the benchmarks all call. *)

open Minigo

type compiled = {
  c_program : Tast.program;  (** instrumented in place *)
  c_analysis : Gofree_escape.Analysis.t;
  c_inserted : Instrument.inserted list;
  c_config : Config.t;
}

exception Compile_error of string

module Trace = Gofree_obs.Trace

(* Phase spans land on the current domain's track, so single-file
   compiles trace on the main track while the build driver's worker
   domains trace on their own. *)
let phase name f = Trace.with_span ~tid:(Trace.domain_tid ()) name f

let parse_and_check (source : string) : Tast.program =
  (* When tracing, run the lexer once on its own so the "lex" phase gets
     a span of its own; the parse span then covers parsing proper.  The
     tokens are discarded — the parser re-lexes internally — which is
     fine: traces are about where time goes, and lexing twice only
     happens while one is being captured. *)
  if Trace.enabled () then
    phase "lex" (fun () ->
        try ignore (Lexer.tokenize source) with _ -> ());
  let ast =
    try phase "parse" (fun () -> Parser.parse source) with
    | Lexer.Error (msg, pos) ->
      raise
        (Compile_error
           (Printf.sprintf "lex error at %s: %s" (Token.string_of_pos pos)
              msg))
    | Parser.Error (msg, pos) ->
      raise
        (Compile_error
           (Printf.sprintf "parse error at %s: %s" (Token.string_of_pos pos)
              msg))
  in
  try phase "typecheck" (fun () -> Typecheck.check ast)
  with Typecheck.Error (msg, pos) ->
    raise
      (Compile_error
         (Printf.sprintf "type error at %s: %s" (Token.string_of_pos pos)
            msg))

(** Escape-analyze an already-typechecked program under [config] —
    the one place the configuration is lowered onto the analysis knobs
    (mode, IPA, backprop, signature).  [unit_lookup] threads through
    to the analysis-unit solver: the build driver passes its
    function-granular cache here. *)
let analyze_program ?(config = Config.gofree) ?(imported = []) ?unit_lookup
    (program : Tast.program) : Gofree_escape.Analysis.t =
  let mode =
    if config.Config.insert_tcfree then Gofree_escape.Propagate.Gofree
    else Gofree_escape.Propagate.Go_base
  in
  (* The escape span covers the whole abstract interpretation: building
     constraint graphs plus the fused completeness/outlived/points-to
     propagation (per-function sub-spans come from Analysis.analyze). *)
  (* Field sensitivity only matters under the full GoFree constraint
     set; in Go_base mode the extra slots would just be dead graph
     nodes. *)
  let field_sensitive =
    config.Config.insert_tcfree
    && config.Config.precision.Config.field_sensitive
  in
  phase "escape" (fun () ->
      Gofree_escape.Analysis.analyze ~mode ~use_ipa:config.Config.ipa
        ~backprop:config.Config.backprop ~field_sensitive ~imported
        ~config_sig:(Config.signature config) ?unit_lookup program)

(** Analyze and instrument an already-typechecked program.  [imported]
    seeds the analysis with stored summaries of other packages (separate
    compilation, §4.4). *)
let compile_program ?(config = Config.gofree) ?(imported = [])
    (program : Tast.program) : compiled =
  let analysis = analyze_program ~config ~imported program in
  let inserted =
    phase "instrument" (fun () ->
        Instrument.instrument analysis config program)
  in
  { c_program = program; c_analysis = analysis; c_inserted = inserted;
    c_config = config }

(** Compile a MiniGo source string under [config]. *)
let compile ?(config = Config.gofree) (source : string) : compiled =
  compile_program ~config (parse_and_check source)

(** Compile with stock-Go settings (no tcfree, Go's base analysis for the
    stack/heap decisions). *)
let compile_go source = compile ~config:Config.go source
