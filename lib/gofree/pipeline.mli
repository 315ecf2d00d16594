(** The GoFree compilation pipeline: source → parse → typecheck → escape
    analysis → tcfree instrumentation. *)

open Minigo

type compiled = {
  c_program : Tast.program;  (** instrumented in place *)
  c_analysis : Gofree_escape.Analysis.t;
  c_inserted : Instrument.inserted list;
  c_config : Config.t;
}

exception Compile_error of string

(** Parse and typecheck only; wraps lexer/parser/typechecker errors in
    {!Compile_error} with positions. *)
val parse_and_check : string -> Tast.program

(** Escape-analyze an already-typechecked program, lowering [config]
    onto the analysis knobs (mode/IPA/backprop and the configuration
    signature feeding the unit content keys).  [unit_lookup] is the
    function-granular unit cache (see {!Gofree_escape.Analysis.analyze}).
    The build driver uses this entry point and instruments selectively
    (replaying cached units); {!compile_program} is this plus whole-
    program instrumentation. *)
val analyze_program :
  ?config:Config.t ->
  ?imported:Gofree_escape.Summary.t list ->
  ?unit_lookup:
    (key:string -> funcs:string list -> Gofree_escape.Summary.t list option) ->
  Tast.program ->
  Gofree_escape.Analysis.t

(** Analyze and instrument an already-typechecked program.  [imported]
    seeds the escape analysis with the stored summaries of other
    packages, so call sites into them resolve as in a whole-program run
    (separate compilation, §4.4). *)
val compile_program :
  ?config:Config.t ->
  ?imported:Gofree_escape.Summary.t list ->
  Tast.program ->
  compiled

(** Compile a MiniGo source string under [config]
    (default {!Config.gofree}). *)
val compile : ?config:Config.t -> string -> compiled

(** Compile with stock-Go settings (no tcfree). *)
val compile_go : string -> compiled
