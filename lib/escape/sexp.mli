(** Minimal s-expressions, printed only: the canonical text of a
    function summary, which analysis-unit keys digest.  Atoms containing
    delimiters are printed quoted with the usual backslash escapes. *)

type t = Atom of string | List of t list

val to_string : t -> string
