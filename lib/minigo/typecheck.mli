(** Name resolution and type checking: lowers the surface {!Ast} to the
    typed {!Tast}, assigning unique variable ids, the scope and loop
    depths the escape analysis needs (Defs 4.3, 4.13), and one allocation
    site per allocating expression. *)

exception Error of string * Token.pos

type func_sig = { sig_params : Types.t list; sig_results : Types.t list }

(** Check a whole program; raises {!Error} on the first problem. *)
val check : Ast.program -> Tast.program

(** The exported interface of a checked package, as seen by its
    importers: package-qualified struct types, function signatures and
    globals.  Visibility is enforced at the reference site (capitalized
    = exported, as in Go), so the interface lists every top-level
    declaration. *)
type pkg_iface = {
  pi_pkg : string;
  pi_structs : (string * (string * Types.t) list) list;
  pi_funcs : (string * func_sig) list;
  pi_globals : (string * Tast.var) list;
}

(** Final id-counter values after checking a package; feed them as the
    [first_*] bases of the next package so ids stay globally unique. *)
type counters = { c_next_var : int; c_next_scope : int; c_next_site : int }

(** The interface of a checked package: its name, its struct types
    ([structs], qualified, in declaration order), every function's
    signature and every global, in declaration order. *)
val iface_of_program :
  pkg:string -> structs:string list -> Tast.program -> pkg_iface

(** Canonical text of an interface: everything an importer's typecheck
    reads from it (struct fields, signatures, each global's type and
    id), one declaration per line in declaration order.  Equal
    interfaces give equal text, so its digest keys the importers' typed
    records.  Take it of a package checked at id base 0, so the ids are
    package-relative. *)
val iface_text : pkg_iface -> string

(** Check one package against the interfaces of its imports.

    Top-level names are qualified as [pkg.name] — except in package
    [main], whose names stay plain so the interpreter entry point and
    whole-program compiles coincide.  [first_var] / [first_scope] /
    [first_site] seed the id counters so several packages can be checked
    in sequence and linked without renumbering: pass the previous
    package's final counts ([p_nvars], …).  Raises {!Error} on the first
    problem, including references to unexported (lower-case) members of
    an imported package. *)
val check_package :
  ?imports:pkg_iface list ->
  ?first_var:int ->
  ?first_scope:int ->
  ?first_site:int ->
  Ast.file ->
  Tast.program * pkg_iface * counters
