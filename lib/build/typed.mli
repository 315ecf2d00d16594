(** Typed package records: a package's frontend output at id base 0,
    in a compact binary encoding that restores the program's sharing
    (sites, declared variables, imported globals) when decoded.  The
    store seals each record with a tag digested from this module's and
    the encoded types' sources, so records written by a binary with
    another encoding or other types are a foreign format, never
    decoded. *)

open Minigo

(** What the loader needs of a package without parsing it, and what
    decides whether the record still holds. *)
type header = {
  th_source : string;  (** digest of the package's source files *)
  th_clause : string;  (** the files' package clause *)
  th_imports : Ast.import_decl list;  (** merged imports, in order *)
  th_deps : (string * string) list;
      (** each imported package with the digest of its interface text
          ({!Typecheck.iface_text}): with [th_source], the record's key *)
  th_iface : string;  (** digest of this package's own interface text *)
}

(** The typechecked package, every id relative to a base of 0. *)
type body = {
  tb_program : Tast.program;
  tb_iface : Typecheck.pkg_iface;
      (** its [pi_globals] share the program's global records *)
  tb_counters : Typecheck.counters;  (** ids allocated from base 0 *)
  tb_imported : (string * int * Tast.var) list;
      (** each imported global: its package, its id relative to that
          package's base, and the record the program shares.  A loader
          binds the record again by setting its id. *)
}

val encode : header -> body -> string

(** Where the body starts, once the header is decoded. *)
type cursor

(** Decode the header of the record in [len] bytes of the string from
    [off]. *)
val decode_header :
  string -> off:int -> len:int -> (header * cursor, string) result

val decode_body : cursor -> (body, string) result
