(** Package loader for multi-package MiniGo trees: files at the root are
    package [main]; each subdirectory holding sources is one package,
    imported by its path relative to the root.  Loading reads and
    digests every file but parses only what the caller does not already
    know. *)

open Minigo

exception Error of string

type package = {
  pkg_name : string;  (** package name (= import-path base) *)
  pkg_path : string;  (** import path, relative to the build root *)
  pkg_dir : string;  (** directory on disk *)
  pkg_files : (string * string) list;  (** file name → source, sorted *)
  pkg_digest : string;  (** digest of [pkg_files], names and contents *)
  pkg_imports : Ast.import_decl list;  (** merged imports, in order *)
  pkg_deps : string list;  (** imported package names, sorted, deduped *)
  pkg_file : Ast.file Lazy.t;
      (** all files merged into one; parsed (in a ["parse"] trace span)
          when first forced, which cannot fail for a package whose
          clause came from [known] *)
}

(** [known ~name ~digest]: the package clause and merged imports of a
    package directory whose expected name is [name] and whose files
    digest to [digest], when the caller has them from an earlier parse
    of the same files. *)
type known =
  name:string -> digest:string -> (string * Ast.import_decl list) option

(** Load every package of the tree rooted at the directory, parsing the
    packages [known] (default: none) does not answer for.  Every check
    runs on every package, with the same messages either way.  Raises
    {!Error} on parse errors, a package clause that does not match its
    directory, a missing main package, duplicate package names, or
    imports that do not resolve within the tree. *)
val load : ?known:known -> string -> package list
