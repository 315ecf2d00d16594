(** Minimal s-expressions, printed only: the canonical text of a function
    summary ({!Summary.to_string}), which analysis-unit keys digest.
    Atoms are quoted only when they contain delimiters. *)

type t = Atom of string | List of t list

(* -------------------------------------------------------------- *)
(* Printing                                                        *)
(* -------------------------------------------------------------- *)

let needs_quotes s =
  s = ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' | '\\' -> true
         | _ -> false)
       s

let add_atom buf s =
  if needs_quotes s then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

let rec add_sexp buf = function
  | Atom s -> add_atom buf s
  | List xs ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ' ';
        add_sexp buf x)
      xs;
    Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 256 in
  add_sexp buf t;
  Buffer.contents buf
