(* Print an OCaml module binding [tag] to a digest of the contents of
   the files named on the command line. *)
let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let digests = List.map (fun f -> Digest.to_hex (Digest.file f)) files in
  Printf.printf "let tag = %S\n"
    (Digest.to_hex (Digest.string (String.concat "\n" digests)))
