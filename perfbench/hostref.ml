(* Host-speed reference for perfbench: a fixed amount of allocation-heavy
   OCaml work (balanced-tree maps, short-lived arrays, a hash table) that
   never touches gofreec's code.  Timed as a whole process, like a
   gofreec run, it slows down with the host by about the same factor.

   usage: hostref ROUNDS *)

module M = Map.Make (Int)

let () =
  let rounds = int_of_string Sys.argv.(1) in
  let acc = ref 0 in
  let tbl = Hashtbl.create 1024 in
  for r = 1 to rounds do
    let m = ref M.empty in
    for i = 0 to 999 do
      m := M.add ((i * 7919) + r) i !m
    done;
    let arrays = List.init 400 (fun i -> Array.make 16 (i + r)) in
    for i = 0 to 499 do
      Hashtbl.replace tbl (i + (r land 255)) r
    done;
    acc :=
      (!acc + M.cardinal !m + Hashtbl.length tbl
      + List.fold_left (fun s a -> s + a.(15)) 0 arrays)
      land 0xFFFFFF
  done;
  print_int !acc;
  print_newline ()
