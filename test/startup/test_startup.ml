(* This module initialises after every module of gofreec's libraries
   (linked with -linkall, so none is left out).  None of them may force
   a host collection at initialisation: a minor collection forced there,
   and the major slices it starts, are paid by every gofreec process
   before its main program runs. *)
let () =
  let g = Gc.quick_stat () in
  if g.Gc.minor_collections <> 0 then begin
    Printf.eprintf
      "module initialisation made %d minor and %d major host collections\n"
      g.Gc.minor_collections g.Gc.major_collections;
    exit 1
  end
