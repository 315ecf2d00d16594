(** Import-graph scheduling: Kahn levels (the build's dependency waves),
    cycle detection with a readable witness. *)

exception Cycle of string list

(** Group packages (name → imported names) into dependency waves: every
    package's imports live in strictly earlier waves, names sorted
    within a wave.  Raises {!Cycle} on an import cycle. *)
val waves : (string * string list) list -> string list list

(** Flat topological order (concatenated waves). *)
val topo_order : (string * string list) list -> string list
