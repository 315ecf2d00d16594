(** Compact binary records: the one encoding of everything the build
    cache stores — summaries ({!Summary.write}), the [.sum] and [.units]
    records and the typed package records.

    Integers are zigzag varints, so small and negative values take one
    byte.  A string's first occurrence is written inline (index, length,
    bytes) and later ones by index alone.  A writer and a reader each
    carry one extra component of the caller's choosing ([wx], [rx]) for
    the tables of its own record kind.  A reader raises {!Malformed} on
    bytes no writer makes, and [Invalid_argument] past the end of its
    string; {!decode} turns both into an [Error]. *)

module Strings = Hashtbl.Make (String)

type 'x w = { buf : Buffer.t; strings : int Strings.t; wx : 'x }

let writer ?(size = 256) wx =
  { buf = Buffer.create size; strings = Strings.create 64; wx }

let contents w = Buffer.contents w.buf

let w_int w n =
  let z = ref ((n lsl 1) lxor (n asr 62)) in
  while !z < 0 || !z >= 0x80 do
    Buffer.add_char w.buf (Char.unsafe_chr (!z land 0x7f lor 0x80));
    z := !z lsr 7
  done;
  Buffer.add_char w.buf (Char.unsafe_chr !z)

let w_bool w b = w_int w (if b then 1 else 0)

let w_str w s =
  match Strings.find_opt w.strings s with
  | Some i -> w_int w i
  | None ->
    let i = Strings.length w.strings in
    Strings.replace w.strings s i;
    w_int w i;
    w_int w (String.length s);
    Buffer.add_string w.buf s

let w_list w f xs =
  w_int w (List.length xs);
  List.iter (f w) xs

let w_opt w f = function
  | None -> w_int w 0
  | Some x ->
    w_int w 1;
    f w x

type 'x r = {
  s : string;
  stop : int;  (** end of the record within [s] *)
  mutable i : int;
  mutable strs : string array;
  mutable nstrs : int;
  rx : 'x;
}

exception Malformed

let reader s ~off ~len rx =
  if off < 0 || len < 0 || off + len > String.length s then raise Malformed;
  { s; stop = off + len; i = off; strs = [||]; nstrs = 0; rx }

let r_int r =
  let i = ref r.i in
  let c = ref (Char.code r.s.[!i]) in
  let z = ref (!c land 0x7f) and shift = ref 7 in
  while !c land 0x80 <> 0 do
    incr i;
    c := Char.code r.s.[!i];
    z := !z lor ((!c land 0x7f) lsl !shift);
    shift := !shift + 7
  done;
  r.i <- !i + 1;
  (!z lsr 1) lxor (- (!z land 1))

let r_bool r =
  match r_int r with 0 -> false | 1 -> true | _ -> raise Malformed

let r_str r =
  let i = r_int r in
  if i < r.nstrs then r.strs.(i)
  else if i = r.nstrs then begin
    let n = r_int r in
    let s = String.sub r.s r.i n in
    r.i <- r.i + n;
    if r.nstrs = Array.length r.strs then begin
      let a = Array.make (max 16 (2 * r.nstrs)) "" in
      Array.blit r.strs 0 a 0 r.nstrs;
      r.strs <- a
    end;
    r.strs.(i) <- s;
    r.nstrs <- i + 1;
    s
  end
  else raise Malformed

(* in order: each element's bytes follow the previous one's *)
let rec r_n r f n =
  if n = 0 then []
  else
    let x = f r in
    x :: r_n r f (n - 1)

let r_list r f =
  let n = r_int r in
  if n < 0 then raise Malformed;
  r_n r f n

let r_opt r f = if r_int r = 0 then None else Some (f r)

(** Run [f] on the whole of [s]; an [Error] unless it reads every byte. *)
let decode f s =
  match
    let r = reader s ~off:0 ~len:(String.length s) () in
    let v = f r in
    if r.i <> r.stop then raise Malformed;
    v
  with
  | v -> Ok v
  | exception (Malformed | Invalid_argument _) -> Error "malformed record"

(* ---- leaves shared by several record kinds ---- *)

let w_free_kind w = function
  | Minigo.Tast.Free_slice -> w_int w 0
  | Minigo.Tast.Free_map -> w_int w 1
  | Minigo.Tast.Free_obj -> w_int w 2

let r_free_kind r =
  match r_int r with
  | 0 -> Minigo.Tast.Free_slice
  | 1 -> Minigo.Tast.Free_map
  | 2 -> Minigo.Tast.Free_obj
  | _ -> raise Malformed
