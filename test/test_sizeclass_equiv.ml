(** The O(1) size→class tables must agree with the original binary
    search on every input: exhaustively over the whole small-object
    range (including the ≤0 and just-past-[max_small] edges) and
    property-tested over arbitrary sizes. *)

module Sc = Gofree_runtime.Sizeclass

let class_idx = Alcotest.int

let test_exhaustive () =
  for bytes = -8 to Sc.max_small + 1 do
    Alcotest.check class_idx
      (Printf.sprintf "class_for_size %d" bytes)
      (Sc.class_for_size_search bytes)
      (Sc.class_for_size bytes)
  done

let test_class_size_roundtrip () =
  (* every class maps back to itself: its slot size is its own class *)
  for c = 0 to Sc.n_classes - 1 do
    Alcotest.check class_idx
      (Printf.sprintf "class of size-of-class %d" c)
      c
      (Sc.class_for_size (Sc.class_size c))
  done

let prop_table_matches_search =
  QCheck.Test.make ~count:2000
    ~name:"size->class table agrees with binary search"
    QCheck.(int_range (-4096) (4 * Sc.max_small))
    (fun bytes -> Sc.class_for_size bytes = Sc.class_for_size_search bytes)

let suite =
  [
    Alcotest.test_case "exhaustive 0..max_small+1" `Quick test_exhaustive;
    Alcotest.test_case "class sizes round-trip" `Quick
      test_class_size_roundtrip;
    QCheck_alcotest.to_alcotest prop_table_matches_search;
  ]
