(* Tests for sb_util: Rng determinism and uniformity, Bitvec algebra,
   Subset enumeration, Tabular rendering. *)

open Sb_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  Alcotest.(check bool) "children differ" true (Rng.int64 child1 <> Rng.int64 child2)

let test_rng_split_n_disjoint_prefixes () =
  (* Overlapping child streams would show up as repeated 64-bit values
     across prefixes; distinct healthy streams collide with probability
     ~2^-57 here. *)
  let parent = Rng.create 13 in
  let children = Rng.split_n parent 8 in
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun c ->
      for _ = 1 to 16 do
        let v = Rng.int64 c in
        Alcotest.(check bool) "value not seen in another child's prefix" false
          (Hashtbl.mem seen v);
        Hashtbl.replace seen v ()
      done)
    children;
  Alcotest.(check int) "all prefix values distinct" (8 * 16) (Hashtbl.length seen)

let test_rng_split_n_matches_repeated_split () =
  (* split_n is defined as n repeated splits: child k of one call must
     equal the (k+1)-th plain split from an equal-state master, so
     consumers may batch or stream splits interchangeably. *)
  let a = Rng.create 21 in
  let b = Rng.copy a in
  let batched = Rng.split_n a 5 in
  let streamed = Array.init 5 (fun _ -> Rng.split b) in
  for k = 0 to 4 do
    for _ = 1 to 8 do
      Alcotest.(check int64)
        (Printf.sprintf "child %d streams agree" k)
        (Rng.int64 batched.(k)) (Rng.int64 streamed.(k))
    done
  done;
  Alcotest.(check int) "split_n 0 is empty" 0 (Array.length (Rng.split_n (Rng.create 1) 0))

let test_rng_copy_replays () =
  let a = Rng.create 9 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_uniform () =
  (* Chi-square-ish sanity: each of 8 buckets gets a fair share. *)
  let rng = Rng.create 5 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = trials / 8 in
      Alcotest.(check bool) "within 5% of uniform" true (abs (c - expected) < expected / 20))
    counts

let test_rng_bool_balanced () =
  let rng = Rng.create 11 in
  let ones = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool rng then incr ones
  done;
  Alcotest.(check bool) "roughly half ones" true (abs (!ones - 5000) < 300)

let test_rng_perm_is_permutation () =
  let rng = Rng.create 13 in
  let p = Rng.perm rng 20 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutes 0..19" (Array.init 20 Fun.id) sorted

let test_rng_bytes_length () =
  let rng = Rng.create 17 in
  Alcotest.(check int) "length" 33 (String.length (Rng.bytes rng 33))

(* Golden streams: every table, report and state count in the repo is
   a function of these exact outputs, so a change to the generator's
   representation must leave them bit-identical. The values were
   recorded from the original boxed-int64 implementation. *)
let check_stream label rng expected =
  List.iteri
    (fun i v -> Alcotest.(check int64) (Printf.sprintf "%s #%d" label i) v (Rng.int64 rng))
    expected

let test_rng_golden_create () =
  List.iter
    (fun (seed, expected) -> check_stream (Printf.sprintf "create %d" seed) (Rng.create seed) expected)
    [
      ( 0,
        [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
          7684712102626143532L; -4925340083591827879L; -4640532413560118L;
          7788427924976520344L; -8565655843838424513L ] );
      ( 1,
        [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
          7218738570589545383L; -5586072249713871245L; 2648436617965840162L;
          1310552918490157286L; 7031611932980406429L ] );
      ( 42,
        [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
          -1389169964527427423L; -151191095644234140L; -4247557243643801032L;
          -5178765164775350862L; -2766855848391737209L ] );
      ( max_int,
        [ 7651040205805895144L; 8109190802567772668L; -9096090508748817784L;
          3925524024463235365L; 3842358165189036185L; 1215869592337824984L;
          -4616323309892477403L; -1846428240824373369L ] );
    ]

let test_rng_golden_split () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  check_stream "split child" child
    [ 2399390100814473381L; -8888017972660987428L; -2748036589639109916L; 7685598887028417692L ];
  check_stream "parent after split" parent [ 5142052590334782674L; -2958351167216911978L ];
  let parent = Rng.create 21 in
  let children = Rng.split_n parent 3 in
  check_stream "split_n child 0" children.(0) [ -1144917914300432876L; 6583027271619022413L ];
  check_stream "split_n child 1" children.(1) [ -2014655232599794870L; 8711838659642621231L ];
  check_stream "split_n child 2" children.(2) [ -227410757052671253L; -2407468279534422696L ];
  check_stream "parent after split_n" parent [ 5901096569884242013L; -4347510926799140433L ]

let test_rng_golden_draws () =
  let rng = Rng.create 42 in
  Alcotest.(check (list int)) "bits 8" [ 21; 97; 174; 236; 253; 197; 184; 217 ]
    (List.init 8 (fun _ -> Rng.bits rng 8));
  Alcotest.(check (list int)) "bits 30"
    [ 817519516; 626366551; 732778189; 312112870; 860093290; 345113113; 763591438; 942495386 ]
    (List.init 8 (fun _ -> Rng.bits rng 30));
  Alcotest.(check string) "bytes 33"
    "\157\217\181\181\023-o\154P}f\202\162;j\159\220\241\208\191\200\011w\248\137\179\205\209\229 \144\141\219"
    (Rng.bytes rng 33);
  (* The second draw is checked through its digest only. *)
  Alcotest.(check string) "bytes 33 digest" "890516370a61350e288c86094e689955"
    (Digest.to_hex (Digest.string (Rng.bytes rng 33)));
  Alcotest.(check (list (float 0.)))
    "float"
    [ 0x1.42fa5fbf4cfdep-1; 0x1.0849f8c73765dp-1; 0x1.5d1cd0929634ap-2; 0x1.249e003c8c0a9p-1 ]
    (List.init 4 (fun _ -> Rng.float rng));
  check_stream "after draws" rng [ -8473444138997814218L ]

let test_bitvec_roundtrip () =
  for v = 0 to 31 do
    let bv = Bitvec.of_int 5 v in
    Alcotest.(check int) "of_int/to_int" v (Bitvec.to_int bv);
    Alcotest.(check string) "of_string/to_string" (Bitvec.to_string bv)
      (Bitvec.to_string (Bitvec.of_string (Bitvec.to_string bv)))
  done

let test_bitvec_parity () =
  let v = Bitvec.of_string "1101" in
  Alcotest.(check bool) "parity of 1101" true (Bitvec.parity v);
  Alcotest.(check bool) "parity except 0" false (Bitvec.parity_except v 0);
  Alcotest.(check bool) "parity except 2" true (Bitvec.parity_except v 2)

let test_bitvec_proj_combine () =
  let v = Bitvec.of_string "10110" in
  let s = [ 1; 3 ] in
  Alcotest.(check (array bool)) "projection" [| false; true |] (Bitvec.proj v s);
  let w = Bitvec.combine v s [| true; false |] in
  Alcotest.(check string) "combine" "11100" (Bitvec.to_string w);
  Alcotest.(check string) "original untouched" "10110" (Bitvec.to_string v)

let test_bitvec_set_functional () =
  let v = Bitvec.zero 3 in
  let w = Bitvec.set v 1 true in
  Alcotest.(check string) "updated" "010" (Bitvec.to_string w);
  Alcotest.(check string) "original" "000" (Bitvec.to_string v)

let test_bitvec_all () =
  let l = Bitvec.all 3 in
  Alcotest.(check int) "count" 8 (List.length l);
  Alcotest.(check int) "distinct" 8 (List.length (List.sort_uniq Bitvec.compare l))

let test_bitvec_xor () =
  let a = Bitvec.of_string "1100" and b = Bitvec.of_string "1010" in
  Alcotest.(check string) "xor" "0110" (Bitvec.to_string (Bitvec.xor a b))

let test_subset_complement () =
  Alcotest.(check (list int)) "complement" [ 0; 2; 4 ] (Subset.complement 5 [ 1; 3 ])

let test_subset_all_of_size () =
  Alcotest.(check int) "C(5,2)" 10 (List.length (Subset.all_of_size 5 2));
  Alcotest.(check int) "C(6,3)" 20 (List.length (Subset.all_of_size 6 3));
  List.iter
    (fun s -> Alcotest.(check bool) "valid" true (Subset.is_valid 5 s))
    (Subset.all_of_size 5 2)

let test_subset_nonempty_proper () =
  Alcotest.(check int) "2^4 - 2" 14 (List.length (Subset.all_nonempty_proper 4))

(* The checker's counterexample enumeration order is part of its
   determinism contract: lexicographic, smallest leading index first. *)
let test_subset_enumeration_order () =
  Alcotest.(check (list (list int)))
    "C(4,2) lexicographic"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    (Subset.all_of_size 4 2);
  Alcotest.(check (list (list int)))
    "all_up_to sizes ascending, empty first"
    [ []; [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]
    (Subset.all_up_to 3 2)

let test_subset_edge_cases () =
  Alcotest.(check (list (list int))) "k = 0 is the empty set" [ [] ] (Subset.all_of_size 5 0);
  Alcotest.(check (list (list int))) "k = n is the full set" [ [ 0; 1; 2 ] ]
    (Subset.all_of_size 3 3);
  Alcotest.(check (list (list int))) "k > n is empty" [] (Subset.all_of_size 3 4);
  Alcotest.(check (list (list int))) "k < 0 is empty" [] (Subset.all_of_size 3 (-1));
  Alcotest.(check (list (list int))) "n = 0, k = 0" [ [] ] (Subset.all_of_size 0 0);
  (* A corruption budget beyond n-1 (the checker asks for sizes up to
     t, which may exceed what n supports) just tops out at n. *)
  Alcotest.(check int) "all_up_to caps at 2^n" 8 (List.length (Subset.all_up_to 3 7));
  Alcotest.(check (list (list int))) "all_up_to 2 0" [ [] ] (Subset.all_up_to 2 0)

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let acc = ref 1 in
    for i = 0 to k - 1 do
      acc := !acc * (n - i) / (i + 1)
    done;
    !acc
  end

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_tabular_contents () =
  let t = Tabular.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Tabular.add_row t [ "x"; "y" ];
  Tabular.add_row t [ "long-cell" ];
  let s = Tabular.render t in
  Alcotest.(check bool) "title" true (contains s "== demo ==");
  Alcotest.(check bool) "row cell" true (contains s "long-cell");
  Alcotest.(check bool) "padded short row" true (contains s "x")

let test_tabular_csv () =
  let t = Tabular.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Tabular.add_row t [ "plain"; "with,comma" ];
  Tabular.add_rule t;
  Tabular.add_row t [ "has\"quote"; "" ];
  Alcotest.(check string) "csv"
    "a,b\nplain,\"with,comma\"\n\"has\"\"quote\",\n" (Tabular.to_csv t);
  Alcotest.(check string) "title accessor" "demo" (Tabular.title t)

let qcheck_bitvec_int_roundtrip =
  QCheck.Test.make ~name:"bitvec of_int/to_int roundtrip" ~count:500
    QCheck.(pair (int_bound 15) (int_bound 100000))
    (fun (extra, v) ->
      let n = 17 + extra in
      let v = v land ((1 lsl n) - 1) in
      Bitvec.to_int (Bitvec.of_int n v) = v)

let qcheck_bitvec_xor_involution =
  QCheck.Test.make ~name:"xor involution" ~count:500
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let va = Sb_util.Bitvec.of_int 8 a and vb = Sb_util.Bitvec.of_int 8 b in
      Bitvec.equal va (Bitvec.xor (Bitvec.xor va vb) vb))

let qcheck_subset_count_is_binomial =
  QCheck.Test.make ~name:"|all_of_size n k| = C(n,k)" ~count:200
    QCheck.(pair (int_bound 9) (int_bound 11))
    (fun (n, k) ->
      let subsets = Subset.all_of_size n k in
      List.length subsets = binomial n k
      && List.for_all (Subset.is_valid (max n 1)) subsets
      && List.for_all (fun s -> List.length s = k) subsets)

let qcheck_subset_complement_partition =
  QCheck.Test.make ~name:"subset complement partitions [n]" ~count:200
    QCheck.(list_of_size Gen.(0 -- 8) (int_bound 9))
    (fun l ->
      let s = Subset.of_list l in
      let c = Subset.complement 10 s in
      List.length s + List.length c = 10
      && List.for_all (fun i -> not (List.mem i c)) s)

let () =
  Alcotest.run "sb_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split_n disjoint prefixes" `Quick test_rng_split_n_disjoint_prefixes;
          Alcotest.test_case "split_n = repeated split" `Quick test_rng_split_n_matches_repeated_split;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_rng_int_uniform;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "perm is permutation" `Quick test_rng_perm_is_permutation;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
          Alcotest.test_case "golden create streams" `Quick test_rng_golden_create;
          Alcotest.test_case "golden split streams" `Quick test_rng_golden_split;
          Alcotest.test_case "golden bits/bytes/float" `Quick test_rng_golden_draws;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "int roundtrip" `Quick test_bitvec_roundtrip;
          Alcotest.test_case "parity" `Quick test_bitvec_parity;
          Alcotest.test_case "proj/combine" `Quick test_bitvec_proj_combine;
          Alcotest.test_case "functional set" `Quick test_bitvec_set_functional;
          Alcotest.test_case "all vectors" `Quick test_bitvec_all;
          Alcotest.test_case "xor" `Quick test_bitvec_xor;
          QCheck_alcotest.to_alcotest qcheck_bitvec_int_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_bitvec_xor_involution;
        ] );
      ( "subset",
        [
          Alcotest.test_case "complement" `Quick test_subset_complement;
          Alcotest.test_case "all_of_size" `Quick test_subset_all_of_size;
          Alcotest.test_case "nonempty proper" `Quick test_subset_nonempty_proper;
          Alcotest.test_case "enumeration order pinned" `Quick test_subset_enumeration_order;
          Alcotest.test_case "edge cases" `Quick test_subset_edge_cases;
          QCheck_alcotest.to_alcotest qcheck_subset_count_is_binomial;
          QCheck_alcotest.to_alcotest qcheck_subset_complement_partition;
        ] );
      ( "tabular",
        [
          Alcotest.test_case "contents" `Quick test_tabular_contents;
          Alcotest.test_case "csv export" `Quick test_tabular_csv;
        ] );
    ]
