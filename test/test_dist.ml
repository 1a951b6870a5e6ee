(* Tests for sb_dist: exact pmf machinery, constructors, projections,
   conditionals, the local-independence gap, ensemble decay
   classification, and the battery's expected class memberships. *)

open Sb_util
open Sb_dist

let feps = 1e-9
let check_float msg expected actual = Alcotest.(check (float feps)) msg expected actual

(* --- basic pmf machinery ------------------------------------------- *)

let test_pmf_normalises () =
  let d = Dist.of_pmf 2 [| 1.0; 1.0; 2.0; 0.0 |] in
  check_float "p(00)" 0.25 (Dist.prob_idx d 0);
  check_float "p(01)" 0.25 (Dist.prob_idx d 1);
  check_float "p(10)" 0.5 (Dist.prob_idx d 2);
  check_float "p(11)" 0.0 (Dist.prob_idx d 3)

let test_pmf_rejects_bad () =
  Alcotest.check_raises "negative mass" (Invalid_argument "Dist.of_pmf: bad mass") (fun () ->
      ignore (Dist.of_pmf 1 [| 0.5; -0.5 |]));
  Alcotest.check_raises "wrong length" (Invalid_argument "Dist.of_pmf: wrong pmf length")
    (fun () -> ignore (Dist.of_pmf 2 [| 1.0 |]));
  Alcotest.check_raises "zero mass" (Invalid_argument "Dist.of_pmf: zero total mass") (fun () ->
      ignore (Dist.of_pmf 1 [| 0.0; 0.0 |]))

let test_uniform () =
  let d = Dist.uniform 3 in
  List.iter (fun v -> check_float "uniform mass" 0.125 (Dist.prob d v)) (Bitvec.all 3);
  check_float "entropy" 3.0 (Dist.entropy_bits d)

let test_singleton () =
  let v = Bitvec.of_string "101" in
  let d = Dist.singleton v in
  check_float "point mass" 1.0 (Dist.prob d v);
  check_float "entropy" 0.0 (Dist.entropy_bits d);
  Alcotest.(check int) "support" 1 (List.length (Dist.support d))

let test_bernoulli_product () =
  let d = Dist.bernoulli_product [| 0.5; 0.25 |] in
  check_float "p(00)" 0.375 (Dist.prob d (Bitvec.of_string "00"));
  check_float "p(11)" 0.125 (Dist.prob d (Bitvec.of_string "11"));
  check_float "marginal 0" 0.5 (Dist.marginal d 0);
  check_float "marginal 1" 0.25 (Dist.marginal d 1)

(* Pinned per-entry construction of a product table: entry idx is the
   left fold ((1.0 *. f_0) *. f_1) ... *. f_{n-1} over its bits,
   normalised by the index-order sum, with the cumulative table (last
   entry forced to 1.0) searched by bisection. The library builds the
   same table by prefix doubling; every mass and every sampled index
   must match this reference bit for bit. *)
module Ref_product = struct
  let mass p =
    let n = Array.length p in
    let raw =
      Array.init (1 lsl n) (fun idx ->
          let m = ref 1.0 in
          for i = 0 to n - 1 do
            let bit = (idx lsr i) land 1 = 1 in
            m := !m *. (if bit then p.(i) else 1.0 -. p.(i))
          done;
          !m)
    in
    let total = Array.fold_left ( +. ) 0.0 raw in
    Array.map (fun x -> x /. total) raw

  let cdf mass =
    let size = Array.length mass in
    let cdf = Array.make size 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i p ->
        acc := !acc +. p;
        cdf.(i) <- !acc)
      mass;
    cdf.(size - 1) <- 1.0;
    cdf

  let sample cdf rng =
    let u = Rng.float rng in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
end

let check_product_bits name p =
  let d = Dist.bernoulli_product p in
  let mass = Ref_product.mass p in
  Array.iteri
    (fun i m ->
      if Int64.bits_of_float m <> Int64.bits_of_float (Dist.prob_idx d i) then
        Alcotest.failf "%s: entry %d is %h, reference %h" name i (Dist.prob_idx d i) m)
    mass;
  let cdf = Ref_product.cdf mass in
  let rng_lib = Rng.create 4242 and rng_ref = Rng.create 4242 in
  for k = 1 to 500 do
    let got = Bitvec.to_int (Dist.sample d rng_lib) in
    let want = Ref_product.sample cdf rng_ref in
    if got <> want then Alcotest.failf "%s: sample %d is %d, reference %d" name k got want
  done

let test_bernoulli_product_bit_exact () =
  let rng = Rng.create 2024 in
  for n = 0 to 14 do
    check_product_bits (Printf.sprintf "random n=%d" n) (Array.init n (fun _ -> Rng.float rng));
    check_product_bits (Printf.sprintf "all-zero n=%d" n) (Array.make n 0.0);
    check_product_bits (Printf.sprintf "all-one n=%d" n) (Array.make n 1.0)
  done;
  check_product_bits "product 0.4 20" (Array.make 20 0.4)

let test_xor_parity () =
  let d = Dist.xor_parity ~even:true 3 in
  List.iter
    (fun v ->
      let expected = if Bitvec.parity v then 0.0 else 0.25 in
      check_float (Bitvec.to_string v) expected (Dist.prob d v))
    (Bitvec.all 3);
  (* Marginals are uniform even though the joint is far from it. *)
  Array.iter (fun m -> check_float "uniform marginal" 0.5 m) (Dist.marginals d)

let test_copy_pair () =
  let d = Dist.copy_pair 3 in
  check_float "p(x0=x1=0)" 0.25 (Dist.prob d (Bitvec.of_string "000"));
  check_float "p(x0<>x1)" 0.0 (Dist.prob d (Bitvec.of_string "100"));
  check_float "marginal" 0.5 (Dist.marginal d 0)

let test_noisy_copy_limits () =
  (* flip = 0.5 must be exactly uniform. *)
  Alcotest.(check bool) "flip 0.5 is uniform" true
    (Dist.equal (Dist.noisy_copy 3 ~flip:0.5) (Dist.uniform 3));
  (* flip = 0 is copy-pair. *)
  Alcotest.(check bool) "flip 0 is copy" true
    (Dist.equal (Dist.noisy_copy 3 ~flip:0.0) (Dist.copy_pair 3))

let test_mixture () =
  let d = Dist.mixture [ (0.5, Dist.uniform 2); (0.5, Dist.singleton (Bitvec.of_string "11")) ] in
  check_float "p(11)" 0.625 (Dist.prob d (Bitvec.of_string "11"));
  check_float "p(00)" 0.125 (Dist.prob d (Bitvec.of_string "00"))

let test_conditioned () =
  let d = Dist.conditioned (Dist.uniform 3) ~on:(fun v -> Bitvec.get v 0) in
  check_float "p given x0=1" 0.25 (Dist.prob d (Bitvec.of_string "100"));
  check_float "excluded" 0.0 (Dist.prob d (Bitvec.of_string "000"));
  Alcotest.check_raises "empty event" (Invalid_argument "Dist.conditioned: zero-mass event")
    (fun () -> ignore (Dist.conditioned (Dist.uniform 2) ~on:(fun _ -> false)))

let test_proj_pmf () =
  let d = Dist.copy_pair 3 in
  let p01 = Dist.proj_pmf d [ 0; 1 ] in
  check_float "proj p(00)" 0.5 p01.(0);
  check_float "proj p(10)" 0.0 p01.(1);
  check_float "proj p(11)" 0.5 p01.(3);
  let p2 = Dist.proj_pmf d [ 2 ] in
  check_float "proj free coord" 0.5 p2.(0)

let test_cond_proj_pmf () =
  let d = Dist.copy_pair 3 in
  let w = Bitvec.of_string "100" in
  (* x1 given x0 = 1 must be deterministic 1. *)
  match Dist.cond_proj_pmf d ~of_:[ 1 ] ~given:[ 0 ] w with
  | Some p ->
      check_float "p(x1=0|x0=1)" 0.0 p.(0);
      check_float "p(x1=1|x0=1)" 1.0 p.(1)
  | None -> Alcotest.fail "conditioning event has mass"

let test_tvd () =
  check_float "tvd self" 0.0 (Dist.tvd (Dist.uniform 3) (Dist.uniform 3));
  check_float "tvd parity vs uniform" 0.5
    (Dist.tvd (Dist.xor_parity ~even:true 3) (Dist.uniform 3));
  check_float "tvd disjoint singletons" 1.0
    (Dist.tvd (Dist.singleton (Bitvec.zero 2)) (Dist.singleton (Bitvec.of_string "11")))

let test_sampling_agrees_with_pmf () =
  let d = Dist.bernoulli_product [| 0.3; 0.7; 0.5 |] in
  let rng = Rng.create 77 in
  let counts = Array.make 8 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let v = Dist.sample d rng in
    counts.(Bitvec.to_int v) <- counts.(Bitvec.to_int v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = Dist.prob_idx d i in
      let observed = float_of_int c /. float_of_int trials in
      Alcotest.(check bool)
        (Printf.sprintf "cell %d within 3 sigma" i)
        true
        (Float.abs (observed -. expected) < 0.01))
    counts

(* --- independence gaps ---------------------------------------------- *)

let test_local_gap_zero_on_products () =
  check_float "uniform" 0.0 (Dist.local_gap (Dist.uniform 4));
  check_float "biased product" 0.0 (Dist.local_gap (Dist.product 0.25 4));
  check_float "singleton" 0.0 (Dist.local_gap (Dist.singleton (Bitvec.of_string "0110")))

let test_local_gap_on_correlated () =
  (* xor-parity: conditioned on the others, the last bit is
     deterministic: gap 1/2 against its uniform marginal. *)
  check_float "xor parity gap" 0.5 (Dist.local_gap (Dist.xor_parity ~even:true 3));
  check_float "copy gap" 0.5 (Dist.local_gap (Dist.copy_pair 3))

(* The per-w definition Dist.local_gap computed before it bucketed the
   mass by B̄ in one pass: for every nonempty proper B and every w in
   {0,1}^n, the conditional pmf of x_B given x_B̄ = w against the
   unconditional one. Kept as the bit-exact oracle. *)
let oracle_local_gap d =
  let n = Dist.n d in
  let worst = ref 0.0 in
  List.iter
    (fun b ->
      let comp = Subset.complement n b in
      let uncond = Dist.proj_pmf d b in
      List.iter
        (fun w ->
          match Dist.cond_proj_pmf d ~of_:b ~given:comp w with
          | None -> ()
          | Some cond ->
              Array.iteri
                (fun u pu ->
                  let gap = Float.abs (pu -. uncond.(u)) in
                  if gap > !worst then worst := gap)
                cond)
        (Bitvec.all n))
    (Subset.all_nonempty_proper n);
  !worst

let check_bit_exact what d =
  let expected = oracle_local_gap d and actual = Dist.local_gap d in
  if not (Float.equal expected actual) then
    Alcotest.failf "%s: local_gap %h, oracle %h" what actual expected

let test_local_gap_battery_bit_exact () =
  List.iter
    (fun n ->
      List.iter
        (fun (entry : Family.entry) ->
          List.iter
            (fun k ->
              check_bit_exact
                (Printf.sprintf "%s n=%d k=%d" entry.Family.ensemble.Ensemble.name n k)
                (entry.Family.ensemble.Ensemble.at k))
            Ensemble.default_ks)
        (Family.battery n))
    [ 3; 4; 5; 6 ]

let test_local_gap_random_bit_exact () =
  (* 50 random pmfs at n = 1..6; every third one zeroes about a third
     of its cells, so some conditioning events have zero mass. *)
  let rng = Rng.create 2024 in
  for i = 1 to 50 do
    let n = 1 + (i mod 6) in
    let raw =
      Array.init (1 lsl n) (fun _ ->
          let p = Rng.float rng in
          if i mod 3 = 0 && Rng.int rng 3 = 0 then 0.0 else p)
    in
    raw.(Rng.int rng (1 lsl n)) <- 1.0;
    check_bit_exact (Printf.sprintf "random pmf %d (n=%d)" i n) (Dist.of_pmf n raw)
  done

let test_independence_gap () =
  check_float "product" 0.0 (Dist.independence_gap (Dist.product 0.3 3));
  Alcotest.(check bool) "parity gap = 1/2" true
    (Float.abs (Dist.independence_gap (Dist.xor_parity ~even:true 3) -. 0.5) < feps);
  Alcotest.(check bool) "is_product" true (Dist.is_product (Dist.uniform 3));
  Alcotest.(check bool) "is_product correlated" false (Dist.is_product (Dist.copy_pair 3))

let qcheck_products_locally_independent =
  QCheck.Test.make ~name:"random products have zero local gap" ~count:30
    QCheck.(list_of_size (QCheck.Gen.return 4) (float_range 0.05 0.95))
    (fun ps ->
      let d = Dist.bernoulli_product (Array.of_list ps) in
      Dist.local_gap d < 1e-9)

let qcheck_mixture_mass =
  QCheck.Test.make ~name:"mixtures stay normalised" ~count:50
    QCheck.(pair (float_range 0.01 0.99) (int_bound 7))
    (fun (w, v) ->
      let d =
        Dist.mixture [ (w, Dist.uniform 3); (1.0 -. w, Dist.singleton (Bitvec.of_int 3 v)) ]
      in
      Float.abs (Array.fold_left ( +. ) 0.0 (Dist.pmf d) -. 1.0) < 1e-9)

let qcheck_tvd_triangle =
  QCheck.Test.make ~name:"tvd triangle inequality" ~count:50
    QCheck.(triple (int_bound 7) (int_bound 7) (int_bound 7))
    (fun (a, b, c) ->
      let da = Dist.mixture [ (0.5, Dist.uniform 3); (0.5, Dist.singleton (Bitvec.of_int 3 a)) ] in
      let db = Dist.mixture [ (0.5, Dist.uniform 3); (0.5, Dist.singleton (Bitvec.of_int 3 b)) ] in
      let dc = Dist.mixture [ (0.5, Dist.uniform 3); (0.5, Dist.singleton (Bitvec.of_int 3 c)) ] in
      Dist.tvd da dc <= Dist.tvd da db +. Dist.tvd db dc +. 1e-9)

(* --- ensembles and classes ------------------------------------------ *)

let test_decay_classification () =
  let ks = Ensemble.default_ks in
  Alcotest.(check string) "zero" "zero"
    (Ensemble.decay_to_string (Ensemble.classify_decay (fun _ -> 0.0) ~ks));
  Alcotest.(check string) "vanishing" "vanishing"
    (Ensemble.decay_to_string
       (Ensemble.classify_decay (fun k -> Float.pow 2.0 (-.float_of_int k)) ~ks));
  Alcotest.(check string) "persistent" "persistent"
    (Ensemble.decay_to_string (Ensemble.classify_decay (fun _ -> 0.25) ~ks));
  Alcotest.(check string) "growing is persistent" "persistent"
    (Ensemble.decay_to_string
       (Ensemble.classify_decay (fun k -> 0.01 *. float_of_int k) ~ks))

let test_battery_expected_membership () =
  (* The executable classifier must agree with the analytic ground
     truth for every battery entry — this is experiment E1's core. *)
  List.iter
    (fun (e : Family.entry) ->
      let v = Classes.classify e.Family.ensemble in
      let m = e.Family.expected in
      let name = e.Family.ensemble.Ensemble.name in
      Alcotest.(check bool) (name ^ ": independent") m.Family.independent v.Classes.independent;
      Alcotest.(check bool) (name ^ ": psi_L") m.Family.psi_l v.Classes.psi_l;
      Alcotest.(check bool) (name ^ ": psi_C") m.Family.psi_c v.Classes.psi_c;
      Alcotest.(check bool) (name ^ ": hierarchy") true (Classes.check_hierarchy v))
    (Family.battery 4)

let test_hierarchy_strictness_witnesses () =
  let v_of e = Classes.classify e.Family.ensemble in
  (* psi_L strictly inside psi_C: rare-leak. *)
  let rare = v_of (Family.rare_leak 4) in
  Alcotest.(check bool) "rare-leak in psi_C" true rare.Classes.psi_c;
  Alcotest.(check bool) "rare-leak not in psi_L" false rare.Classes.psi_l;
  (* products strictly inside psi_L: almost-uniform. *)
  let almost = v_of (Family.almost_uniform 4) in
  Alcotest.(check bool) "almost-uniform in psi_L" true almost.Classes.psi_l;
  Alcotest.(check bool) "almost-uniform not independent" false almost.Classes.independent;
  (* all correlated outside psi_C. *)
  let parity = v_of (Family.xor_parity 4) in
  Alcotest.(check bool) "xor-parity outside psi_C" false parity.Classes.psi_c

let test_new_families () =
  let d = Dist.markov 4 ~flip:0.2 in
  (* Chain probabilities: p(0000) = 0.5 * 0.8^3. *)
  check_float "markov chain mass" (0.5 *. (0.8 ** 3.0)) (Dist.prob d (Bitvec.of_string "0000"));
  Alcotest.(check bool) "markov 0.5 uniform" true
    (Dist.equal (Dist.markov 4 ~flip:0.5) (Dist.uniform 4));
  let oh = Dist.one_hot 4 in
  check_float "one-hot weight-1" 0.25 (Dist.prob oh (Bitvec.of_string "0100"));
  check_float "one-hot weight-2" 0.0 (Dist.prob oh (Bitvec.of_string "0110"));
  let ae = Dist.all_equal 3 in
  check_float "all-equal zeros" 0.5 (Dist.prob ae (Bitvec.zero 3));
  check_float "all-equal mixed" 0.0 (Dist.prob ae (Bitvec.of_string "010"));
  (* Correlated families are outside psi_C. *)
  List.iter
    (fun d -> Alcotest.(check bool) "correlated" true (Dist.independence_gap d > 0.05))
    [ Dist.markov 4 ~flip:0.2; Dist.one_hot 4; Dist.all_equal 4 ]

let test_classify_reports_grid () =
  let v = Classes.classify (Family.uniform 3).Family.ensemble in
  Alcotest.(check int) "grid size" (List.length Ensemble.default_ks)
    (List.length v.Classes.local_gaps)

let () =
  Alcotest.run "sb_dist"
    [
      ( "pmf",
        [
          Alcotest.test_case "normalises" `Quick test_pmf_normalises;
          Alcotest.test_case "rejects bad input" `Quick test_pmf_rejects_bad;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "bernoulli product" `Quick test_bernoulli_product;
          Alcotest.test_case "bernoulli product bit-exact" `Quick
            test_bernoulli_product_bit_exact;
          Alcotest.test_case "xor parity" `Quick test_xor_parity;
          Alcotest.test_case "copy pair" `Quick test_copy_pair;
          Alcotest.test_case "noisy copy limits" `Quick test_noisy_copy_limits;
          Alcotest.test_case "mixture" `Quick test_mixture;
          Alcotest.test_case "conditioned" `Quick test_conditioned;
          Alcotest.test_case "projection" `Quick test_proj_pmf;
          Alcotest.test_case "conditional projection" `Quick test_cond_proj_pmf;
          Alcotest.test_case "tvd" `Quick test_tvd;
          Alcotest.test_case "sampling agrees with pmf" `Slow test_sampling_agrees_with_pmf;
          QCheck_alcotest.to_alcotest qcheck_mixture_mass;
          QCheck_alcotest.to_alcotest qcheck_tvd_triangle;
        ] );
      ( "gaps",
        [
          Alcotest.test_case "local gap zero on products" `Quick test_local_gap_zero_on_products;
          Alcotest.test_case "local gap on correlated" `Quick test_local_gap_on_correlated;
          Alcotest.test_case "local gap = per-w oracle, battery" `Quick
            test_local_gap_battery_bit_exact;
          Alcotest.test_case "local gap = per-w oracle, random pmfs" `Quick
            test_local_gap_random_bit_exact;
          Alcotest.test_case "independence gap" `Quick test_independence_gap;
          QCheck_alcotest.to_alcotest qcheck_products_locally_independent;
        ] );
      ( "classes",
        [
          Alcotest.test_case "decay classification" `Quick test_decay_classification;
          Alcotest.test_case "battery memberships" `Quick test_battery_expected_membership;
          Alcotest.test_case "new families" `Quick test_new_families;
          Alcotest.test_case "strictness witnesses" `Quick test_hierarchy_strictness_witnesses;
          Alcotest.test_case "classify reports grid" `Quick test_classify_reports_grid;
        ] );
    ]
