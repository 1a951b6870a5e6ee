(* Tests for sb_crypto: SHA-256 FIPS vectors, field axioms, polynomial
   interpolation, Shamir sharing, the Feldman group and VSS, both
   commitment backends, and the ideal signature registry. *)

open Sb_crypto

let rng () = Sb_util.Rng.create 12345

(* --- SHA-256 ------------------------------------------------------ *)

let test_sha_fips_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]
  in
  List.iter (fun (m, d) -> Alcotest.(check string) m d (Sha256.hex m)) cases

let test_sha_million_a () =
  (* FIPS 180-4 long vector: one million 'a's. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed ctx chunk
  done;
  Alcotest.(check string) "1M a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha_incremental_matches_oneshot () =
  let msg = String.init 300 (fun i -> Char.chr (i mod 251)) in
  (* Every split point must give the same digest as the one-shot. *)
  List.iter
    (fun cut ->
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub msg 0 cut);
      Sha256.feed ctx (String.sub msg cut (String.length msg - cut));
      Alcotest.(check string)
        (Printf.sprintf "split at %d" cut)
        (Sha256.to_hex (Sha256.digest msg))
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 300 ]

let test_sha_avalanche () =
  let a = Sha256.digest "simultaneous broadcast" in
  let b = Sha256.digest "simultaneous broadcasu" in
  let diff = ref 0 in
  String.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code b.[i] in
      for bit = 0 to 7 do
        if (x lsr bit) land 1 = 1 then incr diff
      done)
    a;
  (* ~128 of 256 bits should flip; accept a generous window. *)
  Alcotest.(check bool) "avalanche" true (!diff > 80 && !diff < 176)

let test_sha_xor_strings () =
  let a = "\x01\x02\xff" and b = "\x01\x0f\x0f" in
  Alcotest.(check string) "xor" "\x00\x0d\xf0" (Sha256.xor_strings a b)

(* --- Field -------------------------------------------------------- *)

let fe = Alcotest.testable (fun fmt x -> Field.pp fmt x) Field.equal

let test_field_basic () =
  Alcotest.check fe "1+(-1)=0" Field.zero Field.(add one (neg one));
  Alcotest.check fe "p reduces to 0" Field.zero (Field.of_int Field.p);
  Alcotest.check fe "negatives reduce" (Field.of_int (Field.p - 1)) (Field.of_int (-1));
  let x = Field.of_int 123456789 in
  Alcotest.check fe "x * x^-1 = 1" Field.one (Field.mul x (Field.inv x));
  Alcotest.check fe "x / x = 1" Field.one (Field.div x x)

let test_field_pow () =
  let x = Field.of_int 3 in
  Alcotest.check fe "3^0" Field.one (Field.pow x 0);
  Alcotest.check fe "3^5" (Field.of_int 243) (Field.pow x 5);
  (* Fermat: x^(p-1) = 1. *)
  Alcotest.check fe "fermat" Field.one (Field.pow x (Field.p - 1))

let test_field_inv_zero_raises () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Field.inv Field.zero))

let arbitrary_fe = QCheck.map (fun i -> Field.of_int i) QCheck.(int_range 0 (Field.p - 1))

let qcheck_field_assoc =
  QCheck.Test.make ~name:"field mul associative" ~count:1000
    QCheck.(triple arbitrary_fe arbitrary_fe arbitrary_fe)
    (fun (a, b, c) -> Field.(equal (mul a (mul b c)) (mul (mul a b) c)))

let qcheck_field_distrib =
  QCheck.Test.make ~name:"field distributive" ~count:1000
    QCheck.(triple arbitrary_fe arbitrary_fe arbitrary_fe)
    (fun (a, b, c) -> Field.(equal (mul a (add b c)) (add (mul a b) (mul a c))))

let qcheck_field_inverse =
  QCheck.Test.make ~name:"field inverse" ~count:1000 arbitrary_fe (fun a ->
      Field.equal a Field.zero || Field.(equal one (mul a (inv a))))

let qcheck_field_add_comm =
  QCheck.Test.make ~name:"field add commutative" ~count:1000
    QCheck.(pair arbitrary_fe arbitrary_fe)
    (fun (a, b) -> Field.(equal (add a b) (add b a)))

(* --- Poly --------------------------------------------------------- *)

let test_poly_eval () =
  (* f(X) = 2 + 3X + X^2; f(5) = 42. *)
  let f = Poly.of_coeffs [| Field.of_int 2; Field.of_int 3; Field.of_int 1 |] in
  Alcotest.check fe "horner" (Field.of_int 42) (Poly.eval f (Field.of_int 5))

let test_poly_normalisation () =
  let f = Poly.of_coeffs [| Field.of_int 7; Field.zero; Field.zero |] in
  Alcotest.(check int) "degree" 0 (Poly.degree f);
  Alcotest.(check int) "zero degree" (-1) (Poly.degree Poly.zero)

let test_poly_interpolate_recovers () =
  let rng = rng () in
  let f = Poly.random rng ~degree:4 ~constant:(Field.of_int 99) in
  let pts = List.init 5 (fun i -> (Field.of_int (i + 1), Poly.eval f (Field.of_int (i + 1)))) in
  Alcotest.(check bool) "exact recovery" true (Poly.equal f (Poly.interpolate pts));
  Alcotest.check fe "value at 0" (Field.of_int 99) (Poly.interpolate_at pts Field.zero)

let test_poly_interpolate_rejects_duplicates () =
  let pts = [ (Field.one, Field.one); (Field.one, Field.zero) ] in
  Alcotest.check_raises "duplicate x" (Invalid_argument "Poly.interpolate: duplicate abscissae")
    (fun () -> ignore (Poly.interpolate pts))

let qcheck_poly_add_eval =
  QCheck.Test.make ~name:"poly add is pointwise" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 6) arbitrary_fe)
        (list_of_size Gen.(1 -- 6) arbitrary_fe)
        arbitrary_fe)
    (fun (ca, cb, x) ->
      let pa = Poly.of_coeffs (Array.of_list ca) and pb = Poly.of_coeffs (Array.of_list cb) in
      Field.equal (Poly.eval (Poly.add pa pb) x) (Field.add (Poly.eval pa x) (Poly.eval pb x)))

let qcheck_poly_mul_eval =
  QCheck.Test.make ~name:"poly mul is pointwise" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 5) arbitrary_fe)
        (list_of_size Gen.(1 -- 5) arbitrary_fe)
        arbitrary_fe)
    (fun (ca, cb, x) ->
      let pa = Poly.of_coeffs (Array.of_list ca) and pb = Poly.of_coeffs (Array.of_list cb) in
      Field.equal (Poly.eval (Poly.mul pa pb) x) (Field.mul (Poly.eval pa x) (Poly.eval pb x)))

(* --- Lagrange cache / eval_many ----------------------------------- *)

(* Distinct share indices: dedup a small int list (0..40, so every
   index fits the cache's mask), keep it non-empty. *)
let arbitrary_points =
  QCheck.map
    (fun (xs, ys, y0) ->
      let xs = List.sort_uniq Int.compare xs in
      let ys = y0 :: ys in
      List.mapi (fun i x -> (x, List.nth ys (i mod List.length ys))) xs)
    QCheck.(
      triple (list_of_size Gen.(0 -- 6) (int_range 0 40)) (list_of_size Gen.(0 -- 6) arbitrary_fe)
        arbitrary_fe)

let lagrange_at_zero pts = Lagrange.interpolate_at_zero ~index:fst ~value:snd pts
let poly_at_zero pts =
  Poly.interpolate_at (List.map (fun (i, y) -> (Shamir.eval_point i, y)) pts) Field.zero

let qcheck_lagrange_cached_eq_uncached =
  QCheck.Test.make ~name:"cached interpolate_at = uncached" ~count:300 arbitrary_points
    (fun pts ->
      Field.equal (lagrange_at_zero pts) (poly_at_zero pts)
      (* A second call is served from the mask-keyed table. *)
      && Field.equal (lagrange_at_zero (List.rev pts)) (poly_at_zero pts))

let test_lagrange_single_point () =
  (* Degree-0 interpolation: one point determines the constant. *)
  Alcotest.check fe "single point at 0" (Field.of_int 17)
    (lagrange_at_zero [ (2, Field.of_int 17) ])

let test_lagrange_rejects_duplicates () =
  let dup = Invalid_argument "Poly.interpolate: duplicate abscissae" in
  Alcotest.check_raises "duplicate index" dup (fun () ->
      ignore (lagrange_at_zero [ (0, Field.one); (0, Field.zero) ]));
  Alcotest.check_raises "duplicate index >= 62" dup (fun () ->
      ignore (lagrange_at_zero [ (70, Field.one); (3, Field.zero); (70, Field.zero) ]));
  Alcotest.check_raises "negative index" (Invalid_argument "Lagrange: negative share index")
    (fun () -> ignore (lagrange_at_zero [ (1, Field.one); (-1, Field.zero) ]))

(* Mask-keyed reconstruction against Poly.interpolate_at on random
   share subsets of every size t+1..n: non-contiguous index sets
   (sampled without replacement from a spread-out pool), shuffled
   order for Shamir, and index pools past 61, whose masks take more
   than one word. *)
let test_lagrange_mask_subsets () =
  let rng = Sb_util.Rng.create 4242 in
  let shuffle l =
    let a = Array.of_list l in
    let p = Sb_util.Rng.perm rng (Array.length a) in
    List.init (Array.length a) (fun i -> a.(p.(i)))
  in
  List.iter
    (fun (pool, t) ->
      let n = Array.length pool in
      for _ = 1 to 40 do
        let secret = Field.random rng in
        let f = Poly.random rng ~degree:t ~constant:secret in
        let size = t + 1 + Sb_util.Rng.int rng (n - t) in
        let p = Sb_util.Rng.perm rng n in
        let idx = List.sort Int.compare (List.init size (fun i -> pool.(p.(i)))) in
        let shares =
          List.map (fun i -> { Shamir.index = i; value = Poly.eval f (Shamir.eval_point i) }) idx
        in
        let pts = List.map (fun s -> (s.Shamir.index, s.Shamir.value)) shares in
        let expect = poly_at_zero pts in
        Alcotest.check fe "equals Poly.interpolate_at" expect (lagrange_at_zero pts);
        Alcotest.check fe "recovers the secret" secret expect;
        Alcotest.check fe "Shamir, shuffled" expect (Shamir.reconstruct (shuffle shares));
        let ped =
          List.map
            (fun s ->
              { Pedersen.index = s.Shamir.index; value = s.Shamir.value; blind = s.Shamir.value })
            shares
        in
        Alcotest.check fe "Pedersen value" expect (Pedersen.reconstruct ped);
        Alcotest.check fe "Pedersen blind" expect (Pedersen.reconstruct_blind (shuffle ped))
      done)
    [
      ([| 0; 1; 2; 3; 4 |], 2);
      ([| 0; 3; 7; 12; 30; 44; 61 |], 3);
      ([| 1; 5; 60; 61; 62; 63; 90 |], 2);
      ([| 62; 64; 100; 1000; 5000 |], 1);
    ];
  Alcotest.check_raises "Shamir repeated index"
    (Invalid_argument "Poly.interpolate: duplicate abscissae") (fun () ->
      ignore
        (Shamir.reconstruct
           [ { Shamir.index = 4; value = Field.one }; { Shamir.index = 1; value = Field.one };
             { Shamir.index = 4; value = Field.zero } ]))

let test_lagrange_at_zero_matches_direct () =
  (* The BGW recombination vector: at_zero n against the classical
     num/den product formula. *)
  List.iter
    (fun n ->
      let lam = Lagrange.at_zero n in
      Array.iteri
        (fun i li ->
          let xi = Field.of_int (i + 1) in
          let num = ref Field.one and den = ref Field.one in
          for j = 0 to n - 1 do
            if j <> i then begin
              let xj = Field.of_int (j + 1) in
              num := Field.mul !num xj;
              den := Field.mul !den (Field.sub xj xi)
            end
          done;
          Alcotest.check fe (Printf.sprintf "lambda_%d (n=%d)" i n) (Field.div !num !den) li)
        lam)
    [ 1; 2; 5; 16; 64 ]

let qcheck_eval_many_eq_horner =
  QCheck.Test.make ~name:"eval_many = per-point Horner" ~count:300
    QCheck.(pair (list_of_size Gen.(0 -- 6) arbitrary_fe) (int_range 1 12))
    (fun (coeffs, n) ->
      let p = Poly.of_coeffs (Array.of_list coeffs) in
      let many = Poly.eval_many p n in
      Array.length many = n
      && Array.for_all2 Field.equal many
           (Array.init n (fun i -> Poly.eval p (Field.of_int (i + 1)))))

let test_eval_many_degenerate () =
  (* Constant (threshold = 0) and zero polynomials. *)
  let c = Poly.constant (Field.of_int 5) in
  Array.iter (fun v -> Alcotest.check fe "constant" (Field.of_int 5) v) (Poly.eval_many c 7);
  Array.iter (fun v -> Alcotest.check fe "zero poly" Field.zero v) (Poly.eval_many Poly.zero 4);
  Alcotest.(check int) "n=1" 1 (Array.length (Poly.eval_many c 1))

(* --- Shamir ------------------------------------------------------- *)

let test_shamir_reconstruct () =
  let rng = rng () in
  let secret = Field.of_int 777 in
  let shares, _ = Shamir.share rng ~threshold:2 ~parties:5 ~secret in
  (* Any 3 of 5 shares reconstruct. *)
  List.iter
    (fun idxs ->
      let subset = List.map (fun i -> shares.(i)) idxs in
      Alcotest.check fe "reconstruct" secret (Shamir.reconstruct subset))
    [ [ 0; 1; 2 ]; [ 2; 3; 4 ]; [ 0; 2; 4 ]; [ 1; 3; 4 ] ]

let test_shamir_t_shares_vary () =
  (* Two sharings of different secrets must not produce systematically
     equal share values at any single index. *)
  let rng = rng () in
  let differs = ref 0 in
  for _ = 1 to 50 do
    let s0, _ = Shamir.share rng ~threshold:1 ~parties:3 ~secret:Field.zero in
    let s1, _ = Shamir.share rng ~threshold:1 ~parties:3 ~secret:Field.one in
    if not (Field.equal s0.(0).Shamir.value s1.(0).Shamir.value) then incr differs
  done;
  Alcotest.(check bool) "shares vary" true (!differs > 40)

let test_shamir_threshold_zero () =
  let rng = rng () in
  let shares, _ = Shamir.share rng ~threshold:0 ~parties:3 ~secret:(Field.of_int 5) in
  Array.iter (fun s -> Alcotest.check fe "constant poly" (Field.of_int 5) s.Shamir.value) shares

let qcheck_shamir_roundtrip =
  QCheck.Test.make ~name:"shamir share/reconstruct" ~count:100
    QCheck.(pair arbitrary_fe (int_range 1 4))
    (fun (secret, t) ->
      let rng = Sb_util.Rng.create (Field.to_int secret + t) in
      let n = (2 * t) + 1 in
      let shares, _ = Shamir.share rng ~threshold:t ~parties:n ~secret in
      let subset = Array.to_list (Array.sub shares 0 (t + 1)) in
      Field.equal secret (Shamir.reconstruct subset))

(* --- Modgroup / Feldman ------------------------------------------- *)

let test_modgroup_order () =
  Alcotest.(check bool) "g is member" true (Modgroup.is_member (Modgroup.to_int Modgroup.g));
  Alcotest.(check bool) "g^order = 1" true
    (Modgroup.equal Modgroup.one (Modgroup.pow_int Modgroup.g Modgroup.order));
  Alcotest.(check bool) "2 is not a member" false (Modgroup.is_member 2)

let test_modgroup_inv () =
  let h = Modgroup.pow_int Modgroup.g 12345 in
  Alcotest.(check bool) "h * h^-1 = 1" true
    (Modgroup.equal Modgroup.one (Modgroup.mul h (Modgroup.inv h)))

let arbitrary_member =
  (* Random subgroup members as g^r: every member is a power of g. *)
  QCheck.map (fun r -> Modgroup.pow_int Modgroup.g r) QCheck.(int_range 1 (Modgroup.order - 1))

let qcheck_modgroup_inv_matches_pow =
  (* The extended-Euclid inverse against the old h^(q-1) definition. *)
  QCheck.Test.make ~name:"euclid inv = pow (order-1)" ~count:300 arbitrary_member (fun h ->
      Modgroup.equal (Modgroup.inv h) (Modgroup.pow_int h (Modgroup.order - 1)))

let qcheck_modgroup_pow_g_windowed =
  QCheck.Test.make ~name:"fixed-base pow_g = naive pow" ~count:500 arbitrary_fe (fun e ->
      Modgroup.equal (Modgroup.pow_g e) (Modgroup.pow Modgroup.g e))

let qcheck_modgroup_pow_h_windowed =
  QCheck.Test.make ~name:"fixed-base pow h = naive pow" ~count:500 arbitrary_fe (fun e ->
      Modgroup.equal (Modgroup.pow Modgroup.h e) (Modgroup.pow_naive Modgroup.h e))

let qcheck_modgroup_pow_gh_fused =
  QCheck.Test.make ~name:"pow_gh = mul (pow g a) (pow h b)" ~count:500
    QCheck.(pair arbitrary_fe arbitrary_fe)
    (fun (a, b) ->
      Modgroup.equal (Modgroup.pow_gh a b)
        (Modgroup.mul (Modgroup.pow Modgroup.g a) (Modgroup.pow Modgroup.h b)))

let test_modgroup_pow_boundaries () =
  (* Window-table edges: exponents 0, 1, 15, 16, and q-1. *)
  List.iter
    (fun e ->
      let e = Field.of_int e in
      Alcotest.(check bool) "pow_g edge" true
        (Modgroup.equal (Modgroup.pow_g e) (Modgroup.pow Modgroup.g e));
      Alcotest.(check bool) "pow_gh edge" true
        (Modgroup.equal (Modgroup.pow_gh e e)
           (Modgroup.mul (Modgroup.pow Modgroup.g e) (Modgroup.pow Modgroup.h e))))
    [ 0; 1; 15; 16; 255; 256; Field.p - 1 ]

(* --- Montgomery arithmetic ----------------------------------------- *)

let qcheck_mont_roundtrip =
  QCheck.Test.make ~name:"REDC round-trip: to_elt (of_elt x) = x" ~count:1000
    arbitrary_member (fun x ->
      Modgroup.equal (Modgroup.Mont.to_elt (Modgroup.Mont.of_elt x)) x)

let qcheck_mont_mul_matches_group =
  QCheck.Test.make ~name:"mont mul = group mul" ~count:1000
    QCheck.(pair arbitrary_member arbitrary_member)
    (fun (a, b) ->
      Modgroup.equal
        (Modgroup.Mont.to_elt
           (Modgroup.Mont.mul (Modgroup.Mont.of_elt a) (Modgroup.Mont.of_elt b)))
        (Modgroup.mul a b))

let qcheck_mont_pow_matches_naive =
  (* Arbitrary bases dispatch to the Montgomery ladder in [pow]; the
     division ladder [pow_naive] is the reference. *)
  QCheck.Test.make ~name:"arbitrary-base pow = naive pow" ~count:500
    QCheck.(pair arbitrary_member arbitrary_fe)
    (fun (b, e) -> Modgroup.equal (Modgroup.pow b e) (Modgroup.pow_naive b e))

let test_mont_pow_boundaries () =
  (* Exponent edges for a non-g/h base: 0, 1, 2, q-2, q-1. *)
  let b = Modgroup.pow_int Modgroup.g 777 in
  List.iter
    (fun e ->
      let e = Field.of_int e in
      Alcotest.(check bool) "pow edge = naive" true
        (Modgroup.equal (Modgroup.pow b e) (Modgroup.pow_naive b e)))
    [ 0; 1; 2; Field.p - 2; Field.p - 1 ];
  Alcotest.(check bool) "mont one is the identity" true
    (Modgroup.equal Modgroup.one (Modgroup.Mont.to_elt Modgroup.Mont.one));
  let m = Modgroup.Mont.of_elt b in
  Alcotest.(check bool) "in-domain m^0 = 1" true
    (Modgroup.equal Modgroup.one (Modgroup.Mont.to_elt (Modgroup.Mont.pow m 0)));
  Alcotest.(check bool) "in-domain m^1 = b" true
    (Modgroup.equal b (Modgroup.Mont.to_elt (Modgroup.Mont.pow m 1)))

let test_modgroup_exponent_arith () =
  (* g^a * g^b = g^(a+b mod q). *)
  let a = Field.of_int 1000000 and b = Field.of_int (Field.p - 3) in
  let lhs = Modgroup.mul (Modgroup.pow_g a) (Modgroup.pow_g b) in
  Alcotest.(check bool) "homomorphic" true
    (Modgroup.equal lhs (Modgroup.pow_g (Field.add a b)))

let test_feldman_verifies_honest () =
  let rng = rng () in
  let shares, c = Feldman.deal rng ~threshold:2 ~parties:5 ~secret:(Field.of_int 42) in
  Array.iter
    (fun s -> Alcotest.(check bool) "share verifies" true (Feldman.verify_share c s))
    shares;
  Alcotest.(check bool) "secret verifies" true (Feldman.verify_secret c (Field.of_int 42));
  Alcotest.(check bool) "wrong secret rejected" false
    (Feldman.verify_secret c (Field.of_int 43))

let test_feldman_rejects_bad_share () =
  let rng = rng () in
  let shares, c = Feldman.deal rng ~threshold:2 ~parties:5 ~secret:(Field.of_int 7) in
  let bad = { shares.(1) with Shamir.value = Field.add shares.(1).Shamir.value Field.one } in
  Alcotest.(check bool) "tampered share rejected" false (Feldman.verify_share c bad)

let test_feldman_binding_across_sharings () =
  let rng = rng () in
  let _, c0 = Feldman.deal rng ~threshold:1 ~parties:3 ~secret:Field.zero in
  let _, c1 = Feldman.deal rng ~threshold:1 ~parties:3 ~secret:Field.one in
  Alcotest.(check bool) "distinct commitments" false (Array.for_all2 Modgroup.equal c0 c1)

let qcheck_feldman_all_shares_verify =
  QCheck.Test.make ~name:"feldman honest shares verify" ~count:50
    QCheck.(pair arbitrary_fe (int_range 1 3))
    (fun (secret, t) ->
      let rng = Sb_util.Rng.create ((Field.to_int secret * 31) + t) in
      let n = (2 * t) + 1 in
      let shares, c = Feldman.deal rng ~threshold:t ~parties:n ~secret in
      Array.for_all (fun s -> Feldman.verify_share c s) shares)

(* --- Pedersen ------------------------------------------------------ *)

let test_pedersen_verifies_honest () =
  let rng = rng () in
  let d = Pedersen.deal rng ~threshold:2 ~parties:5 ~secret:(Field.of_int 1) in
  Array.iter
    (fun s -> Alcotest.(check bool) "share verifies" true (Pedersen.verify_share d.Pedersen.commitment s))
    d.Pedersen.shares;
  Alcotest.(check bool) "opening verifies" true
    (Pedersen.verify_opening d.Pedersen.commitment ~secret:(Field.of_int 1)
       ~blind:d.Pedersen.blind0)

let test_pedersen_rejects_tampering () =
  let rng = rng () in
  let d = Pedersen.deal rng ~threshold:2 ~parties:5 ~secret:(Field.of_int 7) in
  let s = d.Pedersen.shares.(2) in
  Alcotest.(check bool) "tampered value" false
    (Pedersen.verify_share d.Pedersen.commitment
       { s with Pedersen.value = Field.add s.Pedersen.value Field.one });
  Alcotest.(check bool) "tampered blind" false
    (Pedersen.verify_share d.Pedersen.commitment
       { s with Pedersen.blind = Field.add s.Pedersen.blind Field.one });
  Alcotest.(check bool) "wrong secret opening" false
    (Pedersen.verify_opening d.Pedersen.commitment ~secret:(Field.of_int 8)
       ~blind:d.Pedersen.blind0)

let test_pedersen_reconstruct_both () =
  let rng = rng () in
  let secret = Field.of_int 123 in
  let d = Pedersen.deal rng ~threshold:2 ~parties:5 ~secret in
  let subset = [ d.Pedersen.shares.(0); d.Pedersen.shares.(2); d.Pedersen.shares.(4) ] in
  Alcotest.check fe "value reconstructs" secret (Pedersen.reconstruct subset);
  Alcotest.check fe "blind reconstructs" d.Pedersen.blind0 (Pedersen.reconstruct_blind subset)

let test_pedersen_hiding_shape () =
  (* Perfectly hiding: commitments to 0 and to 1 under fresh blinding
     are both valid group-element vectors; no single component reveals
     the secret bit the way Feldman's g^secret does. We check the
     structural property that the constant-term commitments of many
     0-deals and 1-deals cover overlapping values. *)
  let sample secret seed =
    let rng = Sb_util.Rng.create seed in
    let d = Pedersen.deal rng ~threshold:1 ~parties:3 ~secret in
    Modgroup.to_int d.Pedersen.commitment.(0)
  in
  let zeros = List.init 40 (fun i -> sample Field.zero (1000 + i)) in
  let ones = List.init 40 (fun i -> sample Field.one (2000 + i)) in
  (* All distinct (blinding randomises), none repeated across lists. *)
  Alcotest.(check int) "0-commitments distinct" 40
    (List.length (List.sort_uniq Int.compare zeros));
  Alcotest.(check int) "1-commitments distinct" 40
    (List.length (List.sort_uniq Int.compare ones))

let qcheck_pedersen_roundtrip =
  QCheck.Test.make ~name:"pedersen deal/verify/reconstruct" ~count:40
    QCheck.(pair arbitrary_fe (int_range 1 3))
    (fun (secret, t) ->
      let rng = Sb_util.Rng.create ((Field.to_int secret * 7) + t) in
      let nparties = (2 * t) + 1 in
      let d = Pedersen.deal rng ~threshold:t ~parties:nparties ~secret in
      Array.for_all (Pedersen.verify_share d.Pedersen.commitment) d.Pedersen.shares
      && Field.equal secret
           (Pedersen.reconstruct (Array.to_list (Array.sub d.Pedersen.shares 0 (t + 1)))))

(* --- Memoized share verdicts (Sb_protocols.Check_memo) ------------- *)

module Memo = Sb_protocols.Check_memo

(* Run [case] for each seed on a pool of [domains] workers, so every
   domain-local table is exercised; a case returns (label, memoized,
   uncached) triples. *)
let on_pool domains seeds case =
  let pool = Sb_par.Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () -> Sb_par.Pool.map_chunks pool ~f:case (Array.of_list seeds))
  |> Array.iter
       (List.iter (fun (label, memo, plain) -> Alcotest.(check bool) label plain memo))

let check_both c s = (Memo.verify_share c s, Pedersen.verify_share c s)

let memo_random_and_tampered seed =
  let rng = Sb_util.Rng.create seed in
  let t = 1 + Sb_util.Rng.int rng 3 in
  let n = (2 * t) + 1 in
  let d = Pedersen.deal rng ~threshold:t ~parties:n ~secret:(Field.random rng) in
  let other = Pedersen.deal rng ~threshold:t ~parties:n ~secret:(Field.random rng) in
  let c = d.Pedersen.commitment in
  List.concat_map
    (fun (s : Pedersen.share) ->
      let cases =
        [
          ("honest", c, s);
          ("value + 1", c, { s with Pedersen.value = Field.add s.Pedersen.value Field.one });
          ("blind + 1", c, { s with Pedersen.blind = Field.add s.Pedersen.blind Field.one });
          ("index moved", c, { s with Pedersen.index = (s.Pedersen.index + 1) mod n });
          ("other commitment", other.Pedersen.commitment, s);
          ("random pair", c, { s with Pedersen.value = Field.random rng; blind = Field.random rng });
        ]
      in
      (* Twice: the second pass is served by the memo. *)
      List.concat_map
        (fun pass ->
          List.map
            (fun (what, c, s) ->
              let memo, plain = check_both c s in
              (Printf.sprintf "seed %d pass %d share %d %s" seed pass s.Pedersen.index what, memo, plain))
            cases)
        [ 1; 2 ])
    (Array.to_list d.Pedersen.shares)

let memo_same_slot seed =
  let rng = Sb_util.Rng.create seed in
  let d = Pedersen.deal rng ~threshold:2 ~parties:5 ~secret:Field.one in
  let c = d.Pedersen.commitment in
  let s = d.Pedersen.shares.(seed mod 5) in
  (* The slot reads only the first commitment element, so changing a
     later one keeps the slot and changes the verdict. *)
  let c' = Array.copy c in
  c'.(1) <- Modgroup.mul c'.(1) Modgroup.g;
  assert (Memo.share_slot c s = Memo.share_slot c' s);
  (* A second share forced into the same slot by search. *)
  let rec collide () =
    let s2 = { s with Pedersen.value = Field.random rng } in
    if Memo.share_slot c s2 = Memo.share_slot c s then s2 else collide ()
  in
  let s2 = collide () in
  List.mapi
    (fun i (c, s) ->
      let memo, plain = check_both c s in
      (Printf.sprintf "seed %d same-slot lookup %d" seed i, memo, plain))
    [ (c, s); (c', s); (c, s); (c, s2); (c, s); (c', s); (c', s) ]

let memo_mutated_commitment seed =
  let rng = Sb_util.Rng.create seed in
  let d = Pedersen.deal rng ~threshold:2 ~parties:5 ~secret:Field.zero in
  let c = Array.copy d.Pedersen.commitment in
  let s = d.Pedersen.shares.(seed mod 5) in
  let first = check_both c s in
  (* Mutate the caller's array in place: the memo must hold its own
     copy, not an alias that changes with it. *)
  c.(2) <- Modgroup.mul c.(2) Modgroup.h;
  let after = check_both c s in
  c.(2) <- d.Pedersen.commitment.(2);
  let restored = check_both c s in
  List.map
    (fun (label, (memo, plain)) -> (Printf.sprintf "seed %d %s" seed label, memo, plain))
    [ ("first use", first); ("after mutation", after); ("restored", restored) ]

let test_memo_verdicts domains () =
  let seeds = List.init 12 (fun i -> 100 + i) in
  on_pool domains seeds memo_random_and_tampered;
  on_pool domains seeds memo_same_slot;
  on_pool domains seeds memo_mutated_commitment

(* --- Commit ------------------------------------------------------- *)

let test_commit_roundtrip backend () =
  let s = Commit.create backend in
  let rng = rng () in
  let c, o = Commit.commit s rng "hello" in
  Alcotest.(check bool) "verifies" true (Commit.verify s c o);
  Alcotest.(check bool) "wrong value rejected" false
    (Commit.verify s c { o with Commit.value = "world" })

let test_commit_hiding backend () =
  (* Same value twice gives different commitment strings. *)
  let s = Commit.create backend in
  let rng = rng () in
  let c1, _ = Commit.commit s rng "v" in
  let c2, _ = Commit.commit s rng "v" in
  Alcotest.(check bool) "distinct commitments" false (String.equal c1 c2)

let test_commit_extract () =
  let s = Commit.create Commit.Ideal in
  let rng = rng () in
  let c, _ = Commit.commit s rng "payload" in
  Alcotest.(check (option string)) "extract" (Some "payload") (Commit.extract s c);
  Alcotest.(check (option string)) "unknown handle" None (Commit.extract s "nonsense")

let test_commit_hash_extract_records_oracle () =
  let s = Commit.create Commit.Hash in
  let rng = rng () in
  let c, _ = Commit.commit s rng "seen" in
  Alcotest.(check (option string)) "extracts own commits" (Some "seen") (Commit.extract s c);
  Alcotest.(check (option string)) "blind on foreign strings" None
    (Commit.extract s (String.make 32 'x'))

let test_commit_equivocation () =
  let s = Commit.create Commit.Ideal in
  let rng = rng () in
  let c = Commit.commit_placeholder s rng in
  let o = Commit.equivocate s c "late-bound" in
  Alcotest.(check bool) "equivocated opening verifies" true (Commit.verify s c o);
  Alcotest.check_raises "double bind rejected"
    (Invalid_argument "Commit.equivocate: handle already bound") (fun () ->
      ignore (Commit.equivocate s c "other"))

let test_commit_hash_no_equivocation () =
  let s = Commit.create Commit.Hash in
  let rng = rng () in
  Alcotest.check_raises "hash backend placeholder"
    (Invalid_argument "Commit.commit_placeholder: Hash backend is not equivocable") (fun () ->
      ignore (Commit.commit_placeholder s rng))

let test_commit_binding_hash () =
  let s = Commit.create Commit.Hash in
  let rng = rng () in
  let c, o = Commit.commit s rng "bind-me" in
  Alcotest.(check bool) "other nonce rejected" false
    (Commit.verify s c
       { o with Commit.nonce = String.make (String.length o.Commit.nonce) '\000' })

(* The commit memo's differential: every Hash [verify] verdict equals
   [verify_uncached], on random (commitment, opening) triples and
   their tamperings (value, nonce, commitment), mixed with keys forced
   into one slot, each checked twice so lookups both hit and find
   their slot taken. Each case runs in whichever domain the pool hands
   it to, against that domain's table. *)
let commit_memo_cases seed =
  let rng = Sb_util.Rng.create seed in
  let s = Commit.create Commit.Hash in
  let flip str =
    if str = "" then "x"
    else begin
      let b = Bytes.of_string str in
      Bytes.set b 0 (Char.chr (Char.code str.[0] lxor 1));
      Bytes.to_string b
    end
  in
  let committed () =
    Commit.commit s rng (Sb_util.Rng.bytes rng (Sb_util.Rng.int rng 24))
  in
  let honest = List.init 30 (fun _ -> committed ()) in
  let tampered =
    List.concat_map
      (fun (c, (o : Commit.opening)) ->
        [
          (c, { o with Commit.value = flip o.Commit.value });
          (c, { o with Commit.nonce = flip o.Commit.nonce });
          (flip c, o);
        ])
      honest
  in
  (* A second honest key in the first key's slot. *)
  let c0, o0 = List.hd honest in
  let rec same_slot () =
    let c, o = committed () in
    if Commit.slot c o = Commit.slot c0 o0 then (c, o) else same_slot ()
  in
  let forced =
    [ (c0, o0); same_slot (); (c0, { o0 with Commit.nonce = flip o0.Commit.nonce }) ]
  in
  let triples = forced @ honest @ tampered @ List.rev forced @ honest @ tampered @ forced in
  List.mapi
    (fun i (c, o) ->
      ( Printf.sprintf "seed %d case %d" seed i,
        Commit.verify s c o,
        Commit.verify_uncached s c o ))
    triples

let test_commit_memo domains () =
  let pool = Sb_par.Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () ->
      Sb_par.Pool.map_chunks pool ~f:commit_memo_cases (Array.init 8 (fun i -> 80 + i)))
  |> Array.iter
       (List.iter (fun (label, memo, plain) -> Alcotest.(check bool) label plain memo))

(* Why the Ideal backend is never memoized: [equivocate] rebinds a
   placeholder, so the same (commitment, opening) triple is rejected
   before and accepted after. *)
let test_commit_ideal_rebinding domains () =
  let pool = Sb_par.Pool.create ~domains () in
  let case seed =
    let s = Commit.create Commit.Ideal in
    let c = Commit.commit_placeholder s (Sb_util.Rng.create seed) in
    let o = { Commit.value = "late"; nonce = "" } in
    let before = Commit.verify s c o in
    ignore (Commit.equivocate s c "late");
    (before, Commit.verify s c o)
  in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () -> Sb_par.Pool.map_chunks pool ~f:case (Array.init 4 (fun i -> 90 + i)))
  |> Array.iter (fun (before, after) ->
         Alcotest.(check bool) "placeholder rejected before equivocate" false before;
         Alcotest.(check bool) "accepted after equivocate" true after)

(* --- Sig ---------------------------------------------------------- *)

let test_sig_verify () =
  let rng = rng () in
  let s = Sig.create rng ~n:4 in
  let m = "round-1 value" in
  let signature = Sig.sign s ~signer:2 m in
  Alcotest.(check bool) "verifies" true (Sig.verify s ~signer:2 m signature);
  Alcotest.(check bool) "other signer rejected" false (Sig.verify s ~signer:1 m signature);
  Alcotest.(check bool) "other message rejected" false
    (Sig.verify s ~signer:2 "tampered" signature);
  Alcotest.(check bool) "out of range signer" false (Sig.verify s ~signer:7 m signature)

let test_sig_schemes_independent () =
  let rng = rng () in
  let s1 = Sig.create rng ~n:2 and s2 = Sig.create rng ~n:2 in
  let m = "msg" in
  Alcotest.(check bool) "cross-scheme rejected" false
    (Sig.verify s2 ~signer:0 m (Sig.sign s1 ~signer:0 m))

(* The memo's differential: every [sign] answer and every [verify]
   verdict equals what [sign_uncached] gives, on random triples mixed
   with keys forced into one slot. Each case runs in whichever domain
   the pool hands it to, against that domain's table. *)
let sig_memo_cases seed =
  let rng = Sb_util.Rng.create seed in
  let n = 5 in
  let s1 = Sig.create rng ~n and s2 = Sig.create rng ~n in
  let schemes = [| s1; s2 |] in
  let msg () = Sb_util.Rng.bytes rng (Sb_util.Rng.int rng 40) in
  (* The first numbered candidate message that satisfies [pred]. *)
  let rec find_msg pred i =
    let m = Printf.sprintf "seed %d msg %d" seed i in
    if pred m then m else find_msg pred (i + 1)
  in
  let base = msg () in
  let same_slot =
    (* Same scheme, same signer, another message in the slot. *)
    find_msg (fun m -> Sig.slot s1 ~signer:2 m = Sig.slot s1 ~signer:2 base) 0
  in
  let other_signer =
    (* Another signer's (signer, message) pair in the slot. *)
    find_msg (fun m -> Sig.slot s1 ~signer:3 m = Sig.slot s1 ~signer:2 base) 0
  in
  let cross_scheme =
    (* One (signer, message) pair in the same slot under both schemes. *)
    find_msg (fun m -> Sig.slot s1 ~signer:1 m = Sig.slot s2 ~signer:1 m) 0
  in
  let forced =
    [
      (s1, 2, base);
      (s1, 2, same_slot);
      (s1, 3, other_signer);
      (s1, 1, cross_scheme);
      (s2, 1, cross_scheme);
    ]
  in
  let random =
    List.init 60 (fun _ ->
        (schemes.(Sb_util.Rng.int rng 2), Sb_util.Rng.int rng n, msg ()))
  in
  (* Every triple twice, interleaved with the others, so lookups both
     hit and find their slot taken by a colliding key. *)
  let triples = forced @ random @ forced @ List.rev forced @ random in
  List.mapi
    (fun i (s, signer, m) ->
      let label = Printf.sprintf "seed %d case %d signer %d" seed i signer in
      let expected = Sig.sign_uncached s ~signer m in
      let signature = Sig.sign s ~signer m in
      let tampered = Bytes.of_string expected in
      Bytes.set tampered 0 (Char.chr (Char.code expected.[0] lxor 1));
      let tampered = Bytes.to_string tampered in
      ( label,
        String.equal signature expected,
        [
          Sig.verify s ~signer m expected;
          not (Sig.verify s ~signer:((signer + 1) mod n) m expected);
          not (Sig.verify s ~signer:(-1) m expected);
          not (Sig.verify s ~signer:n m expected);
          not (Sig.verify s ~signer m tampered);
          not (Sig.verify (if s == s1 then s2 else s1) ~signer m expected);
        ] ))
    triples

let test_sig_memo domains () =
  let pool = Sb_par.Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () -> Sb_par.Pool.map_chunks pool ~f:sig_memo_cases (Array.init 8 (fun i -> 60 + i)))
  |> Array.iter
       (List.iter (fun (label, signed, verdicts) ->
            Alcotest.(check bool) (label ^ " sign") true signed;
            Alcotest.(check (list bool)) (label ^ " verify") (List.map (fun _ -> true) verdicts)
              verdicts))

let () =
  Alcotest.run "sb_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha_fips_vectors;
          Alcotest.test_case "million a's" `Slow test_sha_million_a;
          Alcotest.test_case "incremental = one-shot" `Quick test_sha_incremental_matches_oneshot;
          Alcotest.test_case "avalanche" `Quick test_sha_avalanche;
          Alcotest.test_case "xor_strings" `Quick test_sha_xor_strings;
        ] );
      ( "field",
        [
          Alcotest.test_case "basic identities" `Quick test_field_basic;
          Alcotest.test_case "pow" `Quick test_field_pow;
          Alcotest.test_case "inv zero raises" `Quick test_field_inv_zero_raises;
          QCheck_alcotest.to_alcotest qcheck_field_assoc;
          QCheck_alcotest.to_alcotest qcheck_field_distrib;
          QCheck_alcotest.to_alcotest qcheck_field_inverse;
          QCheck_alcotest.to_alcotest qcheck_field_add_comm;
        ] );
      ( "poly",
        [
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "normalisation" `Quick test_poly_normalisation;
          Alcotest.test_case "interpolation recovers" `Quick test_poly_interpolate_recovers;
          Alcotest.test_case "duplicate abscissae" `Quick test_poly_interpolate_rejects_duplicates;
          QCheck_alcotest.to_alcotest qcheck_poly_add_eval;
          QCheck_alcotest.to_alcotest qcheck_poly_mul_eval;
        ] );
      ( "lagrange",
        [
          Alcotest.test_case "single point" `Quick test_lagrange_single_point;
          Alcotest.test_case "duplicate abscissae" `Quick test_lagrange_rejects_duplicates;
          Alcotest.test_case "at_zero = num/den formula" `Quick test_lagrange_at_zero_matches_direct;
          Alcotest.test_case "mask-keyed subsets = Poly.interpolate_at" `Quick
            test_lagrange_mask_subsets;
          Alcotest.test_case "eval_many degenerate" `Quick test_eval_many_degenerate;
          QCheck_alcotest.to_alcotest qcheck_lagrange_cached_eq_uncached;
          QCheck_alcotest.to_alcotest qcheck_eval_many_eq_horner;
        ] );
      ( "shamir",
        [
          Alcotest.test_case "reconstruct" `Quick test_shamir_reconstruct;
          Alcotest.test_case "shares vary" `Quick test_shamir_t_shares_vary;
          Alcotest.test_case "threshold zero" `Quick test_shamir_threshold_zero;
          QCheck_alcotest.to_alcotest qcheck_shamir_roundtrip;
        ] );
      ( "feldman",
        [
          Alcotest.test_case "group order" `Quick test_modgroup_order;
          Alcotest.test_case "group inverse" `Quick test_modgroup_inv;
          Alcotest.test_case "exponent homomorphism" `Quick test_modgroup_exponent_arith;
          Alcotest.test_case "window-table boundaries" `Quick test_modgroup_pow_boundaries;
          QCheck_alcotest.to_alcotest qcheck_modgroup_inv_matches_pow;
          QCheck_alcotest.to_alcotest qcheck_modgroup_pow_g_windowed;
          QCheck_alcotest.to_alcotest qcheck_modgroup_pow_h_windowed;
          QCheck_alcotest.to_alcotest qcheck_modgroup_pow_gh_fused;
          Alcotest.test_case "montgomery boundaries" `Quick test_mont_pow_boundaries;
          QCheck_alcotest.to_alcotest qcheck_mont_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_mont_mul_matches_group;
          QCheck_alcotest.to_alcotest qcheck_mont_pow_matches_naive;
          Alcotest.test_case "honest shares verify" `Quick test_feldman_verifies_honest;
          Alcotest.test_case "bad share rejected" `Quick test_feldman_rejects_bad_share;
          Alcotest.test_case "binding across sharings" `Quick test_feldman_binding_across_sharings;
          QCheck_alcotest.to_alcotest qcheck_feldman_all_shares_verify;
        ] );
      ( "pedersen",
        [
          Alcotest.test_case "honest verifies" `Quick test_pedersen_verifies_honest;
          Alcotest.test_case "tampering rejected" `Quick test_pedersen_rejects_tampering;
          Alcotest.test_case "reconstruct value and blind" `Quick test_pedersen_reconstruct_both;
          Alcotest.test_case "hiding shape" `Quick test_pedersen_hiding_shape;
          QCheck_alcotest.to_alcotest qcheck_pedersen_roundtrip;
          Alcotest.test_case "memoized verdicts, 1 domain" `Quick (test_memo_verdicts 1);
          Alcotest.test_case "memoized verdicts, 2 domains" `Quick (test_memo_verdicts 2);
        ] );
      ( "commit",
        [
          Alcotest.test_case "hash roundtrip" `Quick (test_commit_roundtrip Commit.Hash);
          Alcotest.test_case "ideal roundtrip" `Quick (test_commit_roundtrip Commit.Ideal);
          Alcotest.test_case "hash hiding" `Quick (test_commit_hiding Commit.Hash);
          Alcotest.test_case "ideal hiding" `Quick (test_commit_hiding Commit.Ideal);
          Alcotest.test_case "ideal extraction" `Quick test_commit_extract;
          Alcotest.test_case "hash oracle extraction" `Quick test_commit_hash_extract_records_oracle;
          Alcotest.test_case "equivocation" `Quick test_commit_equivocation;
          Alcotest.test_case "hash not equivocable" `Quick test_commit_hash_no_equivocation;
          Alcotest.test_case "hash binding" `Quick test_commit_binding_hash;
          Alcotest.test_case "memo = uncached, 1 domain" `Quick (test_commit_memo 1);
          Alcotest.test_case "memo = uncached, 2 domains" `Quick (test_commit_memo 2);
          Alcotest.test_case "ideal rebinding, 1 domain" `Quick (test_commit_ideal_rebinding 1);
          Alcotest.test_case "ideal rebinding, 2 domains" `Quick (test_commit_ideal_rebinding 2);
        ] );
      ( "sig",
        [
          Alcotest.test_case "verify" `Quick test_sig_verify;
          Alcotest.test_case "schemes independent" `Quick test_sig_schemes_independent;
          Alcotest.test_case "memo = uncached, 1 domain" `Quick (test_sig_memo 1);
          Alcotest.test_case "memo = uncached, 2 domains" `Quick (test_sig_memo 2);
        ] );
    ]
