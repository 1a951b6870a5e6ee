open Sb_util

type membership = { independent : bool; psi_l : bool; psi_c : bool }

type entry = { ensemble : Ensemble.t; expected : membership; note : string }

let product_membership = { independent = true; psi_l = true; psi_c = true }
let correlated_membership = { independent = false; psi_l = false; psi_c = false }

let uniform n =
  {
    ensemble = Ensemble.constant ~name:"uniform" (Dist.uniform n);
    expected = product_membership;
    note = "the distribution of [8,12]'s original definitions";
  }

let singleton v =
  {
    ensemble =
      Ensemble.constant ~name:(Printf.sprintf "singleton(%s)" (Bitvec.to_string v))
        (Dist.singleton v);
    expected = product_membership;
    note = "point mass; trivial for CR (Prop. 6.3)";
  }

let biased_product p n =
  {
    ensemble =
      Ensemble.constant ~name:(Printf.sprintf "bernoulli(%.2f)^n" p) (Dist.product p n);
    expected = product_membership;
    note = "independent but non-uniform";
  }

let mixed_bias_product n =
  let p = Array.init n (fun i -> 0.2 +. (0.6 *. float_of_int i /. float_of_int (max 1 (n - 1)))) in
  {
    ensemble = Ensemble.constant ~name:"mixed-bias product" (Dist.bernoulli_product p);
    expected = product_membership;
    note = "independent, per-coordinate biases";
  }

let almost_uniform n =
  let at k =
    let eps = Float.pow 2.0 (-.float_of_int k) in
    Dist.mixture [ (1.0 -. eps, Dist.uniform n); (eps, Dist.xor_parity n) ]
  in
  {
    ensemble = Ensemble.make ~name:"almost-uniform (2^-k parity tilt)" ~n at;
    expected = { independent = false; psi_l = true; psi_c = true };
    note = "negligibly far from uniform: in psi_L without being a product";
  }

let rare_leak n =
  (* Coordinates are Bernoulli(2^-k), so the all-ones event is far
     rarer than the 2^-k leak that forces it; conditioning on seeing
     all-ones on any subset then lands almost surely inside the leak,
     where the rest of the vector is deterministically all-ones too:
     the conditional gap of the psi_L definition stays near 1 while
     the TVD to the underlying product stays 2^-k. *)
  let at k =
    let eps = Float.pow 2.0 (-.float_of_int k) in
    Dist.mixture
      [
        (1.0 -. eps, Dist.product eps n);
        (eps, Dist.singleton (Bitvec.init n (fun _ -> true)));
      ]
  in
  {
    ensemble = Ensemble.make ~name:"rare-leak (2^-k all-ones tail)" ~n at;
    expected = { independent = false; psi_l = false; psi_c = true };
    note = "in psi_C, NOT in psi_L: conditional gaps survive on the rare tail";
  }

let xor_parity n =
  {
    ensemble = Ensemble.constant ~name:"xor-parity" (Dist.xor_parity n);
    expected = correlated_membership;
    note = "sum of inputs fixed: outside every achievable class but D(Sb)";
  }

let copy_pair n =
  {
    ensemble = Ensemble.constant ~name:"copy-pair" (Dist.copy_pair n);
    expected = correlated_membership;
    note = "x0 = x1 always (two identical voters)";
  }

let noisy_copy n ~flip =
  {
    ensemble =
      Ensemble.constant ~name:(Printf.sprintf "noisy-copy(flip=%.2f)" flip)
        (Dist.noisy_copy n ~flip);
    expected = (if Float.abs (flip -. 0.5) < 1e-9 then product_membership else correlated_membership);
    note = "correlated pair with noise";
  }

let half_singleton n =
  let v = Bitvec.init n (fun i -> i mod 2 = 0) in
  singleton v

let markov n ~flip =
  {
    ensemble =
      Ensemble.constant ~name:(Printf.sprintf "markov(flip=%.2f)" flip) (Dist.markov n ~flip);
    expected =
      (if Float.abs (flip -. 0.5) < 1e-9 then product_membership else correlated_membership);
    note = "neighbourhood-influenced votes";
  }

let one_hot n =
  {
    ensemble = Ensemble.constant ~name:"one-hot" (Dist.one_hot n);
    expected = correlated_membership;
    note = "exactly one 1: maximal negative correlation";
  }

let all_equal n =
  {
    ensemble = Ensemble.constant ~name:"all-equal" (Dist.all_equal n);
    expected = correlated_membership;
    note = "fully polarised electorate (0...0 or 1...1)";
  }

let battery n =
  assert (n >= 3);
  [
    uniform n;
    singleton (Bitvec.zero n);
    half_singleton n;
    biased_product 0.25 n;
    mixed_bias_product n;
    almost_uniform n;
    rare_leak n;
    xor_parity n;
    copy_pair n;
    noisy_copy n ~flip:0.1;
    noisy_copy n ~flip:0.5;
    markov n ~flip:0.2;
    markov n ~flip:0.5;
    one_hot n;
    all_equal n;
  ]

let pp_membership fmt m =
  Format.fprintf fmt "independent=%b psi_L=%b psi_C=%b" m.independent m.psi_l m.psi_c
