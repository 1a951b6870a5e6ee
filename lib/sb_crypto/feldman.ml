type commitment = Modgroup.elt array

(* Coefficient commitments are fixed-base g-exponentiations, so they
   ride the Modgroup window table via pow_g. *)
let commit f ~threshold =
  let coeffs = Poly.coeffs f in
  assert (Array.length coeffs <= threshold + 1);
  Array.init (threshold + 1) (fun j ->
      if j < Array.length coeffs then Modgroup.pow_g coeffs.(j)
      else Modgroup.pow_g Field.zero)

let verify_share c (s : Shamir.share) =
  Modgroup.equal (Modgroup.pow_g s.value) (Modgroup.horner c (Shamir.eval_point s.index))

let verify_secret c secret =
  Array.length c > 0 && Modgroup.equal (Modgroup.pow_g secret) c.(0)

let deal rng ~threshold ~parties ~secret =
  let shares, f = Shamir.share rng ~threshold ~parties ~secret in
  (shares, commit f ~threshold)
