type share = { index : int; value : Field.t; blind : Field.t }
type commitment = Modgroup.elt array

(* Fused fixed-base double exponentiation g^a * h^b — one table pass
   instead of two full square-and-multiply ladders and a multiply.
   Traced runs charge the time to the "commit_pair" attribution
   bucket of the innermost open span. *)
let commit_pair a b =
  if Sb_obs.Trace_ctx.enabled () then begin
    let t0 = Sb_obs.Trace_ctx.now_us () in
    let r = Modgroup.pow_gh a b in
    Sb_obs.Trace_ctx.bucket_add "commit_pair" (Sb_obs.Trace_ctx.now_us () -. t0);
    r
  end
  else Modgroup.pow_gh a b

type dealt = { shares : share array; commitment : commitment; blind0 : Field.t }

let deal rng ~threshold ~parties ~secret =
  let blind0 = Field.random rng in
  let shares_f, f = Shamir.share rng ~threshold ~parties ~secret in
  let shares_f', f' = Shamir.share rng ~threshold ~parties ~secret:blind0 in
  let coeff p j =
    let c = Poly.coeffs p in
    if j < Array.length c then c.(j) else Field.zero
  in
  let commitment = Array.init (threshold + 1) (fun j -> commit_pair (coeff f j) (coeff f' j)) in
  let shares =
    Array.init parties (fun i ->
        { index = i; value = shares_f.(i).Shamir.value; blind = shares_f'.(i).Shamir.value })
  in
  { shares; commitment; blind0 }

let verify_share c s =
  Modgroup.equal (commit_pair s.value s.blind) (Modgroup.horner c (Shamir.eval_point s.index))

let index s = s.index
let reconstruct shares = Lagrange.interpolate_at_zero ~index ~value:(fun s -> s.value) shares
let reconstruct_blind shares = Lagrange.interpolate_at_zero ~index ~value:(fun s -> s.blind) shares
