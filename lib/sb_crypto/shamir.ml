type share = { index : int; value : Field.t }

let eval_point i = Field.of_int (i + 1)

let share rng ~threshold ~parties ~secret =
  assert (threshold >= 0 && threshold < parties);
  assert (parties < Field.p);
  let f =
    if threshold = 0 then Poly.constant secret
    else Poly.random rng ~degree:threshold ~constant:secret
  in
  let values = Poly.eval_many f parties in
  let shares = Array.init parties (fun i -> { index = i; value = values.(i) }) in
  (shares, f)

let points shares = List.map (fun s -> (eval_point s.index, s.value)) shares

let reconstruct shares =
  Lagrange.interpolate_at_zero ~index:(fun s -> s.index) ~value:(fun s -> s.value) shares

let reconstruct_poly shares = Poly.interpolate (points shares)
