type t = Field.t array
(* Invariant: empty, or last coefficient non-zero. *)

let normalise a =
  let n = ref (Array.length a) in
  while !n > 0 && Field.equal a.(!n - 1) Field.zero do
    decr n
  done;
  Array.sub a 0 !n

let of_coeffs a = normalise (Array.copy a)
let coeffs p = Array.copy p
let constant c = normalise [| c |]

let eval p x =
  let acc = ref Field.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Field.add (Field.mul !acc x) p.(i)
  done;
  !acc

let eval_many p n =
  (* Evaluations at x = 1..n in one pass over the coefficients: each
     step folds coefficient p.(j) into every accumulator, so acc.(i)
     performs exactly the Horner recurrence of [eval p (i+1)] and the
     results are bit-identical to the per-point loop, with one array
     traversal per coefficient instead of per point. *)
  let acc = Array.make n Field.zero in
  let xs = Array.init n (fun i -> Field.of_int (i + 1)) in
  for j = Array.length p - 1 downto 0 do
    let pj = p.(j) in
    for i = 0 to n - 1 do
      acc.(i) <- Field.add (Field.mul acc.(i) xs.(i)) pj
    done
  done;
  acc

let random rng ~degree ~constant =
  assert (degree >= 0);
  let a = Array.init (degree + 1) (fun i -> if i = 0 then constant else Field.random rng) in
  normalise a

let check_distinct pts =
  let xs = List.map fst pts in
  let sorted = List.sort (fun a b -> Int.compare (Field.to_int a) (Field.to_int b)) xs in
  let rec dup = function
    | a :: (b :: _ as rest) -> Field.equal a b || dup rest
    | _ -> false
  in
  if dup sorted then invalid_arg "Poly.interpolate_at: duplicate abscissae"

let interpolate_at pts x0 =
  check_distinct pts;
  List.fold_left
    (fun acc (xj, yj) ->
      let lj =
        List.fold_left
          (fun l (xm, _) ->
            if Field.equal xm xj then l
            else Field.mul l (Field.div (Field.sub x0 xm) (Field.sub xj xm)))
          Field.one pts
      in
      Field.add acc (Field.mul yj lj))
    Field.zero pts
