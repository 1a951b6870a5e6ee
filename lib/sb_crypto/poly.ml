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
let degree p = Array.length p - 1
let zero = [||]
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

let add p q =
  let n = max (Array.length p) (Array.length q) in
  let coeff a i = if i < Array.length a then a.(i) else Field.zero in
  normalise (Array.init n (fun i -> Field.add (coeff p i) (coeff q i)))

let mul p q =
  if Array.length p = 0 || Array.length q = 0 then zero
  else begin
    let r = Array.make (Array.length p + Array.length q - 1) Field.zero in
    Array.iteri
      (fun i pi -> Array.iteri (fun j qj -> r.(i + j) <- Field.add r.(i + j) (Field.mul pi qj)) q)
      p;
    normalise r
  end

let check_distinct pts =
  let xs = List.map fst pts in
  let sorted = List.sort (fun a b -> Int.compare (Field.to_int a) (Field.to_int b)) xs in
  let rec dup = function
    | a :: (b :: _ as rest) -> Field.equal a b || dup rest
    | _ -> false
  in
  if dup sorted then invalid_arg "Poly.interpolate: duplicate abscissae"

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

let equal p q = Array.length p = Array.length q && Array.for_all2 Field.equal p q

let pp fmt p =
  if Array.length p = 0 then Format.pp_print_string fmt "0"
  else
    Array.iteri
      (fun i c ->
        if i > 0 then Format.fprintf fmt " + ";
        Format.fprintf fmt "%a·X^%d" Field.pp c i)
      p
