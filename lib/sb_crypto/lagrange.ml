(* Cached Lagrange basis coefficients.

   The reconstruction hot path (Shamir / Pedersen / BGW degree
   reduction) evaluates the interpolating polynomial of a point set at
   a fixed x0, thousands of times per experiment, and the abscissa set
   is almost always the same handful of party indices. The basis
   coefficients

     l_j = prod_{m <> j} (x0 - x_m) / (x_j - x_m)

   depend only on (x0, abscissae), so we compute them once per point
   set and replay them for every sample. The cache is domain-local
   (Domain.DLS): each sb_par worker fills its own table, so there is
   no locking and no cross-domain interference; coefficients are exact
   field elements, so every domain computes identical values and
   results remain byte-identical at every --jobs. *)

let check_distinct xs =
  let sorted = Array.map Field.to_int xs in
  Array.sort Int.compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i - 1) = sorted.(i) then invalid_arg "Poly.interpolate: duplicate abscissae"
  done

let compute xs at =
  check_distinct xs;
  let n = Array.length xs in
  Array.init n (fun j ->
      let xj = xs.(j) in
      let lj = ref Field.one in
      for m = 0 to n - 1 do
        if m <> j then
          lj := Field.mul !lj (Field.div (Field.sub at xs.(m)) (Field.sub xj xs.(m)))
      done;
      !lj)

(* Keyed by the abscissa array, hashed and compared in place, so a hit
   allocates nothing; each abscissa set keeps its (x0, coefficients)
   pairs in a short list. A miss stores the cache's own copy of the
   abscissae. *)
module By_xs = Hashtbl.Make (struct
  type t = Field.t array

  let rec same_from (a : t) b i = i < 0 || (Field.equal a.(i) b.(i) && same_from a b (i - 1))
  let equal a b = Array.length a = Array.length b && same_from a b (Array.length a - 1)
  let hash = Hashtbl.hash
end)

let cache : (Field.t * Field.t array) list By_xs.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> By_xs.create 64)

let rec find_at at = function
  | [] -> raise Not_found
  | (x0, c) :: rest -> if Field.equal x0 at then c else find_at at rest

let coeffs ~xs ~at =
  let tbl = Domain.DLS.get cache in
  let known = match By_xs.find tbl xs with l -> l | exception Not_found -> [] in
  match find_at at known with
  | c -> c
  | exception Not_found ->
      let c = compute xs at in
      By_xs.replace tbl (Array.copy xs) ((at, c) :: known);
      c

let interpolate_at pts x0 =
  let xs = Array.of_list (List.map fst pts) in
  let c = coeffs ~xs ~at:x0 in
  let rec sum j acc = function
    | [] -> acc
    | (_, yj) :: rest -> sum (j + 1) (Field.add acc (Field.mul yj c.(j))) rest
  in
  sum 0 Field.zero pts

let at_zero n =
  coeffs ~xs:(Array.init n (fun i -> Field.of_int (i + 1))) ~at:Field.zero
