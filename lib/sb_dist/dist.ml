open Sb_util

(* Every distribution keeps its cdf, for sampling. Its mass is either a
   normalised table (a general pmf) or, for a product, the marginals and
   the unnormalised total: a product's mass at index i is the per-entry
   left fold over the marginals divided by that total, the same float
   the table entry would hold, so a product needs one 2^n array, not
   two. *)
type mass = Table of float array | Product of { marginals : float array; total : float }

type t = { n : int; mass : mass; cdf : float array }

let n d = d.n

let max_n = 20
let check_n n = if n < 0 || n > max_n then invalid_arg "Dist.of_pmf: n out of range"

(* Prefix doubling: step i extends each entry idx < 2^i by coordinate i
   into idx (bit clear) and idx + 2^i (bit set), so after it entries
   0 .. 2^(i+1)-1 hold the product over coordinates 0 .. i. Each entry
   is the left fold ((1.0 *. f_0) *. f_1) ... *. f_(n-1) in coordinate
   order, bit-identical to evaluating that fold per entry, at O(2^n)
   multiplies. *)
let unnormalised p =
  let n = Array.length p in
  let raw = Array.make (1 lsl n) 1.0 in
  for i = 0 to n - 1 do
    let half = 1 lsl i and pi = p.(i) and qi = 1.0 -. p.(i) in
    for idx = 0 to half - 1 do
      let m = raw.(idx) in
      raw.(idx) <- m *. qi;
      raw.(idx + half) <- m *. pi
    done
  done;
  raw

(* The index-order sum, then [a] normalised by it and accumulated into
   a cdf in place (last entry forced to 1.0). The summation order fixes
   every cdf entry bit for bit. Returns the total. Plain loops over
   float refs: [Array.fold_left] and [Array.iter] would box every
   entry. *)
let cumulate a =
  let size = Array.length a in
  let total = ref 0.0 in
  for i = 0 to size - 1 do
    total := !total +. a.(i)
  done;
  let total = !total and acc = ref 0.0 in
  for i = 0 to size - 1 do
    acc := !acc +. (a.(i) /. total);
    a.(i) <- !acc
  done;
  a.(size - 1) <- 1.0;
  total

let normalise a total =
  for i = 0 to Array.length a - 1 do
    a.(i) <- a.(i) /. total
  done

(* Only these two accessors read the mass representation. [table]
   returns a general pmf's own array (never mutated) or builds a
   product's; every whole-table query calls it once per call, never
   once per entry. *)
let table d =
  match d.mass with
  | Table mass -> mass
  | Product { marginals; total } ->
      let mass = unnormalised marginals in
      normalise mass total;
      mass

let prob_idx d i =
  match d.mass with
  | Table mass -> mass.(i)
  | Product { marginals; total } ->
      let m = ref 1.0 in
      for j = 0 to Array.length marginals - 1 do
        let pj = marginals.(j) in
        m := !m *. (if (i lsr j) land 1 = 1 then pj else 1.0 -. pj)
      done;
      !m /. total

(* A general pmf from a table nobody else holds: [raw] is normalised in
   place into the mass table, beside its cdf. *)
let of_owned n raw =
  check_n n;
  for i = 0 to Array.length raw - 1 do
    if raw.(i) < 0.0 || Float.is_nan raw.(i) then invalid_arg "Dist.of_pmf: bad mass"
  done;
  let cdf = Array.copy raw in
  let total = cumulate cdf in
  if total <= 0.0 then invalid_arg "Dist.of_pmf: zero total mass";
  normalise raw total;
  { n; mass = Table raw; cdf }

let of_pmf n raw =
  check_n n;
  if Array.length raw <> 1 lsl n then invalid_arg "Dist.of_pmf: wrong pmf length";
  of_owned n (Array.copy raw)

let pmf d = Array.copy (table d)
let prob d v = prob_idx d (Bitvec.to_int v)

let sample d rng =
  let u = Rng.float rng in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length d.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if d.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  Bitvec.of_int d.n !lo

let singleton v =
  let n = Bitvec.length v in
  let raw = Array.make (1 lsl n) 0.0 in
  raw.(Bitvec.to_int v) <- 1.0;
  of_owned n raw

let bernoulli_product p =
  Array.iter
    (fun pi -> if not (pi >= 0.0 && pi <= 1.0) then invalid_arg "Dist.bernoulli_product")
    p;
  let n = Array.length p in
  check_n n;
  let cdf = unnormalised p in
  let total = cumulate cdf in
  { n; mass = Product { marginals = Array.copy p; total }; cdf }

let product p n = bernoulli_product (Array.make n p)

let uniform n = product 0.5 n

let mixture components =
  match components with
  | [] -> invalid_arg "Dist.mixture: empty"
  | (_, first) :: _ ->
      let dim = first.n in
      List.iter
        (fun (w, d) ->
          if d.n <> dim then invalid_arg "Dist.mixture: dimension mismatch";
          if w < 0.0 then invalid_arg "Dist.mixture: negative weight")
        components;
      let raw = Array.make (1 lsl dim) 0.0 in
      List.iter
        (fun (w, d) -> Array.iteri (fun i p -> raw.(i) <- raw.(i) +. (w *. p)) (table d))
        components;
      of_owned dim raw

let xor_parity n =
  if n < 1 then invalid_arg "Dist.xor_parity";
  let raw =
    Array.init (1 lsl n) (fun idx -> if Bitvec.parity (Bitvec.of_int n idx) then 0.0 else 1.0)
  in
  of_owned n raw

let copy_pair n =
  if n < 2 then invalid_arg "Dist.copy_pair";
  let raw =
    Array.init (1 lsl n) (fun idx -> if (idx land 1) = (idx lsr 1) land 1 then 1.0 else 0.0)
  in
  of_owned n raw

let noisy_copy n ~flip =
  if n < 2 then invalid_arg "Dist.noisy_copy";
  if flip < 0.0 || flip > 1.0 then invalid_arg "Dist.noisy_copy: flip";
  let raw =
    Array.init (1 lsl n) (fun idx ->
        let b0 = idx land 1 = 1 and b1 = (idx lsr 1) land 1 = 1 in
        let pair = if b0 = b1 then 1.0 -. flip else flip in
        pair /. 2.0 (* x_0 uniform *) /. float_of_int (1 lsl (n - 2)))
  in
  of_owned n raw

let markov n ~flip =
  if n < 1 then invalid_arg "Dist.markov";
  if flip < 0.0 || flip > 1.0 then invalid_arg "Dist.markov: flip";
  let raw =
    Array.init (1 lsl n) (fun idx ->
        let p = ref 0.5 in
        for i = 0 to n - 2 do
          let same = (idx lsr i) land 1 = (idx lsr (i + 1)) land 1 in
          p := !p *. (if same then 1.0 -. flip else flip)
        done;
        !p)
  in
  of_owned n raw

let one_hot n =
  if n < 2 then invalid_arg "Dist.one_hot";
  let raw = Array.make (1 lsl n) 0.0 in
  for i = 0 to n - 1 do
    raw.(1 lsl i) <- 1.0
  done;
  of_owned n raw

let all_equal n =
  if n < 1 then invalid_arg "Dist.all_equal";
  let raw = Array.make (1 lsl n) 0.0 in
  raw.(0) <- 1.0;
  raw.((1 lsl n) - 1) <- 1.0;
  of_owned n raw

let marginal_of mass i =
  let acc = ref 0.0 in
  Array.iteri (fun idx p -> if (idx lsr i) land 1 = 1 then acc := !acc +. p) mass;
  !acc

let marginals d = Array.init d.n (marginal_of (table d))
let product_of_marginals d = bernoulli_product (marginals d)

let proj_pmf d s =
  let m = List.length s in
  let out = Array.make (1 lsl m) 0.0 in
  Array.iteri
    (fun idx p ->
      let key = ref 0 in
      List.iteri (fun pos i -> if (idx lsr i) land 1 = 1 then key := !key lor (1 lsl pos)) s;
      out.(!key) <- out.(!key) +. p)
    (table d);
  out

let cond_proj_pmf d ~of_ ~given w =
  let matches idx =
    List.for_all (fun i -> ((idx lsr i) land 1 = 1) = Bitvec.get w i) given
  in
  let total = ref 0.0 in
  let m = List.length of_ in
  let out = Array.make (1 lsl m) 0.0 in
  Array.iteri
    (fun idx p ->
      if matches idx then begin
        total := !total +. p;
        let key = ref 0 in
        List.iteri
          (fun pos i -> if (idx lsr i) land 1 = 1 then key := !key lor (1 lsl pos))
          of_;
        out.(!key) <- out.(!key) +. p
      end)
    (table d);
  if !total <= 0.0 then None else Some (Array.map (fun p -> p /. !total) out)

let tvd a b =
  if a.n <> b.n then invalid_arg "Dist.tvd: dimension mismatch";
  let mass_b = table b in
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. Float.abs (p -. mass_b.(i))) (table a);
  !acc /. 2.0

let local_gap d =
  (* max over nonempty proper B, u, and positive-mass w of
     |Pr(x_B = u | x_B̄ = w) - Pr(x_B = u)|. One pass per B buckets the
     mass by its assignment on B̄ (the conditioning totals) and on B
     (the unconditional projection); every cell x = (u, w) is then its
     bucket's only member, so Pr(x_B = u | x_B̄ = w) is mass(x) /. total(w).
     Each bucket sums in ascending index order, exactly as proj_pmf and
     cond_proj_pmf do, so every gap is bit-identical to theirs. *)
  let mass = table d in
  let size = Array.length mass in
  let full = size - 1 in
  let total = Array.make size 0.0 and uncond = Array.make size 0.0 in
  let worst = ref 0.0 in
  for b = 1 to full - 1 do
    let comp = full land lnot b in
    Array.fill total 0 size 0.0;
    Array.fill uncond 0 size 0.0;
    for x = 0 to full do
      let p = mass.(x) in
      total.(x land comp) <- total.(x land comp) +. p;
      uncond.(x land b) <- uncond.(x land b) +. p
    done;
    for x = 0 to full do
      let t = total.(x land comp) in
      if t > 0.0 then begin
        let gap = Float.abs ((mass.(x) /. t) -. uncond.(x land b)) in
        if gap > !worst then worst := gap
      end
    done
  done;
  !worst

let independence_gap d = tvd d (product_of_marginals d)
