open Sb_util

type t = {
  n : int;
  mass : float array; (* normalised, length 2^n *)
  cdf : float array; (* cumulative, for sampling *)
}

let n d = d.n

let max_n = 20

let of_pmf n raw =
  if n < 0 || n > max_n then invalid_arg "Dist.of_pmf: n out of range";
  let size = 1 lsl n in
  if Array.length raw <> size then invalid_arg "Dist.of_pmf: wrong pmf length";
  (* Pass 1 validates and sums; pass 2 normalises and accumulates the
     cdf. Both run in index order: the summation order fixes every mass
     and cdf entry bit for bit. *)
  let total = ref 0.0 in
  for i = 0 to size - 1 do
    let p = raw.(i) in
    if p < 0.0 || Float.is_nan p then invalid_arg "Dist.of_pmf: bad mass";
    total := !total +. p
  done;
  let total = !total in
  if total <= 0.0 then invalid_arg "Dist.of_pmf: zero total mass";
  let mass = Array.make size 0.0 in
  let cdf = Array.make size 0.0 in
  let acc = ref 0.0 in
  for i = 0 to size - 1 do
    let p = raw.(i) /. total in
    mass.(i) <- p;
    acc := !acc +. p;
    cdf.(i) <- !acc
  done;
  cdf.(size - 1) <- 1.0;
  { n; mass; cdf }

let pmf d = Array.copy d.mass
let prob_idx d i = d.mass.(i)
let prob d v = d.mass.(Bitvec.to_int v)

let sample d rng =
  let u = Rng.float rng in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length d.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if d.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  Bitvec.of_int d.n !lo

let support d =
  List.filter_map
    (fun i -> if d.mass.(i) > 0.0 then Some (Bitvec.of_int d.n i) else None)
    (List.init (Array.length d.mass) Fun.id)

let uniform n = of_pmf n (Array.make (1 lsl n) 1.0)

let singleton v =
  let n = Bitvec.length v in
  let raw = Array.make (1 lsl n) 0.0 in
  raw.(Bitvec.to_int v) <- 1.0;
  of_pmf n raw

let bernoulli_product p =
  let n = Array.length p in
  Array.iter (fun pi -> if pi < 0.0 || pi > 1.0 then invalid_arg "Dist.bernoulli_product") p;
  (* Prefix doubling: step i extends each entry idx < 2^i by
     coordinate i into idx (bit clear) and idx + 2^i (bit set), so after
     it entries 0 .. 2^(i+1)-1 hold the product over coordinates
     0 .. i. Each entry is the left fold ((1.0 *. f_0) *. f_1) ...
     *. f_(n-1) in coordinate order, bit-identical to evaluating that
     fold per entry, at O(2^n) multiplies. *)
  let raw = Array.make (1 lsl n) 1.0 in
  for i = 0 to n - 1 do
    let half = 1 lsl i and pi = p.(i) and qi = 1.0 -. p.(i) in
    for idx = 0 to half - 1 do
      let m = raw.(idx) in
      raw.(idx) <- m *. qi;
      raw.(idx + half) <- m *. pi
    done
  done;
  of_pmf n raw

let product p n = bernoulli_product (Array.make n p)

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
        (fun (w, d) -> Array.iteri (fun i p -> raw.(i) <- raw.(i) +. (w *. p)) d.mass)
        components;
      of_pmf dim raw

let xor_parity ?(even = true) n =
  if n < 1 then invalid_arg "Dist.xor_parity";
  let raw =
    Array.init (1 lsl n) (fun idx ->
        let parity = Bitvec.parity (Bitvec.of_int n idx) in
        if parity <> even then 1.0 else 0.0)
  in
  of_pmf n raw

let copy_pair n =
  if n < 2 then invalid_arg "Dist.copy_pair";
  let raw =
    Array.init (1 lsl n) (fun idx -> if (idx land 1) = (idx lsr 1) land 1 then 1.0 else 0.0)
  in
  of_pmf n raw

let noisy_copy n ~flip =
  if n < 2 then invalid_arg "Dist.noisy_copy";
  if flip < 0.0 || flip > 1.0 then invalid_arg "Dist.noisy_copy: flip";
  let raw =
    Array.init (1 lsl n) (fun idx ->
        let b0 = idx land 1 = 1 and b1 = (idx lsr 1) land 1 = 1 in
        let pair = if b0 = b1 then 1.0 -. flip else flip in
        pair /. 2.0 (* x_0 uniform *) /. float_of_int (1 lsl (n - 2)))
  in
  of_pmf n raw

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
  of_pmf n raw

let one_hot n =
  if n < 2 then invalid_arg "Dist.one_hot";
  let raw = Array.make (1 lsl n) 0.0 in
  for i = 0 to n - 1 do
    raw.(1 lsl i) <- 1.0
  done;
  of_pmf n raw

let all_equal n =
  if n < 1 then invalid_arg "Dist.all_equal";
  let raw = Array.make (1 lsl n) 0.0 in
  raw.(0) <- 1.0;
  raw.((1 lsl n) - 1) <- 1.0;
  of_pmf n raw

let conditioned d ~on =
  let raw =
    Array.mapi (fun i p -> if on (Bitvec.of_int d.n i) then p else 0.0) d.mass
  in
  if Array.fold_left ( +. ) 0.0 raw <= 0.0 then
    invalid_arg "Dist.conditioned: zero-mass event";
  of_pmf d.n raw

let marginal d i =
  let acc = ref 0.0 in
  Array.iteri (fun idx p -> if (idx lsr i) land 1 = 1 then acc := !acc +. p) d.mass;
  !acc

let marginals d = Array.init d.n (marginal d)
let product_of_marginals d = bernoulli_product (marginals d)

let proj_pmf d s =
  let m = List.length s in
  let out = Array.make (1 lsl m) 0.0 in
  Array.iteri
    (fun idx p ->
      let key = ref 0 in
      List.iteri (fun pos i -> if (idx lsr i) land 1 = 1 then key := !key lor (1 lsl pos)) s;
      out.(!key) <- out.(!key) +. p)
    d.mass;
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
    d.mass;
  if !total <= 0.0 then None else Some (Array.map (fun p -> p /. !total) out)

let tvd a b =
  if a.n <> b.n then invalid_arg "Dist.tvd: dimension mismatch";
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. Float.abs (p -. b.mass.(i))) a.mass;
  !acc /. 2.0

let local_gap d =
  (* max over nonempty proper B, u, and positive-mass w of
     |Pr(x_B = u | x_B̄ = w) - Pr(x_B = u)|. One pass per B buckets the
     mass by its assignment on B̄ (the conditioning totals) and on B
     (the unconditional projection); every cell x = (u, w) is then its
     bucket's only member, so Pr(x_B = u | x_B̄ = w) is mass(x) /. total(w).
     Each bucket sums in ascending index order, exactly as proj_pmf and
     cond_proj_pmf do, so every gap is bit-identical to theirs. *)
  let size = Array.length d.mass in
  let full = size - 1 in
  let total = Array.make size 0.0 and uncond = Array.make size 0.0 in
  let worst = ref 0.0 in
  for b = 1 to full - 1 do
    let comp = full land lnot b in
    Array.fill total 0 size 0.0;
    Array.fill uncond 0 size 0.0;
    for x = 0 to full do
      let p = d.mass.(x) in
      total.(x land comp) <- total.(x land comp) +. p;
      uncond.(x land b) <- uncond.(x land b) +. p
    done;
    for x = 0 to full do
      let t = total.(x land comp) in
      if t > 0.0 then begin
        let gap = Float.abs ((d.mass.(x) /. t) -. uncond.(x land b)) in
        if gap > !worst then worst := gap
      end
    done
  done;
  !worst

let independence_gap d = tvd d (product_of_marginals d)
let is_product d = independence_gap d <= 1e-9

let equal a b = a.n = b.n && tvd a b <= 1e-9

let entropy_bits d =
  let acc = ref 0.0 in
  Array.iter (fun p -> if p > 0.0 then acc := !acc -. (p *. (Float.log p /. Float.log 2.0))) d.mass;
  !acc

let pp fmt d =
  Format.fprintf fmt "dist(n=%d)" d.n;
  Array.iteri
    (fun i p ->
      if p > 1e-12 then
        Format.fprintf fmt "@ %s:%.4f" (Bitvec.to_string (Bitvec.of_int d.n i)) p)
    d.mass
