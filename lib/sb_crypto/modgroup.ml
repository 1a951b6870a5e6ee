type elt = int

let modulus = 2147483579 (* safe prime: 2 * Field.p + 1 *)
let order = Field.p
let () = assert (modulus = (2 * order) + 1)
let one = 1
let mul a b = a * b mod modulus

(* --- Montgomery arithmetic ----------------------------------------- *)

(* Montgomery form over R = 2^31 — not 2^32 or 2^63: REDC multiplies
   two sub-R residues and adds a sub-R tail, and every intermediate
   must fit OCaml's 63-bit native int (m*P <= (R-1)(P) < 2^62). An
   element x is carried as x*R mod P; REDC(t) = t*R^-1 mod P replaces
   the hardware division in [mul] with three multiplications and a
   shift, which is what makes arbitrary-base [pow] competitive with
   the fixed-base tables. *)
module Mont = struct
  type m = int

  let r_bits = 31
  let mask = (1 lsl r_bits) - 1

  (* R = 2^31 = P + 69, so R mod P = 69 and R^2 mod P = 69^2. *)
  let one = (1 lsl r_bits) - modulus
  let r2 = one * one
  let () = assert (r2 < modulus)

  (* -P^-1 mod R by Newton–Hensel lifting: each step doubles the
     number of correct low bits of the inverse, so five steps from the
     exact 1-bit seed cover all 31. *)
  let p_inv =
    let inv = ref 1 in
    for _ = 1 to 5 do
      inv := !inv * (2 - (modulus * !inv)) land mask
    done;
    assert (modulus * !inv land mask = 1);
    ((1 lsl r_bits) - !inv) land mask

  (* REDC for 0 <= t < R*P: with m = t*p_inv mod R, t + m*P is
     divisible by R, and (t + m*P)/R < 2P. The sum is split as
     t_hi + (t_lo + m*P)/R so the largest intermediate stays below
     2^62 - 68*2^31 < max_int. The final subtract-P-if-needed is
     branchless ([v asr 62] is all-ones exactly when v went negative):
     the carry is data-random, so a conditional branch here would
     mispredict half the time and cost more than the three
     multiplications it guards. *)
  let[@inline] reduce t =
    let t_lo = t land mask in
    let m = t_lo * p_inv land mask in
    let u = (t lsr r_bits) + ((t_lo + (m * modulus)) lsr r_bits) in
    let v = u - modulus in
    v + (modulus land (v asr 62))

  let[@inline] of_elt x = reduce (x * r2)
  let[@inline] to_elt m = reduce m
  let[@inline] mul a b = reduce (a * b)

  let pow m e =
    assert (e >= 0);
    let rec go acc base e =
      if e = 0 then acc
      else
        let acc = if e land 1 = 1 then mul acc base else acc in
        go acc (mul base base) (e lsr 1)
    in
    go one m e
end

(* Reference ladder over the division-based [mul]; kept as the qcheck
   oracle the Montgomery and fixed-base paths are tested against. *)
let pow_naive_int h e =
  assert (e >= 0);
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (e lsr 1)
  in
  go one h e

let pow_naive h e = pow_naive_int h (Field.to_int e)
let g = 4

(* 9 = 3^2 is a quadratic residue mod the safe prime, hence a member of
   the order-q subgroup and (the subgroup having prime order) a
   generator of it. Its discrete log w.r.t. g is unknown; it plays the
   CRS second-generator role in Pedersen commitments. *)
let h = 9

(* --- Fixed-base windowed tables ------------------------------------ *)

(* Exponents are field elements, i.e. < q < 2^30: [window_count] 4-bit
   windows cover them. table.(i).(d) = base^(d * 16^i), so
   base^e = prod_i table.(i).(e_i) over the base-16 digits e_i of e —
   no squarings at all for the two shared generators. The tables are
   built once at module initialisation (main domain, before any
   sb_par worker exists) and are read-only afterwards, so concurrent
   reads under domain parallelism are safe. *)
let window_bits = 4
let window_count = 8
let window_mask = (1 lsl window_bits) - 1
let () = assert (window_bits * window_count >= 30)

let fixed_base_table base =
  let t = Array.make_matrix window_count (window_mask + 1) one in
  let b = ref base in
  for i = 0 to window_count - 1 do
    for d = 1 to window_mask do
      t.(i).(d) <- mul t.(i).(d - 1) !b
    done;
    (* base^(16^(i+1)) = base^(15 * 16^i) * base^(16^i). *)
    b := mul t.(i).(window_mask) !b
  done;
  t

let table_g = fixed_base_table g
let table_h = fixed_base_table h

let pow_fixed table e =
  assert (e >= 0 && e lsr (window_bits * window_count) = 0);
  let acc = ref one in
  let e = ref e in
  for i = 0 to window_count - 1 do
    let d = !e land window_mask in
    if d <> 0 then acc := mul !acc table.(i).(d);
    e := !e lsr window_bits
  done;
  !acc

(* Attribution bucket: when tracing is on, fixed-base exponentiations
   charge their wall time to the innermost open span (no span per call
   — one exponentiation is far below span granularity). Disabled cost
   is the one boolean load. *)
let pow_g e =
  if Sb_obs.Trace_ctx.enabled () then begin
    let t0 = Sb_obs.Trace_ctx.now_us () in
    let r = pow_fixed table_g (Field.to_int e) in
    Sb_obs.Trace_ctx.bucket_add "pow_g" (Sb_obs.Trace_ctx.now_us () -. t0);
    r
  end
  else pow_fixed table_g (Field.to_int e)

let pow_gh a b =
  (* Fused double exponentiation g^a * h^b: one interleaved pass over
     both precomputed tables — the fixed-base version of Shamir's
     trick, sharing the single accumulator between both bases. *)
  let acc = ref one in
  let a = ref (Field.to_int a) and b = ref (Field.to_int b) in
  for i = 0 to window_count - 1 do
    let da = !a land window_mask and db = !b land window_mask in
    if da <> 0 then acc := mul !acc table_g.(i).(da);
    if db <> 0 then acc := mul !acc table_h.(i).(db);
    a := !a lsr window_bits;
    b := !b lsr window_bits
  done;
  !acc

(* Arbitrary-base exponentiation. The two shared generators route to
   their fixed-base window tables (value-identical to the ladder,
   property-tested in test_crypto), which is where nearly every pow
   call in the codebase lands; any other base runs the Montgomery
   ladder. Measured on the dev box: pow at base g 207 -> ~35 ns; for
   truly arbitrary bases the REDC ladder is within ~1.3x of the
   division ladder — the hardware divider is pipelined and fast for
   these operand sizes, so REDC's value there is staying in-domain
   across compound loops (see the Pedersen/Feldman Horner), not the
   single exponentiation. *)
let fixed_range e = e lsr (window_bits * window_count) = 0

let pow_int b e =
  assert (e >= 0);
  if b = g && fixed_range e then pow_fixed table_g e
  else if b = h && fixed_range e then pow_fixed table_h e
  else Mont.to_elt (Mont.pow (Mont.of_elt b) e)

let pow b e = pow_int b (Field.to_int e)

(* Horner in the exponent: acc = c_t, then acc = acc^x * c_(t-1), ...,
   carried in Montgomery form across the whole polynomial — one of_elt
   per coefficient, one to_elt at the end, and every ladder step
   division-free. *)
let horner c x =
  let x = Field.to_int x in
  let acc = ref Mont.one in
  for j = Array.length c - 1 downto 0 do
    acc := Mont.(mul (pow !acc x) (of_elt c.(j)))
  done;
  Mont.to_elt !acc

(* Extended Euclid modulo the (prime) modulus: every member is a unit
   of Z_P^*, and for h in the order-q subgroup the Z_P^* inverse
   coincides with h^(q-1), the subgroup inverse. Replaces the old
   ~45-multiplication pow round-trip. *)
let inv h =
  assert (h <> 0);
  let rec go r0 r1 s0 s1 = if r1 = 0 then s0 else go r1 (r0 mod r1) s1 (s0 - (r0 / r1 * s1)) in
  let s = go modulus h 0 1 mod modulus in
  if s < 0 then s + modulus else s

let equal = Int.equal

let is_member x =
  (* Members of the order-q subgroup are exactly the x with x^q = 1. *)
  x >= 1 && x < modulus && pow_int x order = 1

let of_int_exn x = if is_member x then x else invalid_arg "Modgroup.of_int_exn: not a member"
let to_int x = x
let pp fmt x = Format.pp_print_int fmt x
