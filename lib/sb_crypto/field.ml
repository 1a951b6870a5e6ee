type t = int

let p = 1073741789 (* Sophie Germain: 2p + 1 is also prime *)
let zero = 0
let one = 1

let of_int x =
  let r = x mod p in
  if r < 0 then r + p else r

let to_int x = x
let add a b = let s = a + b in if s >= p then s - p else s
let sub a b = let d = a - b in if d < 0 then d + p else d
let mul a b = a * b mod p

(* Extended Euclid; p is prime so every nonzero element is invertible. *)
let inv a =
  if a = 0 then raise Division_by_zero;
  let rec go r0 r1 s0 s1 = if r1 = 0 then s0 else go r1 (r0 mod r1) s1 (s0 - (r0 / r1 * s1)) in
  of_int (go p a 0 1)

let div a b = mul a (inv b)

let equal = Int.equal

let random rng =
  (* Draw 30 bits and reject values >= p (acceptance rate ~0.9999). *)
  let rec draw () =
    let v = Sb_util.Rng.bits rng 30 in
    if v >= p then draw () else v
  in
  draw ()

let pp fmt x = Format.pp_print_int fmt x
