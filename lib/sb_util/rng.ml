(* The four xoshiro256** state words live little-endian in one 32-byte
   buffer. Reading and writing them through Bytes.get/set_int64_le keeps
   every word unboxed: a draw that is consumed inside this module
   ([bits], [float], [bytes]) allocates nothing, where mutable int64
   record fields would box one int64 per word per draw. The stream is
   bit-identical to the textbook four-field formulation (pinned by the
   golden values in test_util). *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (8 * i)
let[@inline] set t i v = Bytes.set_int64_le t (8 * i) v

(* splitmix64: used only to expand seeds into full xoshiro states. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let of_seed64 seed =
  let st = ref seed in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  (* xoshiro must not start from the all-zero state. *)
  if Int64.(logor (logor s0 s1) (logor s2 s3)) = 0L then of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let[@inline] int64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let split t = of_seed64 (int64 t)

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n";
  Array.init n (fun _ -> split t)

let copy = Bytes.copy

let bits t w =
  assert (w >= 0 && w <= 62);
  if w = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (int64 t) (64 - w))

let int t bound =
  assert (bound > 0);
  if bound = 1 then 0
  else begin
    (* Smallest power-of-two mask covering [bound], then reject. *)
    let rec width w = if 1 lsl w >= bound then w else width (w + 1) in
    let w = width 1 in
    let rec draw () =
      let v = bits t w in
      if v < bound then v else draw ()
    in
    draw ()
  end

let bool t = bits t 1 = 1
let float t = Int64.to_float (Int64.shift_right_logical (int64 t) 11) *. 0x1p-53
let bernoulli t p = float t < p

(* One draw per byte, in index order: the stream the golden values in
   test_util pin. *)
let bytes t len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (bits t 8))
  done;
  Bytes.unsafe_to_string b

let perm t n =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
