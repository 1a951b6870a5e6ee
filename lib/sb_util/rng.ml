(* The four xoshiro256** state words live little-endian in one 32-byte
   buffer. Reading and writing them as unboxed int64 loads and stores
   keeps every word unboxed: a draw that is consumed inside this module
   ([bits], [float], [bytes]) allocates nothing, where mutable int64
   record fields would box one int64 per word per draw. Every state is
   32 bytes and never leaves this module, so the loads and stores skip
   the bounds checks of Bytes.get/set_int64_le. The stream is
   bit-identical to the textbook four-field formulation (pinned by the
   golden values in test_util). *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get t i =
  let v = get64u t (8 * i) in
  if Sys.big_endian then swap64 v else v

let[@inline] set t i v = set64u t (8 * i) (if Sys.big_endian then swap64 v else v)

let[@inline] of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

(* splitmix64, used only to expand seeds into full xoshiro states: the
   k-th output mixes [seed + k * gamma]. The state is threaded through
   immutable locals, so nothing but the 32-byte state is allocated. *)
let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] of_seed64 seed =
  let open Int64 in
  let x0 = add seed gamma in
  let x1 = add x0 gamma in
  let x2 = add x1 gamma in
  let x3 = add x2 gamma in
  let s0 = mix x0 and s1 = mix x1 and s2 = mix x2 and s3 = mix x3 in
  (* xoshiro must not start from the all-zero state. *)
  if equal (logor (logor s0 s1) (logor s2 s3)) 0L then of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

(* One xoshiro256** step, one function per word: [output s1] is the
   draw and [next0] .. [next3] the next state, each a function of the
   current words. [int64] steps the state in [t]; [count_bernoulli]
   steps four locals and writes them back once per call. OCaml would
   box a step that returned all five words as a tuple. *)
let[@inline] output s1 = Int64.(mul (rotl (mul s1 5L) 7) 9L)
let[@inline] next0 s0 s1 s3 = Int64.(logxor s0 (logxor s3 s1))
let[@inline] next1 s0 s1 s2 = Int64.(logxor s1 (logxor s2 s0))
let[@inline] next2 s0 s1 s2 = Int64.(logxor (logxor s2 s0) (shift_left s1 17))
let[@inline] next3 s1 s3 = rotl (Int64.logxor s3 s1) 45

let[@inline] int64 t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  set t 0 (next0 s0 s1 s3);
  set t 1 (next1 s0 s1 s2);
  set t 2 (next2 s0 s1 s2);
  set t 3 (next3 s1 s3);
  output s1

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
    (* Smallest power-of-two mask covering [bound], then reject. Loops
       over local refs, not local closures, so a draw allocates
       nothing. *)
    let w = ref 1 in
    while 1 lsl !w < bound do
      incr w
    done;
    let v = ref (bits t !w) in
    while !v >= bound do
      v := bits t !w
    done;
    !v
  end

let bool t = bits t 1 = 1
(* The top 53 bits scaled into [0, 1). [bernoulli] compares the
   unboxed value in place; [float] boxes only its result, which a
   caller outside this module receives through the call. *)
let[@inline] unit_float t = Int64.to_float (Int64.shift_right_logical (int64 t) 11) *. 0x1p-53
let float t = unit_float t
let bernoulli t p = unit_float t < p

(* [unit_float t < p] is [x < p * 2^53] for the 53-bit draw x, and since
   x is an integer and p * 2^53 is exact, that is [x < ceil (p * 2^53)]:
   one integer compare per draw, counted without a branch. *)
let count_bernoulli t p k =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Rng.count_bernoulli: p";
  if k < 0 then invalid_arg "Rng.count_bernoulli: k";
  let threshold = Float.to_int (Float.ceil (p *. 0x1p53)) in
  let count = ref 0 in
  let s0 = ref (get t 0) and s1 = ref (get t 1) and s2 = ref (get t 2) and s3 = ref (get t 3) in
  for _ = 1 to k do
    let w0 = !s0 and w1 = !s1 and w2 = !s2 and w3 = !s3 in
    let x = Int64.to_int (Int64.shift_right_logical (output w1) 11) in
    count := !count + Bool.to_int (x < threshold);
    s0 := next0 w0 w1 w3;
    s1 := next1 w0 w1 w2;
    s2 := next2 w0 w1 w2;
    s3 := next3 w1 w3
  done;
  set t 0 !s0;
  set t 1 !s1;
  set t 2 !s2;
  set t 3 !s3;
  !count

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
