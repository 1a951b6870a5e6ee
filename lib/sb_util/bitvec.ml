type t = bool array
(* Invariant: never mutated after construction; every constructor copies. *)

let length = Array.length
let of_bools a = Array.copy a
let to_bools v = Array.copy v

let of_int n v =
  assert (n >= 0 && n <= 62);
  Array.init n (fun i -> (v lsr i) land 1 = 1)

let to_int v =
  assert (Array.length v <= 62);
  let r = ref 0 in
  for i = Array.length v - 1 downto 0 do
    r := (!r lsl 1) lor (if v.(i) then 1 else 0)
  done;
  !r

let zero n = Array.make n false
let get v i = v.(i)

let set v i b =
  let w = Array.copy v in
  w.(i) <- b;
  w

let init = Array.init
let random rng n = Array.init n (fun _ -> Rng.bool rng)
let proj v s = Array.of_list (List.map (fun i -> v.(i)) s)

let combine v s z =
  assert (List.length s = Array.length z);
  let w = Array.copy v in
  List.iteri (fun pos i -> w.(i) <- z.(pos)) s;
  w

let parity v = Array.fold_left (fun acc b -> if b then not acc else acc) false v

let equal = ( = )
let to_string v = String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let of_string s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | c -> invalid_arg (Printf.sprintf "Bitvec.of_string: bad char %c" c))

let all n =
  assert (n <= 20);
  List.init (1 lsl n) (fun v -> of_int n v)

(* In-place membership vectors for the substrates' receive/echo sets.
   The immutable [t] above copies the whole vector on [set] — O(n) per
   recorded message, O(n^3) per session once n^2 messages flow — so the
   hot loops keep one of these per session and mutate it instead. Bit i
   is bit [i land 7] of byte [i lsr 3]. OCaml allocates a block of more
   than 256 words straight into the major heap, so a word per party
   would put every set above n = 256 there, one per party; packed, a
   set stays in the minor heap up to n = 16376. *)
module Mut = struct
  type mut = { len : int; bits : Bytes.t }

  let create n = { len = n; bits = Bytes.make ((n + 7) lsr 3) '\000' }

  (* The message a [bool array] raises for an out-of-range index. *)
  let[@inline] check v i = if i < 0 || i >= v.len then invalid_arg "index out of bounds"

  let get v i =
    check v i;
    Char.code (Bytes.unsafe_get v.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set v i b =
    check v i;
    let byte = Char.code (Bytes.unsafe_get v.bits (i lsr 3)) in
    let mask = 1 lsl (i land 7) in
    Bytes.unsafe_set v.bits (i lsr 3)
      (Char.unsafe_chr (if b then byte lor mask else byte land lnot mask))
end
