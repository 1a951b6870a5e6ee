(* Cached Lagrange basis coefficients at 0.

   The reconstruction hot path (Shamir / Pedersen / BGW degree
   reduction) interpolates a share set at 0, thousands of times per
   experiment, and the share set is almost always the same handful of
   party indices. The basis coefficients

     l_j = prod_{m <> j} (0 - x_m) / (x_j - x_m),   x_i = i + 1

   depend only on the index set, so they are computed once per set and
   replayed for every sample. The set is keyed by its bitmask
   (lor of 1 lsl index, in words of [word_bits] bits), which a
   reconstruction builds while checking for repeated indices; a hit on
   a set inside 0..61 allocates nothing. The cache is domain-local
   (Domain.DLS): each sb_par worker fills its own table, so there is no
   locking; coefficients are exact field elements, so every domain
   computes identical values and results stay byte-identical at every
   --jobs. *)

(* [xs] are the abscissae of a mask's members, so they are distinct:
   [set_bits] rejects a repeated index before any mask is built. *)
let compute xs =
  let n = Array.length xs in
  Array.init n (fun j ->
      let xj = xs.(j) in
      let lj = ref Field.one in
      for m = 0 to n - 1 do
        if m <> j then
          lj := Field.mul !lj (Field.div (Field.sub Field.zero xs.(m)) (Field.sub xj xs.(m)))
      done;
      !lj)

(* Word [w] of a mask holds the indices w * word_bits .. w * word_bits +
   61, so every set inside 0..61 is a one-word mask. *)
let word_bits = 62

(* Coefficients for the index set [mask], indexed by party index: entry
   i is l_i for each member i, zero for the others. *)
let compute_mask mask =
  let members = ref [] in
  for i = (Array.length mask * word_bits) - 1 downto 0 do
    if mask.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0 then members := i :: !members
  done;
  let idx = Array.of_list !members in
  let c = compute (Array.map (fun i -> Field.of_int (i + 1)) idx) in
  let len = if idx = [||] then 0 else idx.(Array.length idx - 1) + 1 in
  let out = Array.make len Field.zero in
  Array.iteri (fun j i -> out.(i) <- c.(j)) idx;
  out

module Mask_tbl = Hashtbl.Make (struct
  type t = int array

  let rec same_from (a : t) b i = i < 0 || (a.(i) = b.(i) && same_from a b (i - 1))
  let equal (a : t) b = Array.length a = Array.length b && same_from a b (Array.length a - 1)
  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(i)
    done;
    !h land max_int
end)

(* [one_word] is this domain's reusable key for sets inside 0..61, so
   the common lookup allocates nothing; wider sets get a fresh key. *)
type local = { table : Field.t array Mask_tbl.t; one_word : int array }

let local = Domain.DLS.new_key (fun () -> { table = Mask_tbl.create 64; one_word = [| 0 |] })

let coeffs_of_key l key =
  match Mask_tbl.find l.table key with
  | c -> c
  | exception Not_found ->
      let c = compute_mask key in
      Mask_tbl.replace l.table (Array.copy key) c;
      c

let empty_key l words =
  if words = 1 then begin
    l.one_word.(0) <- 0;
    l.one_word
  end
  else Array.make words 0

let at_zero n =
  let l = Domain.DLS.get local in
  let key = empty_key l ((n + word_bits - 1) / word_bits) in
  for i = 0 to n - 1 do
    key.(i / word_bits) <- key.(i / word_bits) lor (1 lsl (i mod word_bits))
  done;
  coeffs_of_key l key

let rec max_index ~index acc = function
  | [] -> acc
  | x :: rest ->
      let i = index x in
      if i < 0 then invalid_arg "Lagrange: negative share index";
      max_index ~index (max acc i) rest

let rec set_bits ~index key = function
  | [] -> ()
  | x :: rest ->
      let i = index x in
      let w = i / word_bits and bit = 1 lsl (i mod word_bits) in
      if key.(w) land bit <> 0 then invalid_arg "Lagrange.interpolate_at_zero: duplicate abscissae";
      key.(w) <- key.(w) lor bit;
      set_bits ~index key rest

let sum_at_zero ~index ~value items =
  let l = Domain.DLS.get local in
  let key = empty_key l ((max_index ~index (-1) items / word_bits) + 1) in
  set_bits ~index key items;
  let c = coeffs_of_key l key in
  let rec sum acc = function
    | [] -> acc
    | x :: rest -> sum (Field.add acc (Field.mul (value x) c.(index x))) rest
  in
  sum Field.zero items

(* Traced runs charge the time to the "reconstruct" attribution bucket
   of the innermost open span. *)
let interpolate_at_zero ~index ~value items =
  if Sb_obs.Trace_ctx.enabled () then begin
    let t0 = Sb_obs.Trace_ctx.now_us () in
    let r = sum_at_zero ~index ~value items in
    Sb_obs.Trace_ctx.bucket_add "reconstruct" (Sb_obs.Trace_ctx.now_us () -. t0);
    r
  end
  else sum_at_zero ~index ~value items
