type t =
  | Unit
  | Bit of bool
  | Int of int
  | Fe of Sb_crypto.Field.t
  | Ge of Sb_crypto.Modgroup.elt
  | Str of string
  | List of t list
  | Tag of string * t

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bit x, Bit y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Fe x, Fe y -> Sb_crypto.Field.equal x y
  | Ge x, Ge y -> Sb_crypto.Modgroup.equal x y
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Tag (s, x), Tag (r, y) -> String.equal s r && equal x y
  | (Unit | Bit _ | Int _ | Fe _ | Ge _ | Str _ | List _ | Tag _), _ -> false

(* Structural order, consistent with [equal]: constructors rank in
   declaration order, payloads compare via their own module's order
   (canonical int representatives for the abstract Field/Modgroup
   elements — never polymorphic compare, which would peek through the
   private abstraction and break if a representation changed). *)
let rank = function
  | Unit -> 0
  | Bit _ -> 1
  | Int _ -> 2
  | Fe _ -> 3
  | Ge _ -> 4
  | Str _ -> 5
  | List _ -> 6
  | Tag _ -> 7

let rec compare a b =
  match (a, b) with
  | Unit, Unit -> 0
  | Bit x, Bit y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Fe x, Fe y -> Int.compare (Sb_crypto.Field.to_int x) (Sb_crypto.Field.to_int y)
  | Ge x, Ge y -> Int.compare (Sb_crypto.Modgroup.to_int x) (Sb_crypto.Modgroup.to_int y)
  | Str x, Str y -> String.compare x y
  | List x, List y -> List.compare compare x y
  | Tag (s, x), Tag (r, y) -> (
      match String.compare s r with 0 -> compare x y | c -> c)
  | (Unit | Bit _ | Int _ | Fe _ | Ge _ | Str _ | List _ | Tag _), _ ->
      Int.compare (rank a) (rank b)

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bit b -> Format.pp_print_string fmt (if b then "1" else "0")
  | Int i -> Format.fprintf fmt "%d" i
  | Fe f -> Format.fprintf fmt "f%a" Sb_crypto.Field.pp f
  | Ge g -> Format.fprintf fmt "g%a" Sb_crypto.Modgroup.pp g
  | Str s -> Format.fprintf fmt "%S" s
  | List l ->
      Format.fprintf fmt "[%a]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") pp)
        l
  | Tag (s, m) -> Format.fprintf fmt "%s(%a)" s pp m

let to_string m = Format.asprintf "%a" pp m
let bits l = List (List.map (fun b -> Bit b) l)

let to_bit_exn = function Bit b -> b | m -> invalid_arg ("Msg.to_bit_exn: " ^ to_string m)
let to_int_exn = function Int i -> i | m -> invalid_arg ("Msg.to_int_exn: " ^ to_string m)
let to_list_exn = function List l -> l | m -> invalid_arg ("Msg.to_list_exn: " ^ to_string m)

let to_bitvec_exn m =
  Sb_util.Bitvec.of_bools (Array.of_list (List.map to_bit_exn (to_list_exn m)))

(* Length-prefixed encoding, injective by construction: [Unit] is "u",
   a bit "b0"/"b1", and every other node is a tag char, the decimal
   payload length, ':' and the payload (decimal ints and group/field
   representatives; raw strings; 'e'-framed list elements; an
   'n'-framed tag name followed by the tagged message).

   [size_bytes] computes the encoded length structurally, so byte
   accounting on the network hot path never materialises the encoding,
   and [serialize] allocates exactly that many bytes and fills them
   back to front: a payload is written before its header, which is
   when its length is known. test_sim.ml pins the bytes to the earlier
   Printf-based encoder (a corpus digest and an oracle property). *)
let digits n =
  let rec go acc n = if n < 10 then acc else go (acc + 1) (n / 10) in
  go 1 n

let prefixed len = 2 + digits len + len

(* Sign included. [-i] overflows at [min_int], so a negative counts the
   digits of [-(i / 10)] plus its last digit. *)
let int_digits i = if i >= 0 then digits i else if i > -10 then 2 else 2 + digits (-(i / 10))

let rec size_bytes = function
  | Unit -> 1
  | Bit _ -> 2
  | Int i -> prefixed (int_digits i)
  | Fe f -> prefixed (digits (Sb_crypto.Field.to_int f))
  | Ge g -> prefixed (digits (Sb_crypto.Modgroup.to_int g))
  | Str s -> prefixed (String.length s)
  | List l -> prefixed (List.fold_left (fun acc x -> acc + prefixed (size_bytes x)) 0 l)
  | Tag (s, x) -> prefixed (prefixed (String.length s) + size_bytes x)

(* The writers below fill [b] backwards: each takes the index [stop]
   its output must end before and returns the index it starts at. *)

(* The decimal digits of [-q] for [q <= 0]: digits come off the
   non-positive side, where [min_int] has a representation. *)
let rec put_neg_digits b stop q =
  let p = stop - 1 in
  Bytes.set b p (Char.unsafe_chr (48 - (q mod 10)));
  if q <= -10 then put_neg_digits b p (q / 10) else p

let put_int b stop i =
  if i >= 0 then put_neg_digits b stop (-i)
  else begin
    let p = put_neg_digits b stop i - 1 in
    Bytes.set b p '-';
    p
  end

(* The header "c<len>:" of the payload occupying [start, stop). *)
let put_header b c ~start ~stop =
  let p = put_int b (start - 1) (stop - start) - 1 in
  Bytes.set b (start - 1) ':';
  Bytes.set b p c;
  p

let put_string b stop s =
  let start = stop - String.length s in
  Bytes.blit_string s 0 b start (String.length s);
  start

let rec put b stop = function
  | Unit ->
      Bytes.set b (stop - 1) 'u';
      stop - 1
  | Bit x ->
      Bytes.set b (stop - 1) (if x then '1' else '0');
      Bytes.set b (stop - 2) 'b';
      stop - 2
  | Int i -> put_header b 'i' ~start:(put_int b stop i) ~stop
  | Fe f -> put_header b 'f' ~start:(put_int b stop (Sb_crypto.Field.to_int f)) ~stop
  | Ge g -> put_header b 'g' ~start:(put_int b stop (Sb_crypto.Modgroup.to_int g)) ~stop
  | Str s -> put_header b 's' ~start:(put_string b stop s) ~stop
  | List l -> put_header b 'l' ~start:(put_elems b stop l) ~stop
  | Tag (s, x) ->
      let mid = put b stop x in
      let start = put_header b 'n' ~start:(put_string b mid s) ~stop:mid in
      put_header b 't' ~start ~stop

(* Elements end to front: the last one is written first. *)
and put_elems b stop = function
  | [] -> stop
  | x :: rest ->
      let stop = put_elems b stop rest in
      put_header b 'e' ~start:(put b stop x) ~stop

(* Unit and bits return shared constants: most of the substrates'
   tally keys are bits, serialized once per delivery. *)
let serialize = function
  | Unit -> "u"
  | Bit b -> if b then "b1" else "b0"
  | m ->
      let len = size_bytes m in
      let b = Bytes.create len in
      let start = put b len m in
      assert (start = 0);
      Bytes.unsafe_to_string b

(* Inverse of [serialize]; [None] on anything the encoder cannot have
   produced (bad framing, trailing bytes, non-canonical field or
   non-member group representatives). *)
let deserialize s =
  let len = String.length s in
  (* Parse "<digits>:<payload>" at [pos]; return (payload lo, payload len, next pos). *)
  let framed pos =
    let rec scan_len p acc =
      if p >= len then None
      else
        match s.[p] with
        | '0' .. '9' -> scan_len (p + 1) ((10 * acc) + (Char.code s.[p] - Char.code '0'))
        | ':' when p > pos -> Some (p + 1, acc)
        | _ -> None
    in
    (* Canonical lengths only (no "02:"): accepted strings are exactly
       the serializer's image at the framing layer. *)
    if pos + 1 < len && s.[pos] = '0' && s.[pos + 1] <> ':' then None
    else
      match scan_len pos 0 with
      | Some (lo, plen) when lo + plen <= len -> Some (lo, plen)
      | _ -> None
  in
  let rec value pos limit =
    if pos >= limit then None
    else
      match s.[pos] with
      | 'u' -> Some (Unit, pos + 1)
      | 'b' ->
          if pos + 1 >= limit then None
          else (
            match s.[pos + 1] with
            | '1' -> Some (Bit true, pos + 2)
            | '0' -> Some (Bit false, pos + 2)
            | _ -> None)
      | ('i' | 'f' | 'g' | 's' | 'l' | 't') as c -> (
          match framed (pos + 1) with
          | Some (lo, plen) when lo + plen <= limit -> (
              let stop = lo + plen in
              let payload () = String.sub s lo plen in
              match c with
              | 'i' -> (
                  match int_of_string_opt (payload ()) with
                  | Some i when String.equal (payload ()) (string_of_int i) ->
                      Some (Int i, stop)
                  | _ -> None)
              | 'f' -> (
                  match int_of_string_opt (payload ()) with
                  | Some i
                    when i >= 0 && i < Sb_crypto.Field.p
                         && String.equal (payload ()) (string_of_int i) ->
                      Some (Fe (Sb_crypto.Field.of_int i), stop)
                  | _ -> None)
              | 'g' -> (
                  match int_of_string_opt (payload ()) with
                  | Some i
                    when Sb_crypto.Modgroup.is_member i
                         && String.equal (payload ()) (string_of_int i) ->
                      Some (Ge (Sb_crypto.Modgroup.of_int_exn i), stop)
                  | _ -> None)
              | 's' -> Some (Str (payload ()), stop)
              | 'l' ->
                  let rec elems pos acc =
                    if pos = stop then Some (List (List.rev acc), stop)
                    else if pos >= stop || s.[pos] <> 'e' then None
                    else
                      match framed (pos + 1) with
                      | Some (elo, eplen) when elo + eplen <= stop -> (
                          match value elo (elo + eplen) with
                          | Some (m, p) when p = elo + eplen -> elems p (m :: acc)
                          | _ -> None)
                      | _ -> None
                  in
                  elems lo []
              | 't' -> (
                  if lo >= stop || s.[lo] <> 'n' then None
                  else
                    match framed (lo + 1) with
                    | Some (nlo, nlen) when nlo + nlen <= stop -> (
                        match value (nlo + nlen) stop with
                        | Some (m, p) when p = stop ->
                            Some (Tag (String.sub s nlo nlen, m), stop)
                        | _ -> None)
                    | _ -> None)
              | _ -> None)
          | _ -> None)
      | _ -> None
  in
  match value 0 len with Some (m, pos) when pos = len -> Some m | _ -> None
