open Sb_crypto

(* Direct-mapped, domain-local memo of the public checks every honest
   party of a VSS run repeats on the same broadcast data. A slot holds
   one full key and its answer; a lookup compares the whole key, and a
   store overwrites whatever the slot held. There is no eviction policy
   and nothing to tune: a collision only costs a recomputation. *)

let slot_bits = 10
let slots = 1 lsl slot_bits

(* Multiplicative hashing: the top [slot_bits] bits of the product. *)
let[@inline] slot_of h = (h * 0x2545F4914F6CDD1D) lsr (Sys.int_size - slot_bits)

type verdict = {
  mutable live : bool;
  mutable index : int;
  mutable value : Field.t;
  mutable blind : Field.t;
  (* Owned copy of the commitment: the caller's array may be mutated
     after the store. *)
  mutable comm : Modgroup.elt array;
  mutable ok : bool;
}

type tag = {
  mutable tag_live : bool;
  mutable salt : string;
  mutable dealer : int;
  mutable secret : Field.t;
  mutable tag_blind : Field.t;
  mutable digest : string;
}

type tables = { verdicts : verdict array; tags : tag array }

let tables =
  Domain.DLS.new_key (fun () ->
      {
        verdicts =
          Array.init slots (fun _ ->
              { live = false; index = 0; value = Field.zero; blind = Field.zero; comm = [||]; ok = false });
        tags =
          Array.init slots (fun _ ->
              {
                tag_live = false;
                salt = "";
                dealer = 0;
                secret = Field.zero;
                tag_blind = Field.zero;
                digest = "";
              });
      })

let share_slot (c : Pedersen.commitment) (s : Pedersen.share) =
  let c0 = if Array.length c > 0 then Modgroup.to_int c.(0) else 0 in
  slot_of
    (Field.to_int s.Pedersen.value
    lxor (Field.to_int s.Pedersen.blind lsl 30)
    lxor (s.Pedersen.index lsl 50)
    lxor (c0 lsl 15))

(* Top-level recursion: a local closure over [a] and [b] would be
   allocated on every lookup. *)
let rec same_from (a : Modgroup.elt array) b i =
  i < 0 || (Modgroup.equal a.(i) b.(i) && same_from a b (i - 1))

let same_commitment a b =
  Array.length a = Array.length b && same_from a b (Array.length a - 1)

let verify_share c s =
  let e = (Domain.DLS.get tables).verdicts.(share_slot c s) in
  if
    e.live && e.index = s.Pedersen.index
    && Field.equal e.value s.Pedersen.value
    && Field.equal e.blind s.Pedersen.blind
    && same_commitment e.comm c
  then e.ok
  else begin
    let ok = Pedersen.verify_share c s in
    e.live <- true;
    e.index <- s.Pedersen.index;
    e.value <- s.Pedersen.value;
    e.blind <- s.Pedersen.blind;
    (* Copy into the slot's own array when the degree matches. *)
    if Array.length e.comm = Array.length c then Array.blit c 0 e.comm 0 (Array.length c)
    else e.comm <- Array.copy c;
    e.ok <- ok;
    ok
  end

let tag_slot ~salt ~dealer ~secret ~blind =
  let s0 = if String.length salt >= 8 then Int64.to_int (String.get_int64_le salt 0) else 0 in
  slot_of (Field.to_int secret lxor (Field.to_int blind lsl 30) lxor (dealer lsl 50) lxor s0)

let knowledge_tag compute ~salt ~dealer ~secret ~blind =
  let e = (Domain.DLS.get tables).tags.(tag_slot ~salt ~dealer ~secret ~blind) in
  if
    e.tag_live && e.dealer = dealer && Field.equal e.secret secret
    && Field.equal e.tag_blind blind && String.equal e.salt salt
  then e.digest
  else begin
    let digest = compute ~salt ~dealer ~secret ~blind in
    e.tag_live <- true;
    e.salt <- salt;
    e.dealer <- dealer;
    e.secret <- secret;
    e.tag_blind <- blind;
    e.digest <- digest;
    digest
  end
