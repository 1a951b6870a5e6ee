type scheme = { keys : string array }
type signature = string

let create rng ~n = { keys = Array.init n (fun _ -> Sb_util.Rng.bytes rng 32) }

let sign_uncached s ~signer msg =
  assert (signer >= 0 && signer < Array.length s.keys);
  Sha256.digest ("simbcast.sig.v1:" ^ s.keys.(signer) ^ "\x00" ^ msg)

(* Direct-mapped, domain-local memo of signatures, in the style of
   [Sb_protocols.Check_memo]: a slot holds one full key (the signer's
   secret key, the signer and the message) and its signature; a lookup
   compares the whole key and a store overwrites the slot, so a
   collision only costs a recomputation. 256 slots cover the
   (signer, value) pairs a Dolev-Strong run signs and verifies over
   and over; 4096 slots measurably raised the model checker's peak
   resident memory. *)
let slot_bits = 8

type entry = {
  mutable live : bool;
  mutable key : string;
  mutable signer : int;
  mutable msg : string;
  mutable signature : signature;
}

let table =
  Domain.DLS.new_key (fun () ->
      Array.init (1 lsl slot_bits) (fun _ ->
          { live = false; key = ""; signer = 0; msg = ""; signature = "" }))

(* Multiplicative hashing: the top [slot_bits] bits of the product. *)
let slot s ~signer msg =
  let h =
    Hashtbl.hash msg
    lxor (signer lsl 30)
    lxor Int64.to_int (String.get_int64_le s.keys.(signer) 0)
  in
  (h * 0x2545F4914F6CDD1D) lsr (Sys.int_size - slot_bits)

let sign s ~signer msg =
  assert (signer >= 0 && signer < Array.length s.keys);
  let key = s.keys.(signer) in
  let e = (Domain.DLS.get table).(slot s ~signer msg) in
  if e.live && e.signer = signer && String.equal e.key key && String.equal e.msg msg then
    e.signature
  else begin
    let signature = sign_uncached s ~signer msg in
    e.live <- true;
    e.key <- key;
    e.signer <- signer;
    e.msg <- msg;
    e.signature <- signature;
    signature
  end

let verify s ~signer msg signature =
  signer >= 0
  && signer < Array.length s.keys
  && String.equal signature (sign s ~signer msg)

let n s = Array.length s.keys
