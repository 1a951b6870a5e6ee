type backend = Hash | Ideal
type commitment = string
type opening = { value : string; nonce : string }

type entry = Bound of string | Placeholder

type scheme = {
  backend : backend;
  k : int;
  registry : (commitment, entry) Hashtbl.t;
  (* Hash backend: record of every (value, nonce) committed through this
     scheme, keyed by digest — the random-oracle transcript. *)
}

let create ?(k = 16) backend = { backend; k; registry = Hashtbl.create 64 }
let backend s = s.backend
let domain_tag = "simbcast.commit.v1:"
let hash_of value nonce = Sha256.digest (domain_tag ^ value ^ "\x00" ^ nonce)

let fresh_handle s rng =
  (* 8 extra bytes of per-scheme counter-free entropy keep collisions
     out of reach even across splits of the same seed. *)
  let rec go () =
    let h = "ideal:" ^ Sha256.to_hex (Sb_util.Rng.bytes rng (s.k + 8)) in
    if Hashtbl.mem s.registry h then go () else h
  in
  go ()

(* Direct-mapped, domain-local memo of Hash-backend verdicts, in the
   style of [Sig.sign]: a slot holds one full key (commitment, value,
   nonce) and its verdict; a lookup compares the whole key and a store
   overwrites the slot, so a collision only costs a recomputation. A
   Hash verdict depends on the key alone, never on the scheme, which
   is what makes one table per domain sound. [commit] seeds its own
   slot, so in commit-open, where every party checks the same n
   broadcast openings, a session hashes once per commitment. The Ideal
   backend is never memoized: [equivocate] rebinds a handle, which
   changes its verdicts. *)
let slot_bits = 8

type memo = {
  mutable live : bool;
  mutable c : commitment;
  mutable value : string;
  mutable nonce : string;
  mutable ok : bool;
}

let table =
  Domain.DLS.new_key (fun () ->
      Array.init (1 lsl slot_bits) (fun _ ->
          { live = false; c = ""; value = ""; nonce = ""; ok = false }))

(* Multiplicative hashing: the top [slot_bits] bits of the product. *)
let slot c (o : opening) =
  let h = Hashtbl.hash c lxor (Hashtbl.hash o.value lsl 7) lxor (Hashtbl.hash o.nonce lsl 14) in
  (h * 0x2545F4914F6CDD1D) lsr (Sys.int_size - slot_bits)

let entry c o = (Domain.DLS.get table).(slot c o)

let store e c (o : opening) ok =
  e.live <- true;
  e.c <- c;
  e.value <- o.value;
  e.nonce <- o.nonce;
  e.ok <- ok

let commit s rng value =
  let nonce = Sb_util.Rng.bytes rng s.k in
  match s.backend with
  | Hash ->
      let c = hash_of value nonce in
      Hashtbl.replace s.registry c (Bound value);
      let o = { value; nonce } in
      store (entry c o) c o true;
      (c, o)
  | Ideal ->
      let c = fresh_handle s rng in
      Hashtbl.replace s.registry c (Bound value);
      (c, { value; nonce })

let verify_uncached s c (o : opening) =
  match s.backend with
  | Hash -> String.equal c (hash_of o.value o.nonce)
  | Ideal -> (
      match Hashtbl.find_opt s.registry c with
      | Some (Bound v) -> String.equal v o.value
      | Some Placeholder | None -> false)

let verify s c (o : opening) =
  match s.backend with
  | Ideal -> verify_uncached s c o
  | Hash ->
      let e = entry c o in
      if
        e.live && String.equal e.c c && String.equal e.value o.value
        && String.equal e.nonce o.nonce
      then e.ok
      else begin
        let ok = verify_uncached s c o in
        store e c o ok;
        ok
      end

let extract s c =
  match Hashtbl.find_opt s.registry c with
  | Some (Bound v) -> Some v
  | Some Placeholder | None -> None

let commit_placeholder s rng =
  match s.backend with
  | Hash -> invalid_arg "Commit.commit_placeholder: Hash backend is not equivocable"
  | Ideal ->
      let c = fresh_handle s rng in
      Hashtbl.replace s.registry c Placeholder;
      c

let equivocate s c value =
  match s.backend with
  | Hash -> invalid_arg "Commit.equivocate: Hash backend is not equivocable"
  | Ideal -> (
      match Hashtbl.find_opt s.registry c with
      | Some Placeholder ->
          Hashtbl.replace s.registry c (Bound value);
          { value; nonce = "" }
      | Some (Bound _) -> invalid_arg "Commit.equivocate: handle already bound"
      | None -> invalid_arg "Commit.equivocate: unknown handle")
