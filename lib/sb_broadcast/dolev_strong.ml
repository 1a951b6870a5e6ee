open Sb_sim
open Sb_util

let default = Msg.Bit false

(* The string every signature in session [sid] covers for value [v]. *)
let base ~sid v = "ds:" ^ sid ^ ":" ^ Msg.serialize v

(* Wire format: List [value; List [List [Int signer; Str sig]; ...]] *)
let encode v sigs =
  Msg.List [ v; Msg.List (List.map (fun (i, s) -> Msg.List [ Msg.Int i; Msg.Str s ]) sigs) ]

(* The signature list of a [List [value; List sigs]] message, or [None]
   if any entry is malformed. *)
let rec decode_chain = function
  | [] -> Some []
  | Msg.List [ Msg.Int i; Msg.Str s ] :: rest ->
      Option.map (fun chain -> (i, s) :: chain) (decode_chain rest)
  | _ -> None

(* Marks the chain's signer set in the session's scratch vector and
   reads off sender/own membership, clearing the marked bits again
   before returning so the scratch costs O(chain) per call. Returns
   [None] if any signer index is duplicated or out of range: one pass
   replaces the seed's sort_uniq-based distinctness check plus two
   list scans (sender membership, own-signature lookup); an
   out-of-range signer made the seed's signature verification fail, so
   collapsing it into [None] keeps chain validity decisions
   identical. *)
let signer_mask scratch ~n ~sender ~me chain =
  let rec mark = function
    | [] -> true
    | (i, _) :: rest ->
        if i < 0 || i >= n || Bitvec.Mut.get scratch i then false
        else begin
          Bitvec.Mut.set scratch i true;
          mark rest
        end
  in
  let ok = mark chain in
  let res =
    if ok then Some (Bitvec.Mut.get scratch sender, Bitvec.Mut.get scratch me)
    else None
  in
  (* Clear exactly the in-range bits this chain touched; on the failure
     path the unmarked suffix is already false, so re-clearing it is a
     no-op. *)
  List.iter (fun (i, _) -> if i >= 0 && i < n then Bitvec.Mut.set scratch i false) chain;
  res

let scheme =
  {
    Session.scheme_name = "dolev-strong";
    rounds = (fun ctx -> ctx.Ctx.thresh + 1);
    create =
      (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
        assert ((me = sender) = Option.is_some value);
        let n = ctx.Ctx.n in
        let t = ctx.Ctx.thresh in
        let sigs = ctx.Ctx.sigs in
        let accepted : Msg.t list ref = ref [] in
        (* Values to relay next round, with their signature sets. *)
        let outbox : (Msg.t * (int * string) list) list ref = ref [] in
        let scratch = Bitvec.Mut.create n in
        let tag = Session.tag sid in
        let send_all m = Ctx.to_all ctx ~src:me (Msg.Tag (tag, m)) in
        let valid_sigs b chain =
          List.for_all (fun (i, s) -> Sb_crypto.Sig.verify sigs ~signer:i b s) chain
        in
        (* A message is accepted iff accepted holds fewer than two
           values, none equal to v; the chain is well formed, at least
           [round] long, has distinct in-range signers including the
           sender; and every signature verifies. The conjuncts are
           tested cheapest-first, so a relay of a value already held —
           most of the traffic once a value spreads — is dropped before
           its chain is decoded or any signature hashed. The order is
           exact: every conjunct is pure ([signer_mask] restores its
           scratch vector), so each message gets the verdict the
           hash-first order gave it. Only parties send on a session's
           tag (no substrate runs beside a functionality), so the
           party-only scan sees every message the session acts on. *)
        let process ~round inbox =
          Envelope.iter_from_parties ~tag
            (fun _src m ->
              if List.length !accepted < 2 then
                match m with
                | Msg.List [ v; Msg.List entries ]
                  when (not (List.exists (Msg.equal v) !accepted))
                       && List.length entries >= round -> (
                    match decode_chain entries with
                    | Some chain -> (
                        match signer_mask scratch ~n ~sender ~me chain with
                        | Some (true, signed_by_me) ->
                            let b = base ~sid v in
                            if valid_sigs b chain then begin
                              accepted := v :: !accepted;
                              if round <= t && not signed_by_me then
                                outbox :=
                                  (v, (me, Sb_crypto.Sig.sign sigs ~signer:me b) :: chain)
                                  :: !outbox
                            end
                        | _ -> ())
                    | None -> ())
                | _ -> ())
            inbox
        in
        let step ~round ~inbox =
          process ~round inbox;
          if round = 0 then begin
            match value with
            | Some v ->
                accepted := [ v ];
                let chain = [ (me, Sb_crypto.Sig.sign sigs ~signer:me (base ~sid v)) ] in
                send_all (encode v chain)
            | None -> []
          end
          else begin
            let out =
              List.concat_map (fun (v, chain) -> send_all (encode v chain)) !outbox
            in
            outbox := [];
            out
          end
        in
        let result () = match !accepted with [ v ] -> v | _ -> default in
        { Session.step; result });
  }
