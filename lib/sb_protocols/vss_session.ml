open Sb_sim
open Sb_crypto

let local_rounds = 3

type t = {
  ctx : Ctx.t;
  dealer : int;
  me : int;
  tag_comm : string;
  tag_share : string;
  tag_complain : string;
  tag_resp : string;
  tag_reveal : string;
  (* Dealer side *)
  dealt : Pedersen.dealt option;
  secret_in : Field.t option;
  (* Receiver side *)
  mutable commitment : Pedersen.commitment option;
  mutable my_share : Pedersen.share option;
  mutable complainers : int list;
  mutable disqualified : bool;
  reveals : Pedersen.share option array;
      (* Indexed by the revealing party; the first valid reveal wins. *)
  mutable n_reveals : int;
}

let tagname dealer suffix = Printf.sprintf "vss:%d:%s" dealer suffix

(* The five per-session wire tags are pure functions of the dealer
   index, and the samplers create n sessions per party per Monte-Carlo
   run — so they are served from a table built once at module init
   (before any worker domain spawns; the formatted strings are
   identical to the sprintf fallback, so wire bytes don't change). *)
let max_cached_dealer = 128

let tags dealer =
  ( tagname dealer "comm",
    tagname dealer "share",
    tagname dealer "complain",
    tagname dealer "resp",
    tagname dealer "reveal" )

let tag_table = Array.init max_cached_dealer tags

let create ctx ~rng ~dealer ~me ~secret =
  assert ((me = dealer) = Option.is_some secret);
  let dealt =
    Option.map
      (fun secret ->
        Pedersen.deal rng ~threshold:ctx.Ctx.thresh ~parties:ctx.Ctx.n ~secret)
      secret
  in
  let tag_comm, tag_share, tag_complain, tag_resp, tag_reveal =
    if dealer < max_cached_dealer then tag_table.(dealer) else tags dealer
  in
  {
    ctx;
    dealer;
    me;
    tag_comm;
    tag_share;
    tag_complain;
    tag_resp;
    tag_reveal;
    dealt;
    secret_in = secret;
    commitment = None;
    my_share = None;
    complainers = [];
    disqualified = false;
    reveals = Array.make ctx.Ctx.n None;
    n_reveals = 0;
  }

let decode_commitment ctx m =
  match m with
  | Msg.List elts when List.length elts = ctx.Ctx.thresh + 1 ->
      let decoded = List.filter_map (function Msg.Ge g -> Some g | _ -> None) elts in
      if List.length decoded = List.length elts then Some (Array.of_list decoded) else None
  | _ -> None

let decode_share_pair index = function
  | Msg.List [ Msg.Fe value; Msg.Fe blind ] -> Some { Pedersen.index; value; blind }
  | _ -> None

let encode_share (s : Pedersen.share) = Msg.List [ Msg.Fe s.Pedersen.value; Msg.Fe s.Pedersen.blind ]

(* Share checks go through [Check_memo]: every party verifies the same
   broadcast reveals and responses, and a party re-checks its own share
   at reveal time. *)
let my_share_valid t =
  match (t.commitment, t.my_share) with
  | Some c, Some s -> Check_memo.verify_share c s
  | _ -> false

(* Trace_ctx phase names for the local rounds (see the mli round
   glossary); sessions driven past round 3 show up as vss.idle. *)
let phase_name = function
  | 0 -> "vss.deal"
  | 1 -> "vss.verify"
  | 2 -> "vss.complain"
  | 3 -> "vss.judge"
  | _ -> "vss.idle"

let step_impl t ~round ~inbox ~out =
  match round with
  | 0 -> (
      (* Deal: broadcast commitment, send shares point-to-point. *)
      match t.dealt with
      | None -> ()
      | Some d ->
          t.commitment <- Some d.Pedersen.commitment;
          t.my_share <- Some d.Pedersen.shares.(t.me);
          Outbox.push out
            (Envelope.broadcast ~src:t.me
               (Msg.Tag
                  ( t.tag_comm,
                    Msg.List
                      (Array.to_list (Array.map (fun g -> Msg.Ge g) d.Pedersen.commitment)) )));
          for j = 0 to t.ctx.Ctx.n - 1 do
            if j <> t.me then
              Outbox.push out
                (Envelope.make ~src:t.me ~dst:j
                   (Msg.Tag (t.tag_share, encode_share d.Pedersen.shares.(j))))
          done)
  | 1 ->
      (* Receive commitment and share; complain if anything is off. *)
      if t.me <> t.dealer then begin
        (match Inbox.first_from ~tag:t.tag_comm ~src:t.dealer inbox with
        | Some m -> t.commitment <- decode_commitment t.ctx m
        | None -> ());
        match Inbox.first_from ~tag:t.tag_share ~src:t.dealer inbox with
        | Some m -> t.my_share <- decode_share_pair t.me m
        | None -> ()
      end;
      let unhappy = not (my_share_valid t) in
      Outbox.push out (Envelope.broadcast ~src:t.me (Msg.Tag (t.tag_complain, Msg.Bit unhappy)))
  | 2 -> (
      (* Record broadcast complaints, in inbox order; the dealer
         answers them. *)
      let complainers = ref [] in
      Inbox.iter_from_parties ~tag:t.tag_complain
        (fun src -> function Msg.Bit true -> complainers := src :: !complainers | _ -> ())
        inbox;
      t.complainers <- List.rev !complainers;
      match t.dealt with
      | Some d when t.complainers <> [] ->
          let answers =
            List.map
              (fun j ->
                Msg.List
                  [ Msg.Int j; Msg.Fe d.Pedersen.shares.(j).Pedersen.value;
                    Msg.Fe d.Pedersen.shares.(j).Pedersen.blind ])
              t.complainers
          in
          Outbox.push out (Envelope.broadcast ~src:t.me (Msg.Tag (t.tag_resp, Msg.List answers)))
      | _ -> ())
  | 3 -> (
      (* Judge: every complaint needs a valid broadcast response. *)
      let responses =
        match Inbox.first_from ~tag:t.tag_resp ~src:t.dealer inbox with
        | Some (Msg.List answers) ->
            List.filter_map
              (function
                | Msg.List [ Msg.Int j; Msg.Fe value; Msg.Fe blind ] ->
                    Some (j, { Pedersen.index = j; value; blind })
                | _ -> None)
              answers
        | Some _ | None -> []
      in
      match t.commitment with
      | None -> t.disqualified <- true
      | Some c ->
          let answered j =
            List.exists (fun (i, s) -> i = j && Check_memo.verify_share c s) responses
          in
          if not (List.for_all answered t.complainers) then t.disqualified <- true
          else if List.mem t.me t.complainers then
            (* Adopt the (valid) public response as my share. *)
            t.my_share <- List.assoc_opt t.me responses)
  | _ -> ()

let step t ~round ~inbox ~out =
  if Sb_obs.Trace_ctx.enabled () then begin
    let sp = Sb_obs.Trace_ctx.begin_span ~cat:"phase" (phase_name round) in
    step_impl t ~round ~inbox ~out;
    Sb_obs.Trace_ctx.end_span sp
  end
  else step_impl t ~round ~inbox ~out

let reveal_msgs t ~out =
  if (not t.disqualified) && my_share_valid t then
    match t.my_share with
    | Some s -> Outbox.push out (Envelope.broadcast ~src:t.me (Msg.Tag (t.tag_reveal, encode_share s)))
    | None -> ()

let collect_reveals t inbox =
  match t.commitment with
  | None -> ()
  | Some c ->
      Inbox.iter_from_parties ~tag:t.tag_reveal
        (fun src m ->
          if src >= 0 && src < Array.length t.reveals && Option.is_none t.reveals.(src) then
            match decode_share_pair src m with
            | Some s when Check_memo.verify_share c s ->
                t.reveals.(src) <- Some s;
                t.n_reveals <- t.n_reveals + 1
            | Some _ | None -> ())
        inbox

(* The accepted reveals in sender (= share index) order. *)
let good_shares t =
  let rec from i acc =
    if i < 0 then acc
    else from (i - 1) (match t.reveals.(i) with Some s -> s :: acc | None -> acc)
  in
  from (Array.length t.reveals - 1) []

let reconstruct_with t f =
  if t.disqualified || t.n_reveals < t.ctx.Ctx.thresh + 1 then None
  else Some (f (good_shares t))

let secret t = reconstruct_with t Pedersen.reconstruct
let blind t = reconstruct_with t Pedersen.reconstruct_blind

let dealer_opening t =
  match (t.secret_in, t.dealt) with
  | Some secret, Some d -> Some (secret, d.Pedersen.blind0)
  | _ -> None
