open Sb_sim
open Sb_util

let default = Msg.Bit false

(* Per-round bookkeeping is Bitvec-backed: one "already heard an echo /
   ready from this party" membership vector per message kind (the seed
   kept a per-source hashtable and re-counted it for every candidate
   value, an O(parties) scan per quorum check per round), plus one
   tally record per distinct value in first-seen order. Quorum checks
   are then integer compares. Distinct values stay unique in practice:
   echoes and readies are recorded at most once per source, so two
   values can never both reach the echo quorum ceil((n+t+1)/2), and a
   ready candidate needs an honest ready, which itself roots in an
   echo quorum — test_broadcast.ml checks the refactor differentially
   against a pinned copy of the seed implementation. *)
type tally = { v : Msg.t; mutable echoes : int; mutable readies : int }

(* The tally of [v] among [l] (the contents of [tallies]), appended to
   [tallies] when [v] is new. A top-level scan, so a hit allocates
   nothing. *)
let rec find_tally tallies v = function
  | s :: rest -> if Msg.equal s.v v then s else find_tally tallies v rest
  | [] ->
      let s = { v; echoes = 0; readies = 0 } in
      tallies := !tallies @ [ s ];
      s

let scheme =
  {
    Session.scheme_name = "bracha";
    rounds = (fun _ -> 4);
    create =
      (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
        assert ((me = sender) = Option.is_some value);
        let n = ctx.Ctx.n in
        let t = ctx.Ctx.thresh in
        let echo_quorum = (n + t + 2) / 2 (* ceil((n+t+1)/2) *) in
        (* Receive sets: which parties' echo/ready has been counted.
           First message per source wins, as in the seed. Mutable so a
           recorded message costs O(1), not an O(n) vector copy. *)
        let echo_seen = Bitvec.Mut.create n in
        let ready_seen = Bitvec.Mut.create n in
        (* Distinct values with their tallies, oldest first. *)
        let tallies : tally list ref = ref [] in
        let echoed = ref false in
        let ready_sent = ref false in
        let tag = Session.tag sid in
        (* Wrap once, share the body across all n envelopes; drawn from
           the outbox's arena when it has one. *)
        let send_all out m = Outbox.to_all out ~n ~src:me (Msg.Tag (tag, m)) in
        let tally_for v = find_tally tallies v !tallies in
        (* Built once per session: the shared scan calls it per
           tagged envelope without allocating. *)
        let record_one src = function
          | Msg.Tag ("br-echo", v) ->
              if not (Bitvec.Mut.get echo_seen src) then begin
                Bitvec.Mut.set echo_seen src true;
                let s = tally_for v in
                s.echoes <- s.echoes + 1
              end
          | Msg.Tag ("br-ready", v) ->
              if not (Bitvec.Mut.get ready_seen src) then begin
                Bitvec.Mut.set ready_seen src true;
                let s = tally_for v in
                s.readies <- s.readies + 1
              end
          | _ -> ()
        in
        let maybe_ready out =
          if not !ready_sent then
            match
              List.find_opt
                (fun s -> s.echoes >= echo_quorum || s.readies >= t + 1)
                !tallies
            with
            | Some s ->
                ready_sent := true;
                send_all out (Msg.Tag ("br-ready", s.v))
            | None -> ()
        in
        let step ~round ~inbox ~out =
          Inbox.iter_from_parties ~tag record_one inbox;
          match round with
          | 0 -> (
              match value with
              | Some v -> send_all out (Msg.Tag ("br-init", v))
              | None -> ())
          | 1 ->
              if not !echoed then begin
                (* The sender's first br-init, skipping anything else it
                   sent before it. *)
                let init = ref None in
                Inbox.iter_from_parties ~tag
                  (fun src m ->
                    match m with
                    | Msg.Tag ("br-init", v) when src = sender && Option.is_none !init ->
                        init := Some v
                    | _ -> ())
                  inbox;
                match !init with
                | Some v ->
                    echoed := true;
                    send_all out (Msg.Tag ("br-echo", v))
                | None -> ()
              end
          | 2 | 3 -> maybe_ready out
          | _ -> ()
        in
        let result () =
          match List.find_opt (fun s -> s.readies >= (2 * t) + 1) !tallies with
          | Some s -> s.v
          | None -> default
        in
        { Session.step; result });
  }
