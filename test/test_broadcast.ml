(* Tests for sb_broadcast: each single-sender scheme satisfies the
   broadcast contract (consistency + correctness with an honest sender;
   consistency with a corrupted sender), and the parallel compositions
   satisfy the parallel-broadcast contract of §3.2. *)

open Sb_sim

(* The list-building send-alls the adversaries and the pinned seed
   copies below are written against. *)
module Envelope = struct
  include Envelope

  let to_all ~n ~src body = List.init n (fun dst -> make ~src ~dst body)
end

module Ctx = struct
  include Ctx

  let to_all ctx ~src body = Envelope.to_all ~n:ctx.n ~src body
end

(* The per-session filter the compositions' sid bucketing must agree
   with: the envelopes whose body carries exactly [Session.tag sid], in
   inbox order. *)
let inbox_for ~sid =
  let t = Sb_broadcast.Session.tag sid in
  List.filter (fun (e : Envelope.t) ->
      match e.Envelope.body with Msg.Tag (t', _) -> String.equal t' t | _ -> false)

(* The list-style session interface the pinned seed copies are written
   against (a step takes and returns envelope lists), with [unwrap],
   and the adapter onto the outbox contract. *)
module List_session = struct
  type t = {
    step : round:int -> inbox:Envelope.t list -> Envelope.t list;
    result : unit -> Msg.t;
  }

  type scheme = {
    scheme_name : string;
    rounds : Ctx.t -> int;
    create :
      Ctx.t -> rng:Sb_util.Rng.t -> sid:string -> sender:int -> me:int -> value:Msg.t option -> t;
  }

  let tag = Sb_broadcast.Session.tag
  let wrap = Sb_broadcast.Session.wrap

  let unwrap ~sid =
    let t = tag sid in
    function Msg.Tag (t', m) when String.equal t' t -> Some m | _ -> None

  let to_scheme s =
    {
      Sb_broadcast.Session.scheme_name = s.scheme_name;
      rounds = s.rounds;
      create =
        (fun ctx ~rng ~sid ~sender ~me ~value ->
          let l = s.create ctx ~rng ~sid ~sender ~me ~value in
          { Sb_broadcast.Session.step = Party.of_list_step l.step; result = l.result });
    }
end

let seed = ref 0

let fresh_rng () =
  incr seed;
  Sb_util.Rng.create (40000 + !seed)

let make_ctx ?(n = 4) ?(thresh = 1) () = Ctx.make ~rng:(fresh_rng ()) ~n ~thresh ~k:8 ()

(* Drive one single-sender session for every party over the plain
   network, by wrapping it as a Protocol. *)
let session_protocol (scheme : Sb_broadcast.Session.scheme) ~sender =
  {
    Protocol.name = "session-" ^ scheme.Sb_broadcast.Session.scheme_name;
    rounds = (fun ctx -> scheme.Sb_broadcast.Session.rounds ctx);
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input ->
        let value = if id = sender then Some input else None in
        let s =
          scheme.Sb_broadcast.Session.create ctx ~rng ~sid:"test" ~sender ~me:id ~value
        in
        {
          Party.step =
            (fun ~round ~inbox ~out ->
              s.Sb_broadcast.Session.step ~round
                ~inbox:(Inbox.of_list (inbox_for ~sid:"test" (Inbox.to_list inbox)))
                ~out);
          output = (fun () -> s.Sb_broadcast.Session.result ());
        });
  }

let schemes =
  [
    ("send-echo", Sb_broadcast.Send_echo.scheme);
    ("dolev-strong", Sb_broadcast.Dolev_strong.scheme);
    ("eig", Sb_broadcast.Eig.scheme);
    ("bracha", Sb_broadcast.Bracha.scheme);
  ]

let check_all_agree ~msg expected outputs =
  List.iter
    (fun (_, out) -> Alcotest.(check bool) msg true (Msg.equal out expected))
    outputs

let test_honest_sender_correct scheme () =
  (* Every sender position, both bit values. *)
  List.iter
    (fun sender ->
      List.iter
        (fun b ->
          let ctx = make_ctx () in
          let inputs = Array.make 4 (Msg.Bit b) in
          let r =
            Network.honest_run ctx ~rng:(fresh_rng ())
              ~protocol:(session_protocol scheme ~sender) ~inputs
          in
          check_all_agree ~msg:"correct broadcast" (Msg.Bit b) r.Network.outputs)
        [ true; false ])
    [ 0; 1; 2; 3 ]

let test_honest_sender_vs_lying_echoers scheme () =
  (* Corrupted non-senders echo lies; honest parties must still decide
     the sender's value. *)
  let protocol = session_protocol scheme ~sender:0 in
  let adv =
    {
      Adversary.name = "liar";
      choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
      init =
        (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                (* Replay every rushed honest message with the bit
                   flipped, as party 3. Crude, but enough to stress
                   majority/signature logic of every scheme. *)
                List.concat_map
                  (fun (e : Envelope.t) ->
                    match e.Envelope.body with
                    | Msg.Tag (tag, Msg.Bit b) ->
                        Envelope.to_all ~n:ctx.Ctx.n ~src:3 (Msg.Tag (tag, Msg.Bit (not b)))
                    | Msg.Tag (tag, Msg.Tag ("echo", Msg.Bit b)) ->
                        Envelope.to_all ~n:ctx.Ctx.n ~src:3
                          (Msg.Tag (tag, Msg.Tag ("echo", Msg.Bit (not b))))
                    | _ -> [])
                  (Lazy.force view.Adversary.rushed)
                |> fun l -> if view.Adversary.round <= 2 then l else []);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let ctx = make_ctx () in
  let inputs = Array.make 4 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol ~adversary:adv ~inputs () in
  check_all_agree ~msg:"sender value wins" (Msg.Bit true) r.Network.outputs

let test_corrupted_sender_consistency scheme () =
  (* A corrupted sender equivocates: sends 1 to low-numbered parties
     and 0 to the rest in its first round. Honest parties must still
     agree with each other (consistency), whatever they decide. *)
  let sender = 0 in
  let protocol = session_protocol scheme ~sender in
  let adv =
    {
      Adversary.name = "equivocator";
      choose_corrupt = (fun _ ~rng:_ -> [ sender ]);
      init =
        (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          let sigs = ctx.Ctx.sigs in
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round <> 0 then []
                else
                  List.init ctx.Ctx.n (fun dst ->
                      let v = Msg.Bit (dst < ctx.Ctx.n / 2) in
                      (* Speak each scheme's wire format well enough to
                         be heard: send-echo takes the raw value; DS
                         needs a signature; EIG needs a path. *)
                      let body =
                        match scheme.Sb_broadcast.Session.scheme_name with
                        | "send-echo" -> v
                        | "bracha" -> Msg.Tag ("br-init", v)
                        | "dolev-strong" ->
                            let base = "ds:test:" ^ Msg.serialize v in
                            Msg.List
                              [
                                v;
                                Msg.List
                                  [
                                    Msg.List
                                      [
                                        Msg.Int sender;
                                        Msg.Str (Sb_crypto.Sig.sign sigs ~signer:sender base);
                                      ];
                                  ];
                              ]
                        | _ -> Msg.List [ Msg.List [ Msg.List [ Msg.Int sender ]; v ] ]
                      in
                      Envelope.make ~src:sender ~dst
                        (Sb_broadcast.Session.wrap ~sid:"test" body)));
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let ctx = make_ctx () in
  let inputs = Array.make 4 (Msg.Bit false) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol ~adversary:adv ~inputs () in
  match r.Network.outputs with
  | [] -> Alcotest.fail "no honest outputs"
  | (_, first) :: rest ->
      List.iter
        (fun (_, out) -> Alcotest.(check bool) "consistency" true (Msg.equal out first))
        rest

(* --- Parallel compositions ---------------------------------------- *)

let bitvec_of_result (r : Network.result) =
  match r.Network.outputs with
  | (_, m) :: _ -> Msg.to_bitvec_exn m
  | [] -> Alcotest.fail "no outputs"

let test_parallel_contract make_protocol scheme () =
  (* Honest runs: every announced vector equals the input vector, and
     all parties agree. *)
  let protocol = make_protocol scheme in
  List.iter
    (fun v ->
      let ctx = make_ctx () in
      let x = Sb_util.Bitvec.of_int 4 v in
      let inputs = Array.init 4 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol ~inputs in
      let w = bitvec_of_result r in
      Alcotest.(check string) "announced = inputs" (Sb_util.Bitvec.to_string x)
        (Sb_util.Bitvec.to_string w);
      match r.Network.outputs with
      | (_, first) :: rest ->
          List.iter
            (fun (_, m) -> Alcotest.(check bool) "agreement" true (Msg.equal m first))
            rest
      | [] -> Alcotest.fail "no outputs")
    [ 0; 5; 10; 15 ]

let test_sequential_rounds_linear () =
  let scheme = Sb_broadcast.Send_echo.scheme in
  let p = Sb_broadcast.Parallel.sequential scheme in
  let c = Sb_broadcast.Parallel.concurrent scheme in
  let ctx4 = make_ctx ~n:4 () in
  let ctx8 = make_ctx ~n:8 () in
  Alcotest.(check int) "sequential n=4" 11 (p.Protocol.rounds ctx4);
  Alcotest.(check int) "sequential n=8" 23 (p.Protocol.rounds ctx8);
  Alcotest.(check int) "concurrent constant" (c.Protocol.rounds ctx4)
    (c.Protocol.rounds ctx8)

(* --- targeted adversarial cases ------------------------------------ *)

let test_dolev_strong_rejects_forgery () =
  (* A corrupted non-sender injects a value with a bogus signature
     chain; honest parties must ignore it and stick to the sender's
     value. *)
  let protocol = session_protocol Sb_broadcast.Dolev_strong.scheme ~sender:0 in
  let adv =
    {
      Adversary.name = "forger";
      choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
      init =
        (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          let sigs = ctx.Ctx.sigs in
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round <> 1 then []
                else begin
                  (* Fake chains for value 0: (a) self-signed only —
                     lacks the sender's signature; (b) carrying a
                     signature attributed to the sender but computed by
                     party 3 — fails verification. *)
                  let v = Msg.Bit false in
                  let base = "ds:test:" ^ Msg.serialize v in
                  let chain_a =
                    Msg.List [ Msg.List [ Msg.Int 3; Msg.Str (Sb_crypto.Sig.sign sigs ~signer:3 base) ] ]
                  in
                  let chain_b =
                    Msg.List
                      [
                        Msg.List [ Msg.Int 0; Msg.Str (Sb_crypto.Sig.sign sigs ~signer:3 base) ];
                        Msg.List [ Msg.Int 3; Msg.Str (Sb_crypto.Sig.sign sigs ~signer:3 base) ];
                      ]
                  in
                  List.concat_map
                    (fun chain ->
                      Envelope.to_all ~n:ctx.Ctx.n ~src:3
                        (Sb_broadcast.Session.wrap ~sid:"test" (Msg.List [ v; chain ])))
                    [ chain_a; chain_b ]
                end);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let ctx = make_ctx () in
  let inputs = Array.make 4 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol ~adversary:adv ~inputs () in
  check_all_agree ~msg:"forgeries ignored" (Msg.Bit true) r.Network.outputs

let test_eig_two_corruptions () =
  (* EIG at t = 2 needs n >= 7; two corrupted relays lie, the honest
     majority resolution still recovers the sender's value. *)
  let protocol = session_protocol Sb_broadcast.Eig.scheme ~sender:0 in
  let adv =
    {
      Adversary.name = "two-liars";
      choose_corrupt = (fun _ ~rng:_ -> [ 5; 6 ]);
      init =
        (fun ctx ~rng:_ ~corrupted ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                (* Relay a flipped value for every path, as both liars. *)
                if view.Adversary.round < 1 || view.Adversary.round > ctx.Ctx.thresh then []
                else
                  List.concat_map
                    (fun me ->
                      Envelope.to_all ~n:ctx.Ctx.n ~src:me
                        (Sb_broadcast.Session.wrap ~sid:"test"
                           (Msg.List
                              [
                                Msg.List
                                  [ Msg.List [ Msg.Int 0; Msg.Int me ]; Msg.Bit false ];
                              ])))
                    corrupted);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let ctx = make_ctx ~n:7 ~thresh:2 () in
  let inputs = Array.make 7 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol ~adversary:adv ~inputs () in
  check_all_agree ~msg:"eig t=2 validity" (Msg.Bit true) r.Network.outputs

let test_bracha_no_quorum_defaults () =
  (* A silent sender: nobody echoes, nobody accepts; all honest output
     the default, consistently. *)
  let protocol = session_protocol Sb_broadcast.Bracha.scheme ~sender:0 in
  let adv =
    {
      Adversary.name = "silent-sender";
      choose_corrupt = (fun _ ~rng:_ -> [ 0 ]);
      init =
        (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          { Adversary.act = (fun _ -> []); adv_output = (fun () -> Msg.Unit) });
    }
  in
  let ctx = make_ctx () in
  let inputs = Array.make 4 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol ~adversary:adv ~inputs () in
  check_all_agree ~msg:"default on silence" (Msg.Bit false) r.Network.outputs

let test_spoofed_sources_counted () =
  (* A corrupted party impersonating honest senders: the authenticated
     network must discard exactly the spoofed envelopes AND tally them
     under sim.forgeries_dropped (the outputs-only check above cannot
     tell "dropped" from "ignored by the protocol"). *)
  let protocol = session_protocol Sb_broadcast.Send_echo.scheme ~sender:0 in
  let spoof_rounds = 2 in
  let adv =
    {
      Adversary.name = "spoofer";
      choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
      init =
        (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round >= spoof_rounds then []
                else
                  (* Two forged envelopes (src 1 and 2) plus one honestly
                     sourced one that must pass the filter. *)
                  List.map
                    (fun src ->
                      Envelope.make ~src ~dst:2
                        (Sb_broadcast.Session.wrap ~sid:"test"
                           (Msg.Tag ("echo", Msg.Bit false))))
                    [ 1; 2; 3 ]);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  Sb_obs.Metrics.reset ();
  Sb_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Sb_obs.Metrics.set_enabled false;
      Sb_obs.Metrics.reset ())
    (fun () ->
      let ctx = make_ctx () in
      let inputs = Array.make 4 (Msg.Bit true) in
      let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol ~adversary:adv ~inputs () in
      check_all_agree ~msg:"spoofing changes nothing" (Msg.Bit true) r.Network.outputs;
      Alcotest.(check int) "exactly the forged envelopes are tallied"
        (2 * spoof_rounds)
        (Sb_obs.Metrics.counter_value (Sb_obs.Metrics.counter "sim.forgeries_dropped")))

(* --- Phase King (needs n > 4t: use n = 5, t = 1) ------------------- *)

let test_phase_king_honest () =
  List.iter
    (fun sender ->
      List.iter
        (fun b ->
          let ctx = make_ctx ~n:5 ~thresh:1 () in
          let inputs = Array.make 5 (Msg.Bit b) in
          let r =
            Network.honest_run ctx ~rng:(fresh_rng ())
              ~protocol:(session_protocol Sb_broadcast.Phase_king.scheme ~sender)
              ~inputs
          in
          check_all_agree ~msg:"phase-king correct" (Msg.Bit b) r.Network.outputs)
        [ true; false ])
    [ 0; 2; 4 ]

let test_phase_king_equivocating_sender () =
  (* Corrupted sender 4 (not a king: kings are 0 and 1) splits the
     parties; honest parties must still agree. *)
  let sender = 4 in
  let protocol = session_protocol Sb_broadcast.Phase_king.scheme ~sender in
  let adv =
    {
      Adversary.name = "pk-equivocator";
      choose_corrupt = (fun _ ~rng:_ -> [ sender ]);
      init =
        (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round <> 0 then []
                else
                  List.init ctx.Ctx.n (fun dst ->
                      let v = Msg.Bit (dst mod 2 = 0) in
                      Envelope.make ~src:sender ~dst
                        (Sb_broadcast.Session.wrap ~sid:"test" (Msg.Tag ("pk-send", v)))));
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let ctx = make_ctx ~n:5 ~thresh:1 () in
  let inputs = Array.make 5 (Msg.Bit false) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol ~adversary:adv ~inputs () in
  match r.Network.outputs with
  | [] -> Alcotest.fail "no honest outputs"
  | (_, first) :: rest ->
      List.iter
        (fun (_, out) -> Alcotest.(check bool) "pk consistency" true (Msg.equal out first))
        rest

let test_phase_king_lying_nonking () =
  (* A corrupted non-king echoing garbage in the exchanges cannot move
     an honest sender's value (t < n/4 validity). *)
  let protocol = session_protocol Sb_broadcast.Phase_king.scheme ~sender:0 in
  let adv =
    {
      Adversary.name = "pk-liar";
      choose_corrupt = (fun _ ~rng:_ -> [ 4 ]);
      init =
        (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round mod 2 = 1 then
                  Envelope.to_all ~n:ctx.Ctx.n ~src:4
                    (Sb_broadcast.Session.wrap ~sid:"test"
                       (Msg.Tag ("pk-val", Msg.Bit false)))
                else []);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let ctx = make_ctx ~n:5 ~thresh:1 () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol ~adversary:adv ~inputs () in
  check_all_agree ~msg:"validity under lies" (Msg.Bit true) r.Network.outputs

let test_phase_king_rounds () =
  let ctx1 = make_ctx ~n:5 ~thresh:1 () in
  let ctx2 = make_ctx ~n:9 ~thresh:2 () in
  Alcotest.(check int) "t=1" 5 (Sb_broadcast.Phase_king.scheme.Sb_broadcast.Session.rounds ctx1);
  Alcotest.(check int) "t=2" 7 (Sb_broadcast.Phase_king.scheme.Sb_broadcast.Session.rounds ctx2)

let test_window () =
  let lo, hi =
    Sb_broadcast.Parallel.window ~mode:`Sequential ~scheme_rounds:2 ~sender:3
  in
  Alcotest.(check (pair int int)) "window" (9, 11) (lo, hi);
  let lo, hi =
    Sb_broadcast.Parallel.window ~mode:`Concurrent ~scheme_rounds:2 ~sender:3
  in
  Alcotest.(check (pair int int)) "concurrent window" (0, 2) (lo, hi)

(* --- differential: Bitvec hot paths vs the seed implementations ----- *)

(* Pinned copies of the pre-Bitvec Bracha and Dolev-Strong sessions
   (hashtable receive sets re-counted per candidate; list-scan signer
   chains). The library rewrote those hot paths over Sb_util.Bitvec;
   these copies replay the same adversarial traffic through the old
   code so any semantic drift shows up as an output mismatch. *)
module Seed_bracha = struct
  module Session = List_session

  let default = Msg.Bit false

  let scheme =
    {
      Session.scheme_name = "bracha-seed";
      rounds = (fun _ -> 4);
      create =
        (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
          assert ((me = sender) = Option.is_some value);
          let n = ctx.Ctx.n in
          let t = ctx.Ctx.thresh in
          let echo_quorum = (n + t + 2) / 2 in
          let echoes : (int, Msg.t) Hashtbl.t = Hashtbl.create 8 in
          let readies : (int, Msg.t) Hashtbl.t = Hashtbl.create 8 in
          let echoed = ref false in
          let ready_sent = ref false in
          let wrap m = Session.wrap ~sid m in
          let send_all m =
            List.map
              (fun (e : Envelope.t) -> { e with Envelope.body = wrap e.Envelope.body })
              (Envelope.to_all ~n ~src:me m)
          in
          let count table v =
            Hashtbl.fold (fun _ m acc -> if Msg.equal m v then acc + 1 else acc) table 0
          in
          let values table =
            let seen = Hashtbl.create 4 in
            Hashtbl.iter (fun _ m -> Hashtbl.replace seen (Msg.serialize m) m) table;
            Hashtbl.fold (fun _ m acc -> m :: acc) seen []
          in
          let record inbox =
            List.iter
              (fun (e : Envelope.t) ->
                match (Envelope.src_party e, Session.unwrap ~sid e.Envelope.body) with
                | Some src, Some (Msg.Tag ("br-echo", v)) ->
                    if not (Hashtbl.mem echoes src) then Hashtbl.replace echoes src v
                | Some src, Some (Msg.Tag ("br-ready", v)) ->
                    if not (Hashtbl.mem readies src) then Hashtbl.replace readies src v
                | _ -> ())
              inbox
          in
          let maybe_ready () =
            if !ready_sent then []
            else
              let candidates =
                List.filter
                  (fun v -> count echoes v >= echo_quorum || count readies v >= t + 1)
                  (values echoes @ values readies)
              in
              match candidates with
              | v :: _ ->
                  ready_sent := true;
                  send_all (Msg.Tag ("br-ready", v))
              | [] -> []
          in
          let step ~round ~inbox =
            record inbox;
            match round with
            | 0 -> (
                match value with
                | Some v -> send_all (Msg.Tag ("br-init", v))
                | None -> [])
            | 1 ->
                if not !echoed then begin
                  let init =
                    List.find_map
                      (fun (e : Envelope.t) ->
                        match (Envelope.src_party e, Session.unwrap ~sid e.Envelope.body) with
                        | Some src, Some (Msg.Tag ("br-init", v)) when src = sender -> Some v
                        | _ -> None)
                      inbox
                  in
                  match init with
                  | Some v ->
                      echoed := true;
                      send_all (Msg.Tag ("br-echo", v))
                  | None -> []
                end
                else []
            | 2 | 3 -> maybe_ready ()
            | _ -> []
          in
          let result () =
            match
              List.find_opt (fun v -> count readies v >= (2 * t) + 1) (values readies)
            with
            | Some v -> v
            | None -> default
          in
          { Session.step; result });
    }
end

module Seed_dolev_strong = struct
  module Session = List_session

  let default = Msg.Bit false
  let base ~sid v = "ds:" ^ sid ^ ":" ^ Msg.serialize v

  let encode v sigs =
    Msg.List
      [ v; Msg.List (List.map (fun (i, s) -> Msg.List [ Msg.Int i; Msg.Str s ]) sigs) ]

  let decode m =
    match m with
    | Msg.List [ v; Msg.List sigs ] ->
        let decode_sig = function
          | Msg.List [ Msg.Int i; Msg.Str s ] -> Some (i, s)
          | _ -> None
        in
        let decoded = List.filter_map decode_sig sigs in
        if List.length decoded = List.length sigs then Some (v, decoded) else None
    | _ -> None

  let scheme =
    {
      Session.scheme_name = "dolev-strong-seed";
      rounds = (fun ctx -> ctx.Ctx.thresh + 1);
      create =
        (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
          assert ((me = sender) = Option.is_some value);
          let n = ctx.Ctx.n in
          let t = ctx.Ctx.thresh in
          let sigs = ctx.Ctx.sigs in
          let accepted : Msg.t list ref = ref [] in
          let outbox : (Msg.t * (int * string) list) list ref = ref [] in
          let valid_chain ~need v chain =
            let signers = List.map fst chain in
            List.length chain >= need
            && List.mem sender signers
            && List.length (List.sort_uniq Int.compare signers) = List.length signers
            && List.for_all
                 (fun (i, s) -> Sb_crypto.Sig.verify sigs ~signer:i (base ~sid v) s)
                 chain
          in
          let process ~round inbox =
            List.iter
              (fun (e : Envelope.t) ->
                match Option.bind (Session.unwrap ~sid e.Envelope.body) decode with
                | Some (v, chain)
                  when valid_chain ~need:round v chain
                       && (not (List.exists (Msg.equal v) !accepted))
                       && List.length !accepted < 2 ->
                    accepted := v :: !accepted;
                    if round <= t && not (List.exists (fun (i, _) -> i = me) chain) then
                      outbox :=
                        (v, (me, Sb_crypto.Sig.sign sigs ~signer:me (base ~sid v)) :: chain)
                        :: !outbox
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
                  List.map
                    (fun (e : Envelope.t) ->
                      { e with Envelope.body = Session.wrap ~sid e.Envelope.body })
                    (Envelope.to_all ~n ~src:me (encode v chain))
              | None -> []
            end
            else begin
              let out =
                List.concat_map
                  (fun (v, chain) ->
                    List.map
                      (fun (e : Envelope.t) ->
                        { e with Envelope.body = Session.wrap ~sid e.Envelope.body })
                      (Envelope.to_all ~n ~src:me (encode v chain)))
                  !outbox
              in
              outbox := [];
              out
            end
          in
          let result () = match !accepted with [ v ] -> v | _ -> default in
          { Session.step; result });
    }
end

(* Pinned pre-Bitvec send-echo: per-source hashtable of echoes with
   Hashtbl.replace last-write-wins, per-envelope session wrapping. The
   library now keeps a mutable membership vector plus a value array
   and wraps once per broadcast. *)
module Seed_send_echo = struct
  module Session = List_session

  let default = Msg.Bit false

  let scheme =
    {
      Session.scheme_name = "send-echo-seed";
      rounds = (fun _ -> 2);
      create =
        (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
          assert ((me = sender) = Option.is_some value);
          let n = ctx.Ctx.n in
          let received = ref None in
          let echoes = Hashtbl.create 8 in
          let send_all m =
            List.map
              (fun (e : Envelope.t) ->
                { e with Envelope.body = Session.wrap ~sid e.Envelope.body })
              (Envelope.to_all ~n ~src:me m)
          in
          let step ~round ~inbox =
            let payloads =
              List.filter_map
                (fun (e : Envelope.t) ->
                  match (Envelope.src_party e, Session.unwrap ~sid e.Envelope.body) with
                  | Some src, Some m -> Some (src, m)
                  | _ -> None)
                inbox
            in
            match round with
            | 0 -> (
                match value with
                | Some v ->
                    received := Some v;
                    send_all v
                | None -> [])
            | 1 ->
                if me <> sender then
                  received :=
                    Some
                      (match List.assoc_opt sender payloads with
                      | Some m -> m
                      | None -> default);
                let v = Option.value !received ~default in
                send_all (Msg.Tag ("echo", v))
            | 2 ->
                List.iter
                  (fun (src, m) ->
                    match m with
                    | Msg.Tag ("echo", v) -> Hashtbl.replace echoes src v
                    | _ -> ())
                  payloads;
                []
            | _ -> []
          in
          let result () =
            let counts = Hashtbl.create 8 in
            for src = 0 to n - 1 do
              let v =
                match Hashtbl.find_opt echoes src with Some v -> v | None -> default
              in
              let key = Msg.serialize v in
              let c =
                match Hashtbl.find_opt counts key with Some (c, _) -> c | None -> 0
              in
              Hashtbl.replace counts key (c + 1, v)
            done;
            let best = ref (0, default) in
            Hashtbl.iter (fun _ (c, v) -> if c > fst !best then best := (c, v)) counts;
            snd !best
          in
          { Session.step; result });
    }
end

(* Pinned pre-Bitvec EIG: path distinctness via sort_uniq over the
   whole list (indices unconstrained), per-envelope session wrapping.
   The library now marks a scratch membership vector for in-range
   paths and falls back to exactly this check on any out-of-range
   index. *)
module Seed_eig = struct
  module Session = List_session

  let default = Msg.Bit false

  let encode_pair (path, v) =
    Msg.List [ Msg.List (List.map (fun i -> Msg.Int i) path); v ]

  let decode_pair = function
    | Msg.List [ Msg.List path; v ] ->
        let ints = List.filter_map (function Msg.Int i -> Some i | _ -> None) path in
        if List.length ints = List.length path then Some (ints, v) else None
    | _ -> None

  let distinct l = List.length (List.sort_uniq Int.compare l) = List.length l

  let scheme =
    {
      Session.scheme_name = "eig-seed";
      rounds = (fun ctx -> ctx.Ctx.thresh + 1);
      create =
        (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
          assert ((me = sender) = Option.is_some value);
          let n = ctx.Ctx.n in
          let t = ctx.Ctx.thresh in
          let tree : (int list, Msg.t) Hashtbl.t = Hashtbl.create 64 in
          let last_level : (int list * Msg.t) list ref = ref [] in
          let store ~round inbox =
            List.iter
              (fun (e : Envelope.t) ->
                let src = Envelope.src_party e in
                match Option.map Msg.to_list_exn (Session.unwrap ~sid e.Envelope.body) with
                | Some pairs ->
                    List.iter
                      (fun pair ->
                        match decode_pair pair with
                        | Some (path, v)
                          when List.length path = round
                               && distinct path
                               && (match path with p0 :: _ -> p0 = sender | [] -> false)
                               && (match List.rev path with
                                  | last :: _ -> Some last = src
                                  | [] -> false)
                               && not (Hashtbl.mem tree path) ->
                            Hashtbl.replace tree path v;
                            last_level := (path, v) :: !last_level
                        | _ -> ())
                      pairs
                | None -> ()
                | exception Invalid_argument _ -> ())
              inbox
          in
          let broadcast_pairs pairs =
            if pairs = [] then []
            else
              List.map
                (fun (e : Envelope.t) ->
                  { e with Envelope.body = Session.wrap ~sid e.Envelope.body })
                (Envelope.to_all ~n ~src:me (Msg.List (List.map encode_pair pairs)))
          in
          let step ~round ~inbox =
            last_level := [];
            store ~round inbox;
            if round = 0 then (
              match value with
              | Some v ->
                  Hashtbl.replace tree [ sender ] v;
                  broadcast_pairs [ ([ sender ], v) ]
              | None -> [])
            else if round <= t then
              broadcast_pairs
                (List.filter_map
                   (fun (path, v) ->
                     if List.mem me path then None else Some (path @ [ me ], v))
                   !last_level)
            else []
          in
          let result () =
            let rec resolve path =
              if List.length path = t + 1 then
                Option.value (Hashtbl.find_opt tree path) ~default
              else begin
                let children =
                  List.filter_map
                    (fun j ->
                      if List.mem j path then None else Some (resolve (path @ [ j ])))
                    (List.init n Fun.id)
                in
                let counts = Hashtbl.create 8 in
                List.iter
                  (fun v ->
                    let key = Msg.serialize v in
                    let c =
                      match Hashtbl.find_opt counts key with Some (c, _) -> c | None -> 0
                    in
                    Hashtbl.replace counts key (c + 1, v))
                  children;
                let best = ref (0, default) in
                Hashtbl.iter (fun _ (c, v) -> if c > fst !best then best := (c, v)) counts;
                if 2 * fst !best > List.length children then snd !best else default
              end
            in
            if t = 0 then Option.value (Hashtbl.find_opt tree [ sender ]) ~default
            else resolve [ sender ]
          in
          { Session.step; result });
    }
end

(* Pinned phase-king as it was before the shared inbox scan: a
   per-step (src, payload) list, List.assoc_opt lookups, and every
   exchange round tallied through Msg.serialize keys in a Hashtbl,
   whose iteration order breaks ties between equally frequent values.
   The library now counts a uniform round in one pass and falls back
   to exactly this tally otherwise. *)
module Seed_phase_king = struct
  module Session = List_session

  let default = Msg.Bit false

  let scheme =
    {
      Session.scheme_name = "phase-king-seed";
      rounds = (fun ctx -> (2 * ctx.Ctx.thresh) + 3);
      create =
        (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
          assert ((me = sender) = Option.is_some value);
          let n = ctx.Ctx.n in
          let t = ctx.Ctx.thresh in
          let current = ref (Option.value value ~default) in
          let strong = ref false in
          let wrap = Session.wrap ~sid and unwrap = Session.unwrap ~sid in
          let send_all m = Ctx.to_all ctx ~src:me (wrap m) in
          let payloads inbox =
            List.filter_map
              (fun (e : Envelope.t) ->
                match (Envelope.src_party e, unwrap e.Envelope.body) with
                | Some src, Some m -> Some (src, m)
                | _ -> None)
              inbox
          in
          let step ~round ~inbox =
            let msgs = payloads inbox in
            if round = 1 && me <> sender then begin
              match List.assoc_opt sender msgs with
              | Some (Msg.Tag ("pk-send", v)) -> current := v
              | _ -> current := default
            end;
            if round >= 2 && round mod 2 = 0 then begin
              let counts = Hashtbl.create 8 in
              List.iter
                (fun (_, m) ->
                  match m with
                  | Msg.Tag ("pk-val", v) ->
                      let key = Msg.serialize v in
                      let c =
                        match Hashtbl.find_opt counts key with Some (c, _) -> c | None -> 0
                      in
                      Hashtbl.replace counts key (c + 1, v)
                  | _ -> ())
                msgs;
              let best = ref (0, default) in
              Hashtbl.iter (fun _ (c, v) -> if c > fst !best then best := (c, v)) counts;
              current := snd !best;
              strong := 2 * fst !best > n + (2 * t)
            end;
            if round >= 3 && round mod 2 = 1 then begin
              let king = (round - 3) / 2 in
              match List.assoc_opt king msgs with
              | Some (Msg.Tag ("pk-king", v)) -> if not !strong then current := v
              | _ -> if not !strong then current := default
            end;
            if round = 0 then (
              match value with
              | Some v -> send_all (Msg.Tag ("pk-send", v))
              | None -> [])
            else if round >= 1 && round <= (2 * t) + 1 && round mod 2 = 1 then
              send_all (Msg.Tag ("pk-val", !current))
            else if
              round >= 2 && round <= (2 * t) + 2 && round mod 2 = 0 && me = (round - 2) / 2
            then send_all (Msg.Tag ("pk-king", !current))
            else []
          in
          let result () = !current in
          { Session.step; result });
    }
end

(* One deterministic adversarial scenario: everything (context,
   network schedule, adversarial traffic) is derived from [seed]
   alone, so running two schemes under the same seed feeds them
   identical traffic and their honest outputs must match exactly. *)
let differential_run ?(n = 5) ?(thresh = 1) scheme ~sender ~adv ~seed =
  let ctx = Ctx.make ~rng:(Sb_util.Rng.create (70000 + seed)) ~n ~thresh ~k:8 () in
  let inputs = Array.init n (fun i -> Msg.Bit ((seed + i) mod 2 = 0)) in
  Network.run ctx
    ~rng:(Sb_util.Rng.create (80000 + seed))
    ~protocol:(session_protocol scheme ~sender) ~adversary:(adv ~seed) ~inputs ()

let serialized_outputs (r : Network.result) =
  List.map (fun (id, m) -> (id, Msg.serialize m)) r.Network.outputs

let differential_outputs ?thresh scheme ~sender ~adv ~seed =
  serialized_outputs (differential_run ?thresh scheme ~sender ~adv ~seed)

(* Chaos traffic for Bracha: the corrupted party floods randomly
   chosen br-echo / br-ready messages over several distinct values
   (including non-Bit ones), per destination, so the receive sets see
   duplicate sources, equivocation and multi-candidate tallies. When
   it is the sender it also equivocates br-init per destination. *)
let bracha_chaos ~corrupt ~seed =
  {
    Adversary.name = "bracha-chaos";
    choose_corrupt = (fun _ ~rng:_ -> [ corrupt ]);
    init =
      (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let arng = Sb_util.Rng.create (90000 + seed) in
        {
          Adversary.act =
            (fun view ->
              let round = view.Adversary.round in
              let chaos () =
                List.concat
                  (List.init ctx.Ctx.n (fun dst ->
                       List.init 2 (fun _ ->
                           let tag =
                             if Sb_util.Rng.bool arng then "br-echo" else "br-ready"
                           in
                           let v =
                             match Sb_util.Rng.int arng 3 with
                             | 0 -> Msg.Bit true
                             | 1 -> Msg.Bit false
                             | _ -> Msg.Int (Sb_util.Rng.int arng 4)
                           in
                           Envelope.make ~src:corrupt ~dst
                             (Sb_broadcast.Session.wrap ~sid:"test" (Msg.Tag (tag, v))))))
              in
              if round = 0 then
                List.init ctx.Ctx.n (fun dst ->
                    Envelope.make ~src:corrupt ~dst
                      (Sb_broadcast.Session.wrap ~sid:"test"
                         (Msg.Tag ("br-init", Msg.Bit (dst mod 2 = 0)))))
              else if round <= 3 then chaos ()
              else []);
          adv_output = (fun () -> Msg.Unit);
        });
  }

(* Chaos traffic for Dolev-Strong: competing values under every chain
   shape the acceptance predicate discriminates on — valid two-chains,
   duplicate signers, out-of-range signers, a chain missing the
   sender, and a chain whose sender signature was computed under the
   wrong key. *)
let ds_chaos ~seed =
  {
    Adversary.name = "ds-chaos";
    choose_corrupt = (fun _ ~rng:_ -> [ 4 ]);
    init =
      (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let arng = Sb_util.Rng.create (95000 + seed) in
        let sigs = ctx.Ctx.sigs in
        {
          Adversary.act =
            (fun view ->
              if view.Adversary.round < 1 then []
              else
                List.concat
                  (List.init 3 (fun _ ->
                       let v = Msg.Bit (Sb_util.Rng.bool arng) in
                       let base = "ds:test:" ^ Msg.serialize v in
                       let good i =
                         Msg.List
                           [ Msg.Int i; Msg.Str (Sb_crypto.Sig.sign sigs ~signer:i base) ]
                       in
                       let chain =
                         match Sb_util.Rng.int arng 5 with
                         | 0 -> [ good 4; good 0 ]
                         | 1 -> [ good 4; good 4; good 0 ]
                         | 2 -> [ Msg.List [ Msg.Int 9; Msg.Str "zz" ]; good 0 ]
                         | 3 -> [ good 4 ]
                         | _ ->
                             [
                               Msg.List
                                 [
                                   Msg.Int 0;
                                   Msg.Str (Sb_crypto.Sig.sign sigs ~signer:4 base);
                                 ];
                               good 4;
                             ]
                       in
                       Envelope.to_all ~n:ctx.Ctx.n ~src:4
                         (Sb_broadcast.Session.wrap ~sid:"test"
                            (Msg.List [ v; Msg.List chain ])))));
          adv_output = (fun () -> Msg.Unit);
        });
  }

(* Equivocating-sender traffic for Dolev-Strong (run at thresh = 2 with
   the sender 0 and party 4 corrupted). Round 0 sends two values with
   valid sender chains to disjoint halves of the parties, each followed
   by forged copies, so honest parties reach two accepted values through
   each other's relays. Rounds 1 and 2 relay a third value under a valid
   two-signer chain plus valid and forged copies of an already-accepted
   value: traffic that arrives once [accepted] holds the value, or holds
   two values already. *)
let ds_equivocator ~seed =
  {
    Adversary.name = "ds-equivocator";
    choose_corrupt = (fun _ ~rng:_ -> [ 0; 4 ]);
    init =
      (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let arng = Sb_util.Rng.create (97000 + seed) in
        let n = ctx.Ctx.n in
        let sigs = ctx.Ctx.sigs in
        let base v = "ds:test:" ^ Msg.serialize v in
        let signed ~key i v =
          Msg.List [ Msg.Int i; Msg.Str (Sb_crypto.Sig.sign sigs ~signer:key (base v)) ]
        in
        let good i v = signed ~key:i i v in
        let garbage i = Msg.List [ Msg.Int i; Msg.Str "zz" ] in
        let a = Msg.Int 1 and b = Msg.Int 2 and c = Msg.Int 3 in
        (* Parties 1..split receive [a], the rest [b]; both halves hold
           an honest party. *)
        let split = 1 + Sb_util.Rng.int arng 2 in
        let send ~src ~dst v chain =
          Envelope.make ~src ~dst
            (Sb_broadcast.Session.wrap ~sid:"test" (Msg.List [ v; Msg.List chain ]))
        in
        (* A copy that follows the valid round-0 chain for [v]: a
           duplicate of it, or a forgery of [v] or of the other value. *)
        let forged v other =
          match Sb_util.Rng.int arng 4 with
          | 0 -> (other, [ signed ~key:4 0 other ])
          | 1 -> (v, [ garbage 0 ])
          | 2 -> (other, [ good 0 other; good 0 other ])
          | _ -> (v, [ good 0 v ])
        in
        let relay () =
          match Sb_util.Rng.int arng 5 with
          | 0 -> (c, [ good 4 c; good 0 c ])
          | 1 -> (a, [ good 4 a; good 0 a ])
          | 2 -> (a, [ garbage 4; good 0 a ])
          | 3 -> (a, [ good 4 a; signed ~key:4 0 a ])
          | _ -> (b, [ signed ~key:0 4 b; good 0 b ])
        in
        {
          Adversary.act =
            (fun view ->
              match view.Adversary.round with
              | 0 ->
                  List.concat
                    (List.init (n - 1) (fun k ->
                         let dst = k + 1 in
                         let v, other = if dst <= split then (a, b) else (b, a) in
                         send ~src:0 ~dst v [ good 0 v ]
                         :: List.init 2 (fun _ ->
                                let v', chain = forged v other in
                                send ~src:0 ~dst v' chain)))
              | 1 | 2 ->
                  List.concat
                    (List.init 3 (fun _ ->
                         let v, chain = relay () in
                         List.init n (fun dst -> send ~src:4 ~dst v chain)))
              | _ -> []);
          adv_output = (fun () -> Msg.Unit);
        });
  }

(* Chaos traffic for send-echo: duplicate "echo"-tagged messages with
   conflicting values per destination (the per-source slot must keep
   the LAST write, as Hashtbl.replace did), malformed payloads, and —
   when the corrupted party is the sender — an equivocating round-0
   send. *)
let se_chaos ~corrupt ~seed =
  {
    Adversary.name = "se-chaos";
    choose_corrupt = (fun _ ~rng:_ -> [ corrupt ]);
    init =
      (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let arng = Sb_util.Rng.create (91000 + seed) in
        {
          Adversary.act =
            (fun view ->
              let round = view.Adversary.round in
              if round = 0 then
                List.init ctx.Ctx.n (fun dst ->
                    Envelope.make ~src:corrupt ~dst
                      (Sb_broadcast.Session.wrap ~sid:"test" (Msg.Bit (dst mod 2 = 0))))
              else if round = 1 then
                (* Delivered at round 2, when echoes are recorded. *)
                List.concat
                  (List.init ctx.Ctx.n (fun dst ->
                       List.init 3 (fun _ ->
                           let m =
                             match Sb_util.Rng.int arng 4 with
                             | 0 -> Msg.Tag ("echo", Msg.Bit true)
                             | 1 -> Msg.Tag ("echo", Msg.Bit false)
                             | 2 -> Msg.Tag ("echo", Msg.Int (Sb_util.Rng.int arng 3))
                             | _ -> Msg.Str "junk"
                           in
                           Envelope.make ~src:corrupt ~dst
                             (Sb_broadcast.Session.wrap ~sid:"test" m))))
              else []);
          adv_output = (fun () -> Msg.Unit);
        });
  }

(* Chaos traffic for EIG (run at thresh = 2 so level-3 paths exist):
   encoded path/value pairs under every shape the store predicate
   discriminates on — a valid relay, out-of-range and negative middle
   indices (the library's fast path must fall back to the seed's
   sort_uniq check, never crash), duplicate indices, wrong first/last
   elements, wrong lengths and non-integer path entries. *)
let eig_chaos ~seed =
  {
    Adversary.name = "eig-chaos";
    choose_corrupt = (fun _ ~rng:_ -> [ 4 ]);
    init =
      (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let arng = Sb_util.Rng.create (93000 + seed) in
        let pair path v =
          Msg.List [ Msg.List (List.map (fun i -> Msg.Int i) path); v ]
        in
        {
          Adversary.act =
            (fun view ->
              let round = view.Adversary.round in
              if round < 1 || round > 2 then []
              else
                let v () = Msg.Bit (Sb_util.Rng.bool arng) in
                let pairs =
                  if round = 1 then
                    (* Delivered at round 2: length-2 paths compete. *)
                    [
                      pair [ 0; 4 ] (v ());
                      pair [ 4; 4 ] (v ());
                      pair [ 1; 4 ] (v ());
                      pair [ 0; 9 ] (v ());
                      pair [ 0 ] (v ());
                      Msg.List [ Msg.List [ Msg.Str "x"; Msg.Int 4 ]; v () ];
                    ]
                  else
                    (* Delivered at round 3 = t + 1: length-3 paths,
                       including out-of-range middles that only the
                       sort_uniq fallback can judge. *)
                    [
                      pair [ 0; 1; 4 ] (v ());
                      pair [ 0; 9; 4 ] (v ());
                      pair [ 0; -1; 4 ] (v ());
                      pair [ 0; 0; 4 ] (v ());
                      pair [ 1; 9; 4 ] (v ());
                      pair [ 0; 9; 9; 4 ] (v ());
                    ]
                in
                Envelope.to_all ~n:ctx.Ctx.n ~src:4
                  (Sb_broadcast.Session.wrap ~sid:"test" (Msg.List pairs)));
          adv_output = (fun () -> Msg.Unit);
        });
  }

(* Chaos traffic for phase-king, from the corrupted sender 0 and the
   next t - 1 parties. Values come from a pool of bits, two field
   elements, two lists and a nested tag. In every exchange round each
   corrupted party picks, per destination, one of: an exact tie (it
   counts the honest pk-val payloads rushed to that destination and
   tops a second value up to the leading count), a contested tally of
   random values, copies of the leading value (a uniform round, with
   non-bit values once the sender has spread them), or silence. Kings
   it controls equivocate, and every round carries a wrong-sid copy,
   an untagged pk-val and a junk payload that the scan must skip. *)
let pk_pool =
  [|
    Msg.Bit true;
    Msg.Bit false;
    Msg.Fe (Sb_crypto.Field.of_int 7);
    Msg.List [ Msg.Int 1; Msg.Bit false ];
    Msg.Tag ("pk-val", Msg.Bit true);
    Msg.Fe (Sb_crypto.Field.of_int 11);
    Msg.List [ Msg.Int 1; Msg.Bit true ];
  |]

let pk_chaos ~seed =
  {
    Adversary.name = "pk-chaos";
    choose_corrupt = (fun ctx ~rng:_ -> List.init ctx.Ctx.thresh Fun.id);
    init =
      (fun ctx ~rng:_ ~corrupted ~inputs:_ ~aux:_ ->
        let n = ctx.Ctx.n in
        let arng = Sb_util.Rng.create (99000 + seed) in
        let pick () = pk_pool.(Sb_util.Rng.int arng (Array.length pk_pool)) in
        let wrap = Sb_broadcast.Session.wrap ~sid:"test" in
        let send ~src ~dst kind v = Envelope.make ~src ~dst (wrap (Msg.Tag (kind, v))) in
        (* Honest pk-val payloads rushed to [dst], by serialized value,
           in first-seen order. *)
        let honest_counts rushed dst =
          List.fold_left
            (fun acc (e : Envelope.t) ->
              match (Envelope.dst_party e, e.Envelope.body) with
              | Some d, Msg.Tag ("bc:test", Msg.Tag ("pk-val", v)) when d = dst ->
                  let k = Msg.serialize v in
                  if List.mem_assoc k acc then
                    List.map
                      (fun (k', (c, v')) -> if k' = k then (k', (c + 1, v')) else (k', (c, v')))
                      acc
                  else acc @ [ (k, (1, v)) ]
              | _ -> acc)
            [] rushed
        in
        let exchange ~src ~dst rushed =
          let counts = honest_counts rushed dst in
          let lead_c, lead_v =
            List.fold_left
              (fun (bc, bv) (_, (c, v)) -> if c > bc then (c, v) else (bc, bv))
              (0, pick ()) counts
          in
          match Sb_util.Rng.int arng 4 with
          | 0 ->
              (* Exact tie: a second value topped up to the lead. *)
              let other =
                let rec go () =
                  let v = pick () in
                  if Msg.equal v lead_v then go () else v
                in
                go ()
              in
              let have =
                match List.assoc_opt (Msg.serialize other) counts with
                | Some (c, _) -> c
                | None -> 0
              in
              List.init (max 1 (lead_c - have)) (fun _ -> send ~src ~dst "pk-val" other)
          | 1 ->
              List.init (1 + Sb_util.Rng.int arng 3) (fun _ -> send ~src ~dst "pk-val" (pick ()))
          | 2 -> List.init (1 + Sb_util.Rng.int arng 2) (fun _ -> send ~src ~dst "pk-val" lead_v)
          | _ -> []
        in
        let noise ~src ~dst =
          [
            Envelope.make ~src ~dst
              (Sb_broadcast.Session.wrap ~sid:"test2" (Msg.Tag ("pk-val", pick ())));
            Envelope.make ~src ~dst (Msg.Tag ("pk-val", pick ()));
            Envelope.make ~src ~dst (wrap (Msg.Str "junk"));
          ]
        in
        {
          Adversary.act =
            (fun view ->
              let round = view.Adversary.round in
              List.concat_map
                (fun src ->
                  List.concat
                    (List.init n (fun dst ->
                         let main =
                           if round = 0 && src = 0 then
                             (* At even seeds one non-bit value for
                                everybody, else a per-destination
                                split. *)
                             let v =
                               if seed mod 2 = 0 then pk_pool.(2 + (seed / 2 mod 3)) else pick ()
                             in
                             [ send ~src ~dst "pk-send" v ]
                           else if round mod 2 = 1 then
                             exchange ~src ~dst (Lazy.force view.Adversary.rushed)
                           else if round >= 2 && src = (round - 2) / 2 then
                             [ send ~src ~dst "pk-king" (pick ()) ]
                           else []
                         in
                         main @ noise ~src ~dst)))
                corrupted);
          adv_output = (fun () -> Msg.Unit);
        });
  }

let outputs_t = Alcotest.(list (pair int string))

let test_bracha_differential () =
  for seed = 1 to 25 do
    (* Corrupted non-sender flooding chaos. *)
    Alcotest.check outputs_t "bracha vs seed (chaotic echoer)"
      (differential_outputs (List_session.to_scheme Seed_bracha.scheme) ~sender:0 ~adv:(bracha_chaos ~corrupt:4)
         ~seed)
      (differential_outputs Sb_broadcast.Bracha.scheme ~sender:0
         ~adv:(bracha_chaos ~corrupt:4) ~seed);
    (* Corrupted sender: equivocating init plus chaos. *)
    Alcotest.check outputs_t "bracha vs seed (chaotic sender)"
      (differential_outputs (List_session.to_scheme Seed_bracha.scheme) ~sender:0 ~adv:(bracha_chaos ~corrupt:0)
         ~seed)
      (differential_outputs Sb_broadcast.Bracha.scheme ~sender:0
         ~adv:(bracha_chaos ~corrupt:0) ~seed)
  done

let test_dolev_strong_differential () =
  for seed = 1 to 25 do
    Alcotest.check outputs_t "dolev-strong vs seed (chain chaos)"
      (differential_outputs (List_session.to_scheme Seed_dolev_strong.scheme) ~sender:0 ~adv:ds_chaos ~seed)
      (differential_outputs Sb_broadcast.Dolev_strong.scheme ~sender:0 ~adv:ds_chaos ~seed)
  done

(* Outputs plus every honest envelope, round by round: past the
   two-value cutoff a third accepted value changes no output, only the
   relays it triggers. *)
let differential_traffic scheme ~seed =
  let r = differential_run ~thresh:2 scheme ~sender:0 ~adv:ds_equivocator ~seed in
  ( serialized_outputs r,
    List.map
      (fun (rr : Trace.round_record) ->
        List.map (Format.asprintf "%a" Envelope.pp) rr.Trace.honest_sent)
      r.Network.trace )

let test_dolev_strong_equivocator_differential () =
  for seed = 1 to 25 do
    let outputs, traffic = differential_traffic (List_session.to_scheme Seed_dolev_strong.scheme) ~seed in
    Alcotest.check
      Alcotest.(pair outputs_t (list (list string)))
      "dolev-strong vs seed (equivocating sender)" (outputs, traffic)
      (differential_traffic Sb_broadcast.Dolev_strong.scheme ~seed);
    (* Every honest party accepted both round-0 values, so the
       two-value cutoff was reached and the later traffic hit it. *)
    List.iter
      (fun (id, out) ->
        Alcotest.(check string) (Printf.sprintf "party %d defaults" id)
          (Msg.serialize Seed_dolev_strong.default) out)
      outputs
  done

(* Echo traffic from parties 1..t; the sender 0 stays honest. In a
   uniform run each corrupted party echoes, to every destination, a
   fresh copy of the value the honest parties echo there (Msg.equal,
   not the same value), sometimes after a conflicting echo that the
   later write overwrites: every slot is equal, so the one-pass
   majority decides. In a contested run each destination gets a random
   pool value, that copy, or silence (an absentee counts as default). *)
let se_mixed ~uniform ~seed =
  {
    Adversary.name = "se-mixed";
    choose_corrupt = (fun ctx ~rng:_ -> List.init ctx.Ctx.thresh (fun i -> i + 1));
    init =
      (fun ctx ~rng:_ ~corrupted ~inputs:_ ~aux:_ ->
        let arng = Sb_util.Rng.create (95000 + seed) in
        let pool = [| Msg.Bit true; Msg.Bit false; Msg.Int 2; Msg.Str "x"; Msg.Tag ("echo", Msg.Bit true) |] in
        let pick () = pool.(Sb_util.Rng.int arng (Array.length pool)) in
        let echo ~src ~dst v =
          Envelope.make ~src ~dst (Sb_broadcast.Session.wrap ~sid:"test" (Msg.Tag ("echo", v)))
        in
        let honest_echo rushed dst =
          List.find_map
            (fun (e : Envelope.t) ->
              match (Envelope.dst_party e, e.Envelope.body) with
              | Some d, Msg.Tag ("bc:test", Msg.Tag ("echo", v)) when d = dst -> Some v
              | _ -> None)
            rushed
        in
        let copy v = Option.get (Msg.deserialize (Msg.serialize v)) in
        {
          Adversary.act =
            (fun view ->
              if view.Adversary.round <> 1 then []
              else
                let rushed = Lazy.force view.Adversary.rushed in
                List.concat_map
                  (fun src ->
                    List.concat
                      (List.init ctx.Ctx.n (fun dst ->
                           let v = copy (Option.get (honest_echo rushed dst)) in
                           match (uniform, Sb_util.Rng.int arng 3) with
                           | true, 0 -> [ echo ~src ~dst (pick ()); echo ~src ~dst v ]
                           | true, _ -> [ echo ~src ~dst v ]
                           | false, 0 -> [ echo ~src ~dst (pick ()) ]
                           | false, 1 -> [ echo ~src ~dst v ]
                           | false, _ -> [])))
                  corrupted);
          adv_output = (fun () -> Msg.Unit);
        });
  }

let test_send_echo_differential () =
  for seed = 1 to 25 do
    (* Corrupted non-sender flooding conflicting echoes. *)
    Alcotest.check outputs_t "send-echo vs seed (chaotic echoer)"
      (differential_outputs (List_session.to_scheme Seed_send_echo.scheme) ~sender:0 ~adv:(se_chaos ~corrupt:4)
         ~seed)
      (differential_outputs Sb_broadcast.Send_echo.scheme ~sender:0
         ~adv:(se_chaos ~corrupt:4) ~seed);
    (* Corrupted sender: equivocating round-0 send plus echo chaos. *)
    Alcotest.check outputs_t "send-echo vs seed (chaotic sender)"
      (differential_outputs (List_session.to_scheme Seed_send_echo.scheme) ~sender:0 ~adv:(se_chaos ~corrupt:0)
         ~seed)
      (differential_outputs Sb_broadcast.Send_echo.scheme ~sender:0
         ~adv:(se_chaos ~corrupt:0) ~seed)
  done;
  (* Uniform and contested echo slots at n = 4..7. A uniform run
     decides the honest sender's value. *)
  List.iter
    (fun (n, thresh) ->
      List.iter
        (fun uniform ->
          for seed = 1 to 8 do
            let what =
              Printf.sprintf "send-echo vs seed (%s, n=%d t=%d seed %d)"
                (if uniform then "uniform" else "contested")
                n thresh seed
            in
            let run scheme =
              serialized_outputs
                (differential_run ~n ~thresh scheme ~sender:0 ~adv:(se_mixed ~uniform) ~seed)
            in
            let got = run Sb_broadcast.Send_echo.scheme in
            Alcotest.check outputs_t what (run (List_session.to_scheme Seed_send_echo.scheme)) got;
            if uniform then
              List.iter
                (fun (_, out) ->
                  Alcotest.(check string) (what ^ ": sender's value")
                    (Msg.serialize (Msg.Bit (seed mod 2 = 0)))
                    out)
                got
          done)
        [ true; false ])
    [ (4, 1); (5, 2); (6, 1); (7, 2) ]

let test_eig_differential () =
  for seed = 1 to 25 do
    Alcotest.check outputs_t "eig vs seed (path chaos)"
      (differential_outputs ~thresh:2 (List_session.to_scheme Seed_eig.scheme) ~sender:0 ~adv:eig_chaos ~seed)
      (differential_outputs ~thresh:2 Sb_broadcast.Eig.scheme ~sender:0 ~adv:eig_chaos
         ~seed)
  done

(* Outputs plus every honest envelope, round by round, at n = 4..7
   with one or two corrupted parties: a fast path that left the
   Hashtbl tie order would change a decided value or a pk-val
   relayed by some honest party. *)
let test_phase_king_differential () =
  let run scheme ~n ~thresh ~seed =
    let r = differential_run ~n ~thresh scheme ~sender:0 ~adv:pk_chaos ~seed in
    ( serialized_outputs r,
      List.map
        (fun (rr : Trace.round_record) ->
          List.map (Format.asprintf "%a" Envelope.pp) rr.Trace.honest_sent)
        r.Network.trace )
  in
  List.iter
    (fun (n, thresh) ->
      for seed = 1 to 12 do
        Alcotest.check
          Alcotest.(pair outputs_t (list (list string)))
          (Printf.sprintf "phase-king vs seed (n=%d t=%d seed %d)" n thresh seed)
          (run (List_session.to_scheme Seed_phase_king.scheme) ~n ~thresh ~seed)
          (run Sb_broadcast.Phase_king.scheme ~n ~thresh ~seed)
      done)
    [ (4, 1); (5, 1); (5, 2); (6, 1); (6, 2); (7, 2) ]

(* --- session tags ---------------------------------------------------- *)

let test_wrap_unwrap_partial () =
  (* Bound once per session or applied in full per message, wrap and
     unwrap give the same answers. *)
  let msgs = [ Msg.Unit; Msg.Bit true; Msg.Int 42; Msg.Tag ("echo", Msg.Str "x") ] in
  List.iter
    (fun sid ->
      let wrap = Sb_broadcast.Session.wrap ~sid and unwrap = List_session.unwrap ~sid in
      List.iter
        (fun m ->
          let full = Sb_broadcast.Session.wrap ~sid m in
          Alcotest.(check bool) (sid ^ ": wrap") true (Msg.equal (wrap m) full);
          Alcotest.(check bool) (sid ^ ": tag") true
            (Msg.equal full (Msg.Tag (Sb_broadcast.Session.tag sid, m)));
          List.iter
            (fun body ->
              Alcotest.(check bool) (sid ^ ": unwrap") true
                (Option.equal Msg.equal (unwrap body) (List_session.unwrap ~sid body)))
            [ full; m; Sb_broadcast.Session.wrap ~sid:(sid ^ "0") m; Msg.Tag (sid, m) ];
          Alcotest.(check bool) (sid ^ ": round trip") true
            (Option.equal Msg.equal (unwrap (wrap m)) (Some m)))
        msgs)
    [ "s0"; "s1"; "s10"; ""; "test" ]

(* [Parallel.bucket_by_sid] against its oracle, the per-session
   [inbox_for] filter: for every k < n, slice k holds the very
   envelopes the filter keeps for [session_id k], in inbox order — on
   random inboxes and on reused bucketing state. Near-miss tags
   (leading zero, bare prefix, trailing junk, k = n, a 10-digit index,
   other prefixes, the tag text as an untagged string) and untagged
   bodies land nowhere; ["bc:s10"] and ["bc:s1"] stay apart. *)
let test_bucket_by_sid () =
  let check_inbox b ~n inbox =
    let slots = Sb_broadcast.Parallel.bucket_by_sid b (Inbox.of_list inbox) in
    Alcotest.(check int) "one slice per session" n (Array.length slots);
    Array.iteri
      (fun k slice ->
        let oracle = inbox_for ~sid:(Sb_broadcast.Parallel.session_id k) inbox in
        let slice = Inbox.to_list slice in
        Alcotest.(check int) (Printf.sprintf "n=%d slice %d size" n k) (List.length oracle)
          (List.length slice);
        List.iter2
          (fun a b ->
            Alcotest.(check bool) (Printf.sprintf "n=%d slice %d: same envelope" n k) true
              (a == b))
          oracle slice)
      slots
  in
  let body tag = Msg.Tag (tag, Msg.Int 1) in
  let near_misses n =
    [
      body "bc:s01";
      body "bc:s";
      body "bc:s1x";
      body ("bc:s" ^ string_of_int n);
      body "bc:s1234567890";
      body "bd:s1";
      body "bc:t1";
      body "s1";
      Msg.Str "bc:s1";
      Msg.Int 1;
      Msg.List [ body "bc:s1" ];
    ]
  in
  List.iter
    (fun n ->
      let rng = Sb_util.Rng.create (500 + n) in
      let pool =
        near_misses n
        @ List.init n (fun k -> body (Sb_broadcast.Parallel.session_id k))
      in
      let pool = Array.of_list pool in
      let b = Sb_broadcast.Parallel.buckets ~n in
      for _ = 1 to 20 do
        let inbox =
          List.init (Sb_util.Rng.int rng 40) (fun _ ->
              Envelope.make ~src:(Sb_util.Rng.int rng n) ~dst:0
                pool.(Sb_util.Rng.int rng (Array.length pool)))
        in
        check_inbox b ~n inbox;
        (* One session alone: its slice is the whole inbox. *)
        let k = Sb_util.Rng.int rng n in
        check_inbox b ~n
          (List.init (Sb_util.Rng.int rng 8) (fun i ->
               Envelope.make ~src:i ~dst:0 (body (Sb_broadcast.Parallel.session_id k))))
      done;
      (* Every near miss alone is dropped from every slice. *)
      List.iter
        (fun m ->
          let slots =
            Sb_broadcast.Parallel.bucket_by_sid b
              (Inbox.of_list [ Envelope.make ~src:0 ~dst:0 m ])
          in
          Alcotest.(check int)
            (Format.asprintf "n=%d: %a lands nowhere" n Msg.pp m)
            0
            (Array.fold_left (fun acc s -> acc + Inbox.length s) 0 slots))
        (near_misses n))
    [ 1; 2; 5; 10; 11; 12 ]

(* The contract [Parallel.single] relies on when it hands a session its
   inbox unbucketed: a session reads only envelopes carrying its own tag
   from a party sender. For every substrate, one session per party
   steps on honest traffic twice in lockstep, once on the clean inboxes
   and once on the same inboxes salted, before every real envelope,
   with its payload (bits flipped) under another sid's tag, under the
   near-miss tags "bc:s01" and "bc:s0x", untagged, and under its own
   tag from the functionality. Both must send the same every round and
   end with the same result. *)
let test_sessions_ignore_foreign () =
  let rec flip = function
    | Msg.Bit b -> Msg.Bit (not b)
    | Msg.List l -> Msg.List (List.map flip l)
    | Msg.Tag (t, m) -> Msg.Tag (t, flip m)
    | m -> m
  in
  let salt me (e : Envelope.t) =
    match (e.Envelope.src, e.Envelope.body) with
    | Envelope.Party src, Msg.Tag (tag, m) ->
        let m = flip m in
        List.map (fun t -> Envelope.make ~src ~dst:me (Msg.Tag (t, m))) [ "bc:s1"; "bc:s01"; "bc:s0x" ]
        @ [ Envelope.make ~src ~dst:me m; Envelope.from_func ~dst:me (Msg.Tag (tag, m)) ]
    | _ -> []
  in
  let same_sends msg a b =
    Alcotest.(check int) (msg ^ ": send count") (List.length a) (List.length b);
    List.iter2
      (fun (x : Envelope.t) (y : Envelope.t) ->
        Alcotest.(check bool) (msg ^ ": same send") true
          (x.Envelope.src = y.Envelope.src && x.Envelope.dst = y.Envelope.dst
          && Msg.equal x.Envelope.body y.Envelope.body))
      a b
  in
  let sid = Sb_broadcast.Parallel.session_id 0 in
  List.iter
    (fun (scheme : Sb_broadcast.Session.scheme) ->
      List.iter
        (fun (n, sender, value) ->
          let name =
            Printf.sprintf "%s n=%d sender=%d" scheme.Sb_broadcast.Session.scheme_name n sender
          in
          let ctx = Ctx.make ~rng:(Sb_util.Rng.create (700 + n)) ~n ~thresh:1 ~k:8 () in
          let create me =
            scheme.Sb_broadcast.Session.create ctx
              ~rng:(Sb_util.Rng.create ((1000 * n) + me))
              ~sid ~sender ~me
              ~value:(if me = sender then Some (Msg.Bit value) else None)
          in
          let clean = Array.init n create and salted = Array.init n create in
          (* Last round's send records, as every party's outbox held them. *)
          let sent = ref [] in
          for round = 0 to scheme.Sb_broadcast.Session.rounds ctx do
            let next = ref [] in
            for me = 0 to n - 1 do
              let inbox = List.filter (fun e -> Envelope.delivered_to e me) !sent in
              let step (s : Sb_broadcast.Session.t) inbox =
                let out = Outbox.create () in
                s.Sb_broadcast.Session.step ~round ~inbox:(Inbox.of_list inbox) ~out;
                out
              in
              let a = step clean.(me) inbox in
              let b = step salted.(me) (List.concat_map (fun e -> salt me e @ [ e ]) inbox) in
              same_sends (Printf.sprintf "%s: P%d round %d" name me round) (Outbox.to_list a)
                (Outbox.to_list b);
              next := !next @ List.init (Outbox.length a) (Outbox.get a)
            done;
            sent := !next
          done;
          Array.iteri
            (fun me (s : Sb_broadcast.Session.t) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: P%d result" name me)
                true
                (Msg.equal (s.Sb_broadcast.Session.result ()) (salted.(me).Sb_broadcast.Session.result ())))
            clean)
        [ (4, 0, true); (4, 3, false); (5, 2, true) ])
    Sb_broadcast.Schemes.all

(* Per-party state must stay out of the major heap. One single-session
   honest run at n = 300 on the arena path (as E17 and simbench's
   large-n run it) may allocate at most 16n words straight into the
   major heap: the run's own per-round arrays, none of them per party.
   A [bool array] receive set or an n-slot echo table per party is
   n + 1 words each, over OCaml's 256-word minor-heap limit at this n,
   so one of them in each of n parties puts ~n^2 words there. The
   count is major words minus promoted words, each read after a
   [Gc.minor ()]: without it OCaml 5's counters read 0 for a run this
   small. One warm-up run first grows the arena and router buffers. *)
let test_major_heap_shape () =
  let n = 300 in
  let direct_major_words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  List.iter
    (fun (scheme : Sb_broadcast.Session.scheme) ->
      let pool = Envelope.Arena.create () in
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create 1) ~n ~thresh:1 ~k:8 ~pool () in
      let protocol = Sb_broadcast.Parallel.single scheme in
      let inputs = Array.init n (fun i -> Msg.Bit (i mod 2 = 0)) in
      let run () =
        ignore
          (Network.honest_run ~record_trace:false ~record_comm:true ~reuse_envelopes:true ctx
             ~rng:(Sb_util.Rng.create 2) ~protocol ~inputs)
      in
      run ();
      let before = direct_major_words () in
      run ();
      let words = direct_major_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words direct to the major heap <= 16n"
           scheme.Sb_broadcast.Session.scheme_name words)
        true
        (words <= float_of_int (16 * n)))
    Sb_broadcast.[ Send_echo.scheme; Bracha.scheme; Dolev_strong.scheme; Phase_king.scheme ]

let () =
  let scheme_cases name scheme =
    [
      Alcotest.test_case (name ^ ": honest sender correct") `Quick
        (test_honest_sender_correct scheme);
      Alcotest.test_case (name ^ ": lying echoers") `Quick
        (test_honest_sender_vs_lying_echoers scheme);
      Alcotest.test_case (name ^ ": equivocating sender consistent") `Quick
        (test_corrupted_sender_consistency scheme);
    ]
  in
  Alcotest.run "sb_broadcast"
    [
      ("send-echo", scheme_cases "send-echo" (List.assoc "send-echo" schemes));
      ("dolev-strong", scheme_cases "dolev-strong" (List.assoc "dolev-strong" schemes));
      ("eig", scheme_cases "eig" (List.assoc "eig" schemes));
      ("bracha", scheme_cases "bracha" (List.assoc "bracha" schemes));
      ( "adversarial",
        [
          Alcotest.test_case "dolev-strong rejects forgery" `Quick
            test_dolev_strong_rejects_forgery;
          Alcotest.test_case "eig with two corruptions" `Quick test_eig_two_corruptions;
          Alcotest.test_case "bracha silence defaults" `Quick test_bracha_no_quorum_defaults;
          Alcotest.test_case "spoofed sources counted" `Quick test_spoofed_sources_counted;
        ] );
      ( "differential",
        [
          Alcotest.test_case "bracha bitvec = seed semantics" `Quick
            test_bracha_differential;
          Alcotest.test_case "dolev-strong bitvec = seed semantics" `Quick
            test_dolev_strong_differential;
          Alcotest.test_case "dolev-strong equivocating sender = seed semantics" `Quick
            test_dolev_strong_equivocator_differential;
          Alcotest.test_case "send-echo slots = seed semantics" `Quick
            test_send_echo_differential;
          Alcotest.test_case "eig distinct = seed semantics" `Quick test_eig_differential;
          Alcotest.test_case "phase-king one-pass tally = seed semantics" `Quick
            test_phase_king_differential;
        ] );
      ( "phase-king",
        [
          Alcotest.test_case "honest sender" `Quick test_phase_king_honest;
          Alcotest.test_case "equivocating sender" `Quick test_phase_king_equivocating_sender;
          Alcotest.test_case "lying non-king" `Quick test_phase_king_lying_nonking;
          Alcotest.test_case "round formula" `Quick test_phase_king_rounds;
        ] );
      ( "session",
        [
          Alcotest.test_case "partial wrap/unwrap = full application" `Quick
            test_wrap_unwrap_partial;
          Alcotest.test_case "sessions ignore foreign envelopes" `Quick
            test_sessions_ignore_foreign;
          Alcotest.test_case "per-party state stays out of the major heap" `Quick
            test_major_heap_shape;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "sequential send-echo contract" `Quick
            (test_parallel_contract Sb_broadcast.Parallel.sequential
               Sb_broadcast.Send_echo.scheme);
          Alcotest.test_case "concurrent send-echo contract" `Quick
            (test_parallel_contract Sb_broadcast.Parallel.concurrent
               Sb_broadcast.Send_echo.scheme);
          Alcotest.test_case "sequential dolev-strong contract" `Quick
            (test_parallel_contract Sb_broadcast.Parallel.sequential
               Sb_broadcast.Dolev_strong.scheme);
          Alcotest.test_case "concurrent dolev-strong contract" `Quick
            (test_parallel_contract Sb_broadcast.Parallel.concurrent
               Sb_broadcast.Dolev_strong.scheme);
          Alcotest.test_case "concurrent eig contract" `Quick
            (test_parallel_contract Sb_broadcast.Parallel.concurrent
               Sb_broadcast.Eig.scheme);
          Alcotest.test_case "bucket_by_sid = per-session inbox_for" `Quick
            test_bucket_by_sid;
          Alcotest.test_case "round counts" `Quick test_sequential_rounds_linear;
          Alcotest.test_case "windows" `Quick test_window;
        ] );
    ]
