open Sb_util
open Sb_sim

type cell = {
  protocol : string;
  plan : Sb_fault.Plan.t;
  samples : int;
  agree : Sb_stats.Estimate.interval;
  valid : Sb_stats.Estimate.interval;
}

let substrates () =
  List.map
    (fun (s : Sb_broadcast.Session.scheme) ->
      let p = Sb_broadcast.Parallel.concurrent s in
      (p.Protocol.name, p))
    [
      Sb_broadcast.Send_echo.scheme;
      Sb_broadcast.Dolev_strong.scheme;
      Sb_broadcast.Eig.scheme;
      Sb_broadcast.Bracha.scheme;
      Sb_broadcast.Phase_king.scheme;
    ]

type exact_cell = {
  cell_protocol : string;
  cell_n : int;
  cell_t : int;
  exp_agreement : bool option;
  exp_validity : bool option;
  exp_unforgeability : bool option;
}

(* Hand-derived ground truth at small (n, t) under the benign
   all-or-nothing fault model (per-round crash / omit-all / delay-all
   by up to t parties), cross-validated by the sb_check model
   checker's exhaustive verdicts and by E15's sampled cells where they
   overlap. [None] marks properties the checker cannot settle within
   its default state budget at that point. *)
let exact_cells =
  let cell p n t a v u =
    {
      cell_protocol = p;
      cell_n = n;
      cell_t = t;
      exp_agreement = a;
      exp_validity = v;
      exp_unforgeability = u;
    }
  in
  [
    (* Round faults hit every destination alike, so the two honest
       views stay symmetric and a faulty sender cannot split them. *)
    cell "send-echo" 3 1 (Some true) (Some true) (Some true);
    (* Both non-senders crashed at the echo round leave the honest
       sender's own echo in a 1-vs-2-defaults minority. *)
    cell "send-echo" 3 2 (Some true) (Some false) (Some true);
    cell "dolev-strong" 3 1 (Some true) (Some true) (Some true);
    cell "dolev-strong" 4 1 (Some true) (Some true) (Some true);
    cell "bracha" 4 1 (Some true) (Some true) (Some true);
    (* Above n/3: accepting needs 2t+1 = 5 > n readies, so no honest
       party ever accepts a true broadcast — validity fails with no
       faults at all, while every honest party defaulting keeps
       agreement (and vacuously unforgeability) intact. *)
    cell "bracha" 4 2 (Some true) (Some false) (Some true);
  ]

let vss_protocols () =
  List.map
    (fun (p : Protocol.t) -> (p.Protocol.name, p))
    [
      Sb_protocols.Cgma.protocol;
      Sb_protocols.Chor_rabin.protocol;
      Sb_protocols.Gennaro.protocol;
    ]

let crash_plan ~n ~count =
  List.init count (fun k -> Sb_fault.Plan.crash ~party:(n - 1 - k) ~round:(k + 1))

let drop_plan rate = if rate = 0.0 then [] else [ Sb_fault.Plan.drop rate ]

(* Agreement and validity over the survivors: the honest parties the
   plan did not crash. With no survivors both hold vacuously. *)
let survivors_verdict ~n ~crashed (r : Announced.run) =
  match List.filter (fun (i, _) -> not (List.mem i crashed)) r.Announced.outputs with
  | [] -> (true, true)
  | ((_, m0) :: rest) as survivors ->
      let agree = List.for_all (fun (_, m) -> Msg.equal m m0) rest in
      let valid =
        match Announced.to_vector n m0 with
        | Some w ->
            List.for_all
              (fun (j, _) -> Bitvec.get w j = Bitvec.get r.Announced.x j)
              survivors
        | None -> false
      in
      (agree, valid)

let measure setup ~protocol ~adversary ~dist ~plan rng =
  let n = setup.Setup.n in
  (match Sb_fault.Plan.validate ~n plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Resilience.measure: " ^ e));
  let crashed = Sb_fault.Plan.crashed_parties plan in
  let agreed, valid =
    Announced.psample setup ~protocol ~adversary ~dist
      ~faults:(Sb_fault.Inject.compile ~n plan)
      ~init:(fun () -> (ref 0, ref 0))
      ~f:(fun (agreed, valid) _ r ->
        let a, v = survivors_verdict ~n ~crashed r in
        if a then incr agreed;
        if v then incr valid)
      ~merge:(fun ~into:(agreed, valid) (a, v) ->
        agreed := !agreed + !a;
        valid := !valid + !v)
      rng
  in
  let total = setup.Setup.samples in
  {
    protocol = protocol.Protocol.name;
    plan;
    samples = total;
    agree = Sb_stats.Estimate.wilson ~successes:!agreed total;
    valid = Sb_stats.Estimate.wilson ~successes:!valid total;
  }

(* --- boundary witnesses (n = 4, t = 1) ----------------------------- *)

let wrap0 m = Sb_broadcast.Session.wrap ~sid:(Sb_broadcast.Parallel.session_id 0) m

let send ~src ~dst m = Envelope.make ~src ~dst (wrap0 m)

(* Corrupt sender 0 under-delivers each phase of its own Bracha
   session: with parties {1,2,3} all alive, echo amplification closes
   the gap and everyone accepts true; with party 3 crashed, party 1
   holds 3 readies (quorum) while party 2 holds 2 — a split exactly at
   the n/3 boundary. Silent in the other three sessions. *)
let bracha_flip =
  let v = Msg.Bit true in
  {
    Adversary.name = "bracha-flip";
    choose_corrupt = (fun _ ~rng:_ -> [ 0 ]);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let act (view : Adversary.view) =
          match view.Adversary.round with
          | 0 ->
              [ send ~src:0 ~dst:1 (Msg.Tag ("br-init", v));
                send ~src:0 ~dst:2 (Msg.Tag ("br-init", v)) ]
          | 1 ->
              [ send ~src:0 ~dst:1 (Msg.Tag ("br-echo", v));
                send ~src:0 ~dst:2 (Msg.Tag ("br-echo", v)) ]
          | 2 -> [ send ~src:0 ~dst:1 (Msg.Tag ("br-ready", v)) ]
          | _ -> []
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

(* Corrupt party 3 equivocates its level-2 EIG relay of sender 0's
   (true) value: false to party 0, true to party 1, nothing to party
   2. Alive, honest relays [0,1] and [0,2] outvote it at both
   survivors; with party 2 crashed before relaying, party 0 resolves
   {true, default, false} to default and party 1 resolves
   {true, default, true} to true. *)
let eig_flip =
  let pair path v = Msg.List [ Msg.List (List.map (fun i -> Msg.Int i) path); v ] in
  let relay v = Msg.List [ pair [ 0; 3 ] (Msg.Bit v) ] in
  {
    Adversary.name = "eig-flip";
    choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let act (view : Adversary.view) =
          if view.Adversary.round <> 1 then []
          else
            [ send ~src:3 ~dst:0 (relay false); send ~src:3 ~dst:1 (relay true) ]
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }
