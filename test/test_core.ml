(* Tests for core: announced-vector extraction, the predicate battery,
   adversary constructions, and — crucially — CALIBRATION of the four
   independence testers against synthetic protocols whose announced-
   value distributions have analytically known gaps. *)

open Sb_sim

let setup = Core.Setup.{ default with samples = 4000 }
let gsetup = Core.Setup.{ default with samples = 16000 }
let uniform = Sb_dist.Dist.uniform 5

(* Synthetic protocol: announced vector = f(x, coin). One round, no
   messages; each party computes the same announced vector locally
   from its input share... that is impossible without communication,
   so instead parties are fed the full input via a functionality-free
   trick: party 0 broadcasts x_0... Simplest honest approach: every
   party broadcasts its input bit in round 0 and output = f(all bits,
   shared coin from the CRS). This keeps consistency by construction
   and lets us dial in any announced-value distribution. *)
let synthetic ~name f =
  {
    Protocol.name;
    rounds = (fun _ -> 1);
    make_functionality = None;
    make_party =
      (fun ctx ~rng:_ ~id ~input ->
        let heard = Array.make ctx.Ctx.n false in
        let step ~round ~inbox ~out =
          Inbox.iter
            (fun (e : Envelope.t) ->
              match (Envelope.src_party e, e.Envelope.body) with
              | Some src, Msg.Tag ("syn", Msg.Bit b) -> heard.(src) <- b
              | _ -> ())
            inbox;
          if round = 0 then Outbox.push out (Envelope.broadcast ~src:id (Msg.Tag ("syn", input)))
        in
        let output () =
          (* Derive a shared coin from the CRS so all parties agree. *)
          let coin = Char.code ctx.Ctx.crs.[0] land 1 = 1 in
          Msg.bits (Array.to_list (f ~coin heard))
        in
        { Party.step; output });
  }

let identity_protocol = synthetic ~name:"syn-identity" (fun ~coin:_ x -> x)

(* Party 4's announced value is the parity of the others: a large,
   exactly computable CR violation (gap 1/4 for the parity predicate)
   and a G violation when 4 is corrupted. *)
let parity_protocol =
  synthetic ~name:"syn-parity" (fun ~coin:_ x ->
      let p = ref false in
      Array.iteri (fun j v -> if j <> 4 && v then p := not !p) x;
      Array.mapi (fun i b -> if i = 4 then !p else b) x)

(* Party 4 announces a coin independent of everything. *)
let coin_protocol =
  synthetic ~name:"syn-coin" (fun ~coin x ->
      Array.mapi (fun i b -> if i = 4 then coin else b) x)

let null_adv corrupt =
  {
    Adversary.name = "observer";
    choose_corrupt = (fun _ ~rng:_ -> corrupt);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        { Adversary.act = (fun _ -> []); adv_output = (fun () -> Msg.Unit) });
  }

(* --- Announced ------------------------------------------------------- *)

let test_announced_extraction () =
  let rng = Sb_util.Rng.create 5 in
  let x = Sb_util.Bitvec.of_string "10101" in
  let r =
    Core.Announced.run_once setup ~protocol:identity_protocol
      ~adversary:Core.Adversaries.passive ~x rng
  in
  Alcotest.(check string) "w = x" "10101" (Sb_util.Bitvec.to_string r.Core.Announced.w);
  Alcotest.(check bool) "consistent" true r.Core.Announced.consistent;
  Alcotest.(check (list int)) "no corruption" [] r.Core.Announced.corrupted

let test_announced_sample_count () =
  let count = ref 0 in
  let small = Core.Setup.{ setup with samples = 123 } in
  Core.Announced.sample small ~protocol:identity_protocol ~adversary:Core.Adversaries.passive
    ~dist:uniform (Sb_util.Rng.create 3) (fun _ -> incr count);
  Alcotest.(check int) "exactly samples runs" 123 !count

let test_corrupted_of () =
  Alcotest.(check (list int)) "corrupted set" [ 2; 4 ]
    (Core.Announced.corrupted_of setup ~protocol:identity_protocol
       ~adversary:(null_adv [ 2; 4 ]))

(* --- Predicate battery ------------------------------------------------ *)

let test_predicates () =
  let z = [| true; false; true |] in
  let eval name z =
    (List.find (fun p -> p.Core.Predicate.name = name) (Core.Predicate.battery ~n:4))
      .Core.Predicate.eval z
  in
  Alcotest.(check bool) "parity of 101 is 0" true (eval "parity=0" z);
  Alcotest.(check bool) "bit 0" true (eval "bit[0]" z);
  Alcotest.(check bool) "bit 1" false (eval "bit[1]" z);
  Alcotest.(check bool) "majority 101" true (eval "majority" z);
  Alcotest.(check bool) "all zero" false (eval "all-zero" z);
  Alcotest.(check bool) "all zero on zeros" true (eval "all-zero" [| false; false |]);
  Alcotest.(check bool) "adjacent equal" false (eval "adjacent-equal" z);
  Alcotest.(check (list string)) "battery order"
    [ "parity=0"; "bit[0]"; "bit[1]"; "bit[2]"; "bit[3]"; "majority"; "all-zero"; "adjacent-equal" ]
    (List.map (fun p -> p.Core.Predicate.name) (Core.Predicate.battery ~n:5))

(* --- CR tester calibration -------------------------------------------- *)

let test_cr_passes_identity () =
  let r =
    Core.Cr_test.run setup ~protocol:identity_protocol ~adversary:Core.Adversaries.passive
      ~dist:uniform
  in
  Alcotest.(check string) "verdict" "PASS" (Sb_stats.Verdict.to_string r.Core.Cr_test.verdict);
  Alcotest.(check int) "no inconsistent runs" 0 r.Core.Cr_test.inconsistent_runs

let test_cr_fails_parity_with_quarter_gap () =
  let r =
    Core.Cr_test.run setup ~protocol:parity_protocol ~adversary:Core.Adversaries.passive
      ~dist:uniform
  in
  Alcotest.(check string) "verdict" "FAIL" (Sb_stats.Verdict.to_string r.Core.Cr_test.verdict);
  match r.Core.Cr_test.worst with
  | Some w ->
      Alcotest.(check bool) "gap is ~1/4" true
        (Float.abs (w.Core.Cr_test.gap.Sb_stats.Estimate.point -. 0.25) < 0.03)
  | None -> Alcotest.fail "expected findings"

let test_cr_restricted_predicates () =
  (* One finding per (honest party, battery predicate), and the
     'all-zero' predicate alone sees much less of the parity protocol's
     violation than the parity predicate: the battery choice matters. *)
  let r =
    Core.Cr_test.run setup ~protocol:parity_protocol ~adversary:Core.Adversaries.passive
      ~dist:uniform
  in
  Alcotest.(check int) "8 predicates x 5 honest" 40 (List.length r.Core.Cr_test.findings);
  let worst name =
    List.fold_left
      (fun acc f ->
        if f.Core.Cr_test.predicate = name then Float.max acc f.Core.Cr_test.gap.Sb_stats.Estimate.point
        else acc)
      0.0 r.Core.Cr_test.findings
  in
  Alcotest.(check bool) "all-zero sees less than parity" true
    (worst "all-zero" < worst "parity=0" /. 2.0)

(* --- G tester calibration ---------------------------------------------- *)

let test_g_passes_independent_coin () =
  let r =
    Core.G_test.run gsetup ~protocol:coin_protocol ~adversary:(null_adv [ 4 ]) ~dist:uniform ()
  in
  Alcotest.(check string) "verdict" "PASS" (Sb_stats.Verdict.to_string r.Core.G_test.verdict)

let test_g_fails_parity_announcer () =
  let r =
    Core.G_test.run gsetup ~protocol:parity_protocol ~adversary:(null_adv [ 4 ]) ~dist:uniform ()
  in
  Alcotest.(check string) "verdict" "FAIL" (Sb_stats.Verdict.to_string r.Core.G_test.verdict);
  (* The conditional probabilities are 0 or 1 per bucket: the raw
     pairwise gap must be ~1. *)
  match r.Core.G_test.worst_pair with
  | Some (_, _, gap) -> Alcotest.(check bool) "pairwise gap ~1" true (gap > 0.9)
  | None -> Alcotest.fail "expected pairs"

let test_g_chi2_corroborates () =
  (* The global homogeneity statistic agrees with the verdict on both
     calibration protocols. *)
  let fail_r =
    Core.G_test.run gsetup ~protocol:parity_protocol ~adversary:(null_adv [ 4 ]) ~dist:uniform ()
  in
  (match List.assoc_opt 4 fail_r.Core.G_test.chi2 with
  | Some c -> Alcotest.(check bool) "parity: p ~ 0" true (c.Sb_stats.Chi2.p_value < 1e-10)
  | None -> Alcotest.fail "expected chi2 for the corrupted party");
  let pass_r =
    Core.G_test.run gsetup ~protocol:coin_protocol ~adversary:(null_adv [ 4 ]) ~dist:uniform ()
  in
  match List.assoc_opt 4 pass_r.Core.G_test.chi2 with
  | Some c -> Alcotest.(check bool) "coin: p not tiny" true (c.Sb_stats.Chi2.p_value > 1e-4)
  | None -> Alcotest.fail "expected chi2 for the corrupted party"

let test_g_trivial_without_corruption () =
  let r =
    Core.G_test.run setup ~protocol:parity_protocol ~adversary:Core.Adversaries.passive
      ~dist:uniform ()
  in
  Alcotest.(check string) "vacuous pass" "PASS" (Sb_stats.Verdict.to_string r.Core.G_test.verdict)

let test_g_vacuous_on_singleton () =
  let r =
    Core.G_test.run setup ~protocol:identity_protocol ~adversary:(null_adv [ 4 ])
      ~dist:(Sb_dist.Dist.singleton (Sb_util.Bitvec.zero 5))
      ()
  in
  Alcotest.(check string) "single bucket pass" "PASS"
    (Sb_stats.Verdict.to_string r.Core.G_test.verdict)

(* --- G** tester calibration --------------------------------------------- *)

let test_gss_passes_coin () =
  let r = Core.Gss_test.run setup ~protocol:coin_protocol ~adversary:(null_adv [ 4 ]) () in
  Alcotest.(check string) "verdict" "PASS" (Sb_stats.Verdict.to_string r.Core.Gss_test.verdict)

let test_gss_fails_parity () =
  let r = Core.Gss_test.run setup ~protocol:parity_protocol ~adversary:(null_adv [ 4 ]) () in
  Alcotest.(check string) "verdict" "FAIL" (Sb_stats.Verdict.to_string r.Core.Gss_test.verdict);
  match r.Core.Gss_test.worst with
  | Some w ->
      (* Deterministic flip between adjacent inputs: gap 1. *)
      Alcotest.(check bool) "gap ~1" true (w.Core.Gss_test.gap.Sb_stats.Estimate.point > 0.9)
  | None -> Alcotest.fail "expected findings"

let test_gss_pass_without_corruption () =
  let r =
    Core.Gss_test.run setup ~protocol:parity_protocol ~adversary:Core.Adversaries.passive ()
  in
  Alcotest.(check string) "trivial" "PASS" (Sb_stats.Verdict.to_string r.Core.Gss_test.verdict)

(* --- Sb tester ------------------------------------------------------------ *)

let test_sb_ideal_band_exact () =
  (* For psi = x_j under uniform inputs the band is exactly [1/2, 1/2];
     under a singleton it is [0, 1]. Checked through the public API by
     reading falsifier results. *)
  let echo = Core.Adversaries.echo ~mode:`Sequential ~copier:4 ~target:0 in
  let r =
    Core.Sb_test.run setup ~protocol:Sb_protocols.Naive.sequential ~adversary:echo ~dist:uniform
      ()
  in
  let f =
    List.find
      (fun (f : Core.Sb_test.falsifier_result) ->
        String.equal f.Core.Sb_test.falsifier "phi=W[4] vs psi=W[0]")
      r.Core.Sb_test.falsifiers
  in
  Alcotest.(check (float 1e-9)) "ideal max" 0.5 f.Core.Sb_test.ideal_max;
  Alcotest.(check (float 1e-9)) "ideal min" 0.5 f.Core.Sb_test.ideal_min;
  Alcotest.(check bool) "real ~1" true (f.Core.Sb_test.real_p.Sb_stats.Estimate.point > 0.97);
  Alcotest.(check string) "verdict" "FAIL" (Sb_stats.Verdict.to_string r.Core.Sb_test.verdict)

let test_sb_passes_identity_with_truthful_sim () =
  let r =
    Core.Sb_test.run setup ~protocol:identity_protocol ~adversary:(null_adv [ 3; 4 ])
      ~dist:uniform ~simulator:Core.Sb_test.truthful ()
  in
  (* The observer adversary corrupts but behaves honestly... actually
     null_adv sends nothing, so corrupted announced values default to 0
     in a real protocol; in syn-identity corrupted parties still
     broadcast (the protocol code runs only for honest parties: the
     corrupted slots stay silent and announce... syn-identity defaults
     heard to false). The truthful simulator does NOT match that; use
     the constant-0 simulator, which does. *)
  ignore r;
  let r0 =
    Core.Sb_test.run setup ~protocol:identity_protocol ~adversary:(null_adv [ 3; 4 ])
      ~dist:uniform ~simulator:(Core.Sb_test.constant false) ()
  in
  Alcotest.(check string) "verdict with matching simulator" "PASS"
    (Sb_stats.Verdict.to_string r0.Core.Sb_test.verdict)

let test_sb_semi_honest_gennaro_passes () =
  let p = Sb_protocols.Gennaro.protocol in
  let r =
    Core.Sb_test.run setup ~protocol:p
      ~adversary:(Core.Adversaries.semi_honest p ~corrupt:[ 3; 4 ])
      ~dist:uniform ~simulator:Core.Sb_test.truthful ()
  in
  Alcotest.(check string) "verdict" "PASS" (Sb_stats.Verdict.to_string r.Core.Sb_test.verdict)

let test_sb_wrong_simulator_not_pass () =
  (* The constant-1 simulator badly mismatches the semi-honest Gennaro
     execution over uniform inputs: the tester must not certify it. *)
  let p = Sb_protocols.Gennaro.protocol in
  let r =
    Core.Sb_test.run setup ~protocol:p
      ~adversary:(Core.Adversaries.semi_honest p ~corrupt:[ 3; 4 ])
      ~dist:uniform ~simulator:(Core.Sb_test.constant true) ()
  in
  Alcotest.(check bool) "not certified" true (r.Core.Sb_test.verdict <> Sb_stats.Verdict.Pass);
  match (r.Core.Sb_test.sim_tvd, r.Core.Sb_test.baseline_tvd) with
  | Some tvd, Some base -> Alcotest.(check bool) "tvd clearly above baseline" true (tvd > 2.0 *. base)
  | _ -> Alcotest.fail "expected tvd measurements"

let test_sb_sandbox_simulator_vss () =
  (* The sandbox simulator certifies Gennaro under reveal-withholding —
     the adversary whose behaviour actually depends on honest traffic. *)
  let p = Sb_protocols.Gennaro.protocol in
  let adversary =
    Core.Adversaries.reveal_withhold p ~corrupt:[ 4 ]
      ~reveal_round:(fun _ -> Sb_protocols.Gennaro.reveal_round)
      ~reveal_tag_prefix:"vss:"
      ~honest_probe:(Core.Adversaries.probe_vss_secret ~dealer:0)
  in
  let r =
    Core.Sb_test.run setup ~protocol:p ~adversary ~dist:uniform
      ~simulator:(Core.Sb_test.sandbox ~protocol:p ~adversary)
      ()
  in
  Alcotest.(check string) "certified" "PASS" (Sb_stats.Verdict.to_string r.Core.Sb_test.verdict)

let test_sb_astar_fails_by_xor_probe () =
  let r =
    Core.Sb_test.run setup ~protocol:Sb_protocols.Pi_g.protocol
      ~adversary:(Core.Adversaries.a_star ~corrupt:(3, 4))
      ~dist:uniform ()
  in
  Alcotest.(check string) "verdict" "FAIL" (Sb_stats.Verdict.to_string r.Core.Sb_test.verdict);
  let xor_fails =
    List.exists
      (fun (f : Core.Sb_test.falsifier_result) ->
        String.equal f.Core.Sb_test.falsifier "phi=xor vs psi=xor"
        && f.Core.Sb_test.verdict = Sb_stats.Verdict.Fail)
      r.Core.Sb_test.falsifiers
  in
  Alcotest.(check bool) "xor probe is the witness" true xor_fails

(* --- exact tester cross-checks ----------------------------------------- *)

let test_exact_identity_has_no_gap () =
  (* W = x under any product distribution: CR gap exactly 0. *)
  let d = Sb_dist.Dist.product 0.3 5 in
  Alcotest.(check (float 1e-12)) "cr gap" 0.0
    (Core.Exact.cr_gap_battery d ~honest:[ 0; 1; 2; 3; 4 ]);
  Alcotest.(check (float 1e-12)) "g gap" 0.0 (Core.Exact.g_gap d ~corrupted:[ 4 ])

let test_exact_echo_quarter () =
  (* The echo map on uniform inputs: exact CR gap is 1/4 (the W_target
     bit predicate at the copier... seen from any honest party whose
     reduced vector contains both). *)
  let w_dist =
    Core.Exact.push_deterministic (Sb_dist.Dist.uniform 5)
      (Core.Exact.echo_map ~copier:4 ~target:0)
  in
  Alcotest.(check (float 1e-12)) "cr gap = 1/4" 0.25
    (Core.Exact.cr_gap_battery w_dist ~honest:[ 0; 1; 2; 3 ]);
  (* And the exact G gap with the copier corrupted is 1 (deterministic
     given the honest vector). *)
  Alcotest.(check (float 1e-12)) "g gap = 1" 1.0 (Core.Exact.g_gap w_dist ~corrupted:[ 4 ])

let test_exact_pi_g_astar () =
  (* Lemma 6.4's numbers, exactly: CR gap 1/4, G gap 0. *)
  let w_dist =
    Core.Exact.push_coin (Sb_dist.Dist.uniform 5) (Core.Exact.pi_g_astar_map ~l1:3 ~l2:4)
  in
  Alcotest.(check (float 1e-12)) "cr gap = 1/4" 0.25
    (Core.Exact.cr_gap_battery w_dist ~honest:[ 0; 1; 2 ]);
  Alcotest.(check (float 1e-12)) "g gap = 0" 0.0 (Core.Exact.g_gap w_dist ~corrupted:[ 3; 4 ])

let test_exact_matches_sampled_cr () =
  (* The Monte-Carlo CR tester's worst-gap estimate must agree with the
     exact value within its own confidence interval. *)
  let exact =
    Core.Exact.cr_gap_battery
      (Core.Exact.push_coin (Sb_dist.Dist.uniform 5) (Core.Exact.pi_g_astar_map ~l1:3 ~l2:4))
      ~honest:[ 0; 1; 2 ]
  in
  let sampled =
    Core.Cr_test.run setup ~protocol:Sb_protocols.Pi_g.protocol
      ~adversary:(Core.Adversaries.a_star ~corrupt:(3, 4))
      ~dist:(Sb_dist.Dist.uniform 5)
  in
  match sampled.Core.Cr_test.worst with
  | Some w ->
      Alcotest.(check bool) "exact inside sampled CI" true
        (w.Core.Cr_test.gap.Sb_stats.Estimate.lo <= exact
        && exact <= w.Core.Cr_test.gap.Sb_stats.Estimate.hi)
  | None -> Alcotest.fail "expected findings"

let test_exact_pushforward_mass () =
  let d =
    Core.Exact.push_deterministic (Sb_dist.Dist.copy_pair 4)
      (Core.Exact.echo_map ~copier:3 ~target:1)
  in
  Alcotest.(check (float 1e-12)) "mass 1" 1.0
    (Array.fold_left ( +. ) 0.0 (Sb_dist.Dist.pmf d))

(* --- adversary constructions ------------------------------------------ *)

let test_echo_requires_order () =
  Alcotest.(check bool) "constructor asserts copier > target" true
    (try
       ignore (Core.Adversaries.echo ~mode:`Sequential ~copier:0 ~target:3);
       false
     with Assert_failure _ -> true)

let test_substitute_constant () =
  let p = identity_protocol in
  let adv = Core.Adversaries.substitute_constant p ~corrupt:[ 4 ] ~value:true in
  let rng = Sb_util.Rng.create 9 in
  let x = Sb_util.Bitvec.zero 5 in
  let r = Core.Announced.run_once setup ~protocol:p ~adversary:adv ~x rng in
  Alcotest.(check bool) "substituted to 1" true (Sb_util.Bitvec.get r.Core.Announced.w 4);
  Alcotest.(check bool) "honest untouched" false (Sb_util.Bitvec.get r.Core.Announced.w 0)

(* The adversary's lazy view against the eager lists it replaced: a spy
   forces [delivered] and [rushed] every round and the trace rebuilds
   both — rushed = the round's honest sends minus functionality-bound
   ones, delivered = last round's routed traffic (party sends, then
   functionality replies) that reaches a corrupted party. Every
   adversary in [Core.Adversaries], 3 seeds each; forcing the view
   changes no output. *)
let test_lazy_view_matches_eager () =
  let module A = Core.Adversaries in
  let p = Sb_protocols.Gennaro.protocol and co = Sb_protocols.Commit_open.protocol in
  let cases =
    [
      ("passive", Sb_protocols.Naive.concurrent, A.passive);
      ("semi-honest", p, A.semi_honest p ~corrupt:[ 3; 4 ]);
      ("substitute-constant", co, A.substitute_constant co ~corrupt:[ 4 ] ~value:true);
      ("substitute-random", Sb_protocols.Cgma.protocol,
        A.substitute_random Sb_protocols.Cgma.protocol ~corrupt:[ 1 ]);
      ("a-star", Sb_protocols.Pi_g.protocol, A.a_star ~corrupt:(3, 4));
      ("echo", Sb_protocols.Naive.sequential, A.echo ~mode:`Sequential ~copier:4 ~target:0);
      ("echo-concurrent", Sb_protocols.Naive.concurrent,
        A.echo ~mode:`Concurrent ~copier:1 ~target:3);
      ("reveal-withhold", co,
        A.reveal_withhold co ~corrupt:[ 4 ] ~reveal_round:(fun _ -> 1)
          ~reveal_tag_prefix:"co-open" ~honest_probe:A.probe_commit_open_parity);
      ("reveal-withhold-vss", p,
        A.reveal_withhold p ~corrupt:[ 3; 4 ]
          ~reveal_round:(fun _ -> Sb_protocols.Gennaro.reveal_round)
          ~reveal_tag_prefix:"vss:" ~honest_probe:(A.probe_vss_secret ~dealer:0));
      ("copycat", p, A.copycat_dealer ~copier:4 ~target:0);
      ("silent", Sb_broadcast.Parallel.concurrent Sb_broadcast.Bracha.scheme, A.silent ~corrupt:[ 2 ]);
    ]
  in
  let show l = List.map (Format.asprintf "%a" Envelope.pp) l in
  let spy log (adv : Adversary.t) =
    {
      adv with
      Adversary.init =
        (fun ctx ~rng ~corrupted ~inputs ~aux ->
          let s = adv.Adversary.init ctx ~rng ~corrupted ~inputs ~aux in
          {
            s with
            Adversary.act =
              (fun view ->
                log :=
                  ( view.Adversary.round,
                    Lazy.force view.Adversary.delivered,
                    Lazy.force view.Adversary.rushed )
                  :: !log;
                s.Adversary.act view);
          });
    }
  in
  let seen = ref 0 in
  List.iter
    (fun (name, protocol, adversary) ->
      for seed = 1 to 3 do
        let what = Printf.sprintf "%s seed %d" name seed in
        let run adversary =
          let ctx = Ctx.make ~rng:(Sb_util.Rng.create (600 + seed)) ~n:5 ~thresh:2 ~k:8 () in
          let inputs = Array.init 5 (fun i -> Msg.Bit ((seed lsr (i mod 3)) land 1 = 1)) in
          Network.run ctx ~rng:(Sb_util.Rng.create (700 + seed)) ~protocol ~adversary ~inputs ()
        in
        let log = ref [] in
        let plain = run adversary and spied = run (spy log adversary) in
        let outputs (r : Network.result) =
          (Msg.serialize r.Network.adv_output, List.map (fun (i, m) -> (i, Msg.serialize m)) r.Network.outputs)
        in
        Alcotest.(check (pair string (list (pair int string))))
          (what ^ ": forcing the view changes nothing") (outputs plain) (outputs spied);
        let trace = Array.of_list spied.Network.trace in
        let reaches_corrupt e = List.exists (Envelope.delivered_to e) spied.Network.corrupted in
        List.iter
          (fun (round, delivered, rushed) ->
            let routed =
              if round = 0 then []
              else
                let r = trace.(round - 1) in
                List.filter
                  (fun e -> not (Envelope.is_func_bound e))
                  (r.Trace.honest_sent @ r.Trace.adv_sent)
                @ r.Trace.func_sent
            in
            let honest =
              if round < Array.length trace then trace.(round).Trace.honest_sent
              else (* the final, untraced round: nothing is compared *) rushed
            in
            seen := !seen + List.length delivered + List.length rushed;
            Alcotest.(check (list string))
              (Printf.sprintf "%s round %d: delivered" what round)
              (show (List.filter reaches_corrupt routed)) (show delivered);
            Alcotest.(check (list string))
              (Printf.sprintf "%s round %d: rushed" what round)
              (show (List.filter (fun e -> not (Envelope.is_func_bound e)) honest))
              (show rushed))
          !log
      done)
    cases;
  Alcotest.(check bool) (Printf.sprintf "compared %d envelopes" !seen) true (!seen > 1000)

let () =
  Alcotest.run "core"
    [
      ( "announced",
        [
          Alcotest.test_case "extraction" `Quick test_announced_extraction;
          Alcotest.test_case "sample count" `Quick test_announced_sample_count;
          Alcotest.test_case "corrupted_of" `Quick test_corrupted_of;
        ] );
      ("predicates", [ Alcotest.test_case "battery" `Quick test_predicates ]);
      ( "cr-tester",
        [
          Alcotest.test_case "passes identity" `Slow test_cr_passes_identity;
          Alcotest.test_case "fails parity (gap 1/4)" `Slow test_cr_fails_parity_with_quarter_gap;
          Alcotest.test_case "restricted predicates" `Slow test_cr_restricted_predicates;
        ] );
      ( "g-tester",
        [
          Alcotest.test_case "passes independent coin" `Slow test_g_passes_independent_coin;
          Alcotest.test_case "fails parity announcer" `Slow test_g_fails_parity_announcer;
          Alcotest.test_case "chi2 corroborates" `Slow test_g_chi2_corroborates;
          Alcotest.test_case "trivial without corruption" `Slow test_g_trivial_without_corruption;
          Alcotest.test_case "vacuous on singleton" `Slow test_g_vacuous_on_singleton;
        ] );
      ( "gss-tester",
        [
          Alcotest.test_case "passes coin" `Slow test_gss_passes_coin;
          Alcotest.test_case "fails parity" `Slow test_gss_fails_parity;
          Alcotest.test_case "trivial without corruption" `Quick test_gss_pass_without_corruption;
        ] );
      ( "sb-tester",
        [
          Alcotest.test_case "ideal band exact" `Slow test_sb_ideal_band_exact;
          Alcotest.test_case "identity with matching simulator" `Slow
            test_sb_passes_identity_with_truthful_sim;
          Alcotest.test_case "semi-honest gennaro" `Slow test_sb_semi_honest_gennaro_passes;
          Alcotest.test_case "wrong simulator rejected" `Slow test_sb_wrong_simulator_not_pass;
          Alcotest.test_case "sandbox simulator on VSS" `Slow test_sb_sandbox_simulator_vss;
          Alcotest.test_case "A* xor probe" `Slow test_sb_astar_fails_by_xor_probe;
        ] );
      ( "exact",
        [
          Alcotest.test_case "identity no gap" `Quick test_exact_identity_has_no_gap;
          Alcotest.test_case "echo gap 1/4 exactly" `Quick test_exact_echo_quarter;
          Alcotest.test_case "pi-g/A* gaps exactly" `Quick test_exact_pi_g_astar;
          Alcotest.test_case "sampled CR agrees with exact" `Slow test_exact_matches_sampled_cr;
          Alcotest.test_case "pushforward mass" `Quick test_exact_pushforward_mass;
        ] );
      ( "adversaries",
        [
          Alcotest.test_case "echo order assert" `Quick test_echo_requires_order;
          Alcotest.test_case "substitute constant" `Quick test_substitute_constant;
          Alcotest.test_case "lazy view = eager lists" `Quick test_lazy_view_matches_eager;
        ] );
    ]
