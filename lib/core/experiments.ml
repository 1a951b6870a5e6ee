open Sb_util

type outcome = {
  id : string;
  title : string;
  table : Tabular.t;
  ok : bool;
  rows_checked : int;
  notes : string list;
}

let vstr = Sb_stats.Verdict.to_string

let cell_interval (i : Sb_stats.Estimate.interval) =
  Printf.sprintf "%.3f [%.3f,%.3f]" i.Sb_stats.Estimate.point i.Sb_stats.Estimate.lo
    i.Sb_stats.Estimate.hi

let expect_verdict v expected = Sb_stats.Verdict.equal v expected

(* Scaled-up sample budget for the bucketed G tester (DESIGN.md:
   conditional estimates need more mass per bucket). *)
let g_setup setup = Setup.with_samples (4 * setup.Setup.samples) setup

(* --- E1: distribution classes (Claim 5.6) ------------------------- *)

let e1_distribution_classes setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create ~title:"E1 (Claim 5.6): input distribution classes"
      ~columns:
        [ "distribution"; "independent"; "in psi_L"; "in psi_C"; "psi_L gap@k16"; "psi_C gap@k16"; "expected"; "match" ]
  in
  let entries = Sb_dist.Family.battery n in
  let checks =
    List.map
      (fun (e : Sb_dist.Family.entry) ->
        let v = Sb_dist.Classes.classify e.Sb_dist.Family.ensemble in
        let m = e.Sb_dist.Family.expected in
        let matches =
          v.Sb_dist.Classes.independent = m.Sb_dist.Family.independent
          && v.Sb_dist.Classes.psi_l = m.Sb_dist.Family.psi_l
          && v.Sb_dist.Classes.psi_c = m.Sb_dist.Family.psi_c
          && Sb_dist.Classes.check_hierarchy v
        in
        Tabular.add_row table
          [
            e.Sb_dist.Family.ensemble.Sb_dist.Ensemble.name;
            Tabular.cell_bool v.Sb_dist.Classes.independent;
            Tabular.cell_bool v.Sb_dist.Classes.psi_l;
            Tabular.cell_bool v.Sb_dist.Classes.psi_c;
            Tabular.cell_float (List.assoc 16 v.Sb_dist.Classes.local_gaps);
            Tabular.cell_float (List.assoc 16 v.Sb_dist.Classes.indep_gaps);
            Format.asprintf "%a" Sb_dist.Family.pp_membership m;
            Tabular.cell_bool matches;
          ];
        matches)
      entries
  in
  {
    id = "E1";
    title = "Distribution class hierarchy (Claim 5.6)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [
        "Strictness witnesses: bernoulli(0.25)^n and almost-uniform separate \
         psi_L from {uniform, singletons}; rare-leak separates psi_C from psi_L; \
         xor-parity and copy-pair lie outside psi_C (but inside D(Sb) = All).";
      ];
  }

(* --- E2: CR unachievable outside psi_C (Lemma 5.2) ----------------- *)

let correlated_dists n =
  [
    ("xor-parity", Sb_dist.Dist.xor_parity n);
    ("copy-pair", Sb_dist.Dist.copy_pair n);
  ]

let e2_cr_unachievable setup =
  let table =
    Tabular.create ~title:"E2 (Lemma 5.2): CR fails for EVERY protocol when D is not in psi_C"
      ~columns:[ "protocol"; "distribution"; "CR verdict"; "worst (party, predicate)"; "gap" ]
  in
  let protocols =
    [
      Sb_protocols.Ideal_sb.protocol;
      Sb_protocols.Cgma.protocol;
      Sb_protocols.Chor_rabin.protocol;
      Sb_protocols.Gennaro.protocol;
      Sb_protocols.Naive.sequential;
    ]
  in
  let checks =
    List.concat_map
      (fun (p : Sb_sim.Protocol.t) ->
        List.map
          (fun (dname, dist) ->
            let r = Cr_test.run setup ~protocol:p ~adversary:Adversaries.passive ~dist in
            let worst, gap =
              match r.Cr_test.worst with
              | Some w ->
                  ( Printf.sprintf "(P%d, %s)" w.Cr_test.honest_party w.Cr_test.predicate,
                    cell_interval w.Cr_test.gap )
              | None -> ("-", "-")
            in
            Tabular.add_row table
              [ p.Sb_sim.Protocol.name; dname; vstr r.Cr_test.verdict; worst; gap ];
            expect_verdict r.Cr_test.verdict Sb_stats.Verdict.Fail)
          (correlated_dists setup.Setup.n))
      protocols
  in
  {
    id = "E2";
    title = "CR unachievable outside psi_C (Lemma 5.2)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [
        "No corruption is even needed: correct announced values inherit the \
         input correlation, which the CR predicates detect directly.";
      ];
  }

(* --- E3: G unachievable outside psi_L (Lemma 5.4) ------------------ *)

let e3_g_unachievable setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create ~title:"E3 (Lemma 5.4): G fails when D is not in psi_L"
      ~columns:[ "protocol"; "distribution"; "corrupted"; "G verdict"; "worst bucket gap" ]
  in
  (* The corrupted set must contain a party whose input is correlated
     with the honest ones: P1 for copy-pair (x0 = x1), anyone for
     xor-parity. *)
  let cases =
    [
      (Sb_protocols.Gennaro.protocol, "xor-parity", Sb_dist.Dist.xor_parity n, [ n - 1 ]);
      (Sb_protocols.Gennaro.protocol, "copy-pair", Sb_dist.Dist.copy_pair n, [ 1 ]);
      (Sb_protocols.Cgma.protocol, "xor-parity", Sb_dist.Dist.xor_parity n, [ n - 1 ]);
      (Sb_protocols.Chor_rabin.protocol, "copy-pair", Sb_dist.Dist.copy_pair n, [ 1 ]);
      (Sb_protocols.Ideal_sb.protocol, "xor-parity", Sb_dist.Dist.xor_parity n, [ n - 1 ]);
    ]
  in
  let checks =
    List.map
      (fun ((p : Sb_sim.Protocol.t), dname, dist, corrupt) ->
        let adversary = Adversaries.semi_honest p ~corrupt in
        let r = G_test.run (g_setup setup) ~protocol:p ~adversary ~dist () in
        let worst =
          match r.G_test.worst with
          | Some w -> cell_interval w.G_test.gap
          | None -> "-"
        in
        Tabular.add_row table
          [
            p.Sb_sim.Protocol.name;
            dname;
            Format.asprintf "%a" Subset.pp corrupt;
            vstr r.G_test.verdict;
            worst;
          ];
        expect_verdict r.G_test.verdict Sb_stats.Verdict.Fail)
      cases
  in
  {
    id = "E3";
    title = "G unachievable outside psi_L (Lemma 5.4)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [
        "Even the IDEAL functionality fails: the definitions are unachievable \
         because correct outputs must be correlated, not because protocols are weak.";
      ];
  }

(* --- E4: feasibility on achievable distributions (Claims 5.1/5.3) -- *)

let e4_feasibility setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create
      ~title:"E4 (Claims 5.1/5.3): CGMA / Chor-Rabin / Gennaro achieve CR and G on achievable D"
      ~columns:[ "protocol"; "distribution"; "adversary"; "CR"; "G"; "worst CR gap" ]
  in
  (* Biases in [0.3, 0.7]: per-coordinate asymmetry while keeping every
     honest-vector bucket heavy enough for conditional estimates. *)
  let mixed =
    Sb_dist.Dist.bernoulli_product
      (Array.init n (fun i -> 0.3 +. (0.4 *. float_of_int i /. float_of_int (n - 1))))
  in
  let dists = [ ("uniform", Sb_dist.Dist.uniform n); ("mixed-bias product", mixed) ] in
  let protocols =
    [ Sb_protocols.Cgma.protocol; Sb_protocols.Chor_rabin.protocol; Sb_protocols.Gennaro.protocol ]
  in
  let corrupt = [ n - 2; n - 1 ] in
  (* The G tester splits its budget over 2^(n-2) honest buckets; the
     quick-tier budget leaves ~1000 samples per bucket, whose Wilson
     interval widths land the gap bound exactly on the PASS threshold
     and flip verdicts on noise. Floor the budget at 2000 per bucket so
     this row tests the protocol, not the estimator. (The full tier
     already exceeds the floor; its results are unchanged.) *)
  let g4_setup =
    Setup.with_samples
      (max (4 * setup.Setup.samples) (2000 * (1 lsl (n - 2))))
      setup
  in
  let checks =
    List.concat_map
      (fun (p : Sb_sim.Protocol.t) ->
        let advs =
          [
            ("semi-honest", Adversaries.semi_honest p ~corrupt);
            ("substitute-random", Adversaries.substitute_random p ~corrupt);
          ]
        in
        List.concat_map
          (fun (dname, dist) ->
            List.map
              (fun (aname, adversary) ->
                let cr = Cr_test.run setup ~protocol:p ~adversary ~dist in
                let g = G_test.run g4_setup ~protocol:p ~adversary ~dist () in
                let worst =
                  match cr.Cr_test.worst with
                  | Some w -> cell_interval w.Cr_test.gap
                  | None -> "-"
                in
                Tabular.add_row table
                  [
                    p.Sb_sim.Protocol.name; dname; aname; vstr cr.Cr_test.verdict;
                    vstr g.G_test.verdict; worst;
                  ];
                expect_verdict cr.Cr_test.verdict Sb_stats.Verdict.Pass
                && expect_verdict g.G_test.verdict Sb_stats.Verdict.Pass)
              advs)
          dists)
      protocols
  in
  {
    id = "E4";
    title = "Feasibility on achievable distributions (Claims 5.1/5.3)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes = [ "PASS is evidence relative to the adversary/predicate battery (see EXPERIMENTS.md)." ];
  }

(* --- E5: the Pi_G separation (Lemma 6.4) --------------------------- *)

let e5_pi_g_separation setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create
      ~title:"E5 (Lemma 6.4): Pi_G under A* is G-independent but not CR-independent"
      ~columns:[ "Theta / distribution"; "G"; "G**"; "CR"; "CR worst"; "CR gap"; "Sb" ]
  in
  let astar = Adversaries.a_star ~corrupt:(n - 2, n - 1) in
  let p = Sb_protocols.Pi_g.protocol in
  let dists =
    [
      ("uniform", Sb_dist.Dist.uniform n);
      ( "almost-uniform (k=8)",
        (Sb_dist.Family.almost_uniform n).Sb_dist.Family.ensemble.Sb_dist.Ensemble.at 8 );
    ]
  in
  let row (pname, p, adversary) (dname, dist) =
    let g = G_test.run (g_setup setup) ~protocol:p ~adversary ~dist () in
    let gss = Gss_test.run setup ~protocol:p ~adversary () in
    let cr = Cr_test.run setup ~protocol:p ~adversary ~dist in
    let sb = Sb_test.run setup ~protocol:p ~adversary ~dist () in
    let worst, gap =
      match cr.Cr_test.worst with
      | Some w ->
          ( Printf.sprintf "(P%d, %s)" w.Cr_test.honest_party w.Cr_test.predicate,
            cell_interval w.Cr_test.gap )
      | None -> ("-", "-")
    in
    Tabular.add_row table
      [
        pname ^ " / " ^ dname; vstr g.G_test.verdict; vstr gss.Gss_test.verdict;
        vstr cr.Cr_test.verdict; worst; gap; vstr sb.Sb_test.verdict;
      ];
    expect_verdict g.G_test.verdict Sb_stats.Verdict.Pass
    && expect_verdict gss.Gss_test.verdict Sb_stats.Verdict.Pass
    && expect_verdict cr.Cr_test.verdict Sb_stats.Verdict.Fail
    && expect_verdict sb.Sb_test.verdict Sb_stats.Verdict.Fail
  in
  let ideal = ("ideal-Theta", p, astar) in
  let real =
    ( "BGW-Theta",
      Sb_protocols.Theta_real.protocol ~n,
      Sb_protocols.Theta_real.a_star_real ~n ~corrupt:(n - 2, n - 1) )
  in
  let checks =
    List.map (row ideal) dists @ [ row real (List.hd dists) ]
  in
  {
    id = "E5";
    title = "Pi_G separates G from CR (Lemma 6.4)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [
        "The paper predicts the CR parity-predicate gap to be exactly \
         Pr(W_i=0) * (1 - Pr(W_i=0)) = 1/4 under uniform inputs.";
        "The BGW-Theta row replaces the trusted party with a real semi-honest \
         BGW evaluation of g (Claim 6.5): the separation is substrate-independent.";
      ];
  }

(* --- E6: Singleton trivial for CR, not for Sb (Prop. 6.3) ---------- *)

let e6_singleton_trivial setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create
      ~title:"E6 (Prop. 6.3): Singleton is trivial for CR but not for Sb"
      ~columns:[ "check"; "value"; "paper prediction"; "match" ]
  in
  let echo = Adversaries.echo ~mode:`Sequential ~copier:(n - 1) ~target:0 in
  let p = Sb_protocols.Naive.sequential in
  let alpha = Bitvec.zero n in
  let beta = Bitvec.set alpha 0 true in
  (* CR on each singleton: trivially PASS. *)
  let cr_of x =
    Cr_test.run setup ~protocol:p ~adversary:echo ~dist:(Sb_dist.Dist.singleton x)
  in
  let cr_a = cr_of alpha and cr_b = cr_of beta in
  (* Sb across the class: any one simulator sees identical corrupted
     inputs under alpha and beta (they differ only at honest P0), so
     its announced-bit distribution for the copier is the same in both
     — yet the real protocol matches x_0 in both. Success mass across
     the two singletons is therefore <= 1 for every simulator; the real
     protocol achieves 2. *)
  let match_rate x =
    let m = max 200 (setup.Setup.samples / 10) in
    let hits =
      Announced.fan_out ~total:m ~draws_per_item:1
        ~init:(fun () -> ref 0)
        ~f:(fun h _ stream ->
          let r = Announced.run_once setup ~protocol:p ~adversary:echo ~x (stream 0) in
          if Bitvec.get r.Announced.w (n - 1) = Bitvec.get x 0 then incr h)
        ~merge:(fun ~into h -> into := !into + !h)
        (Rng.create setup.Setup.seed)
    in
    float_of_int !hits /. float_of_int m
  in
  let ra = match_rate alpha and rb = match_rate beta in
  let sb_advantage = ra +. rb -. 1.0 in
  let checks =
    [
      ( "CR verdict on singleton(00000)",
        vstr cr_a.Cr_test.verdict,
        "PASS (trivial)",
        expect_verdict cr_a.Cr_test.verdict Sb_stats.Verdict.Pass );
      ( "CR verdict on singleton(10000)",
        vstr cr_b.Cr_test.verdict,
        "PASS (trivial)",
        expect_verdict cr_b.Cr_test.verdict Sb_stats.Verdict.Pass );
      ( "real Pr[W_copier = x_0] summed over both singletons",
        Printf.sprintf "%.2f + %.2f" ra rb,
        "2.0 (ideal with ANY single simulator: <= 1.0)",
        sb_advantage > 0.5 );
      ( "Sb advantage over every simulator",
        Printf.sprintf "%.2f" sb_advantage,
        ">= 0.5",
        sb_advantage > 0.5 );
    ]
  in
  List.iter
    (fun (c, v, pred, ok) -> Tabular.add_row table [ c; v; pred; Tabular.cell_bool ok ])
    checks;
  {
    id = "E6";
    title = "Singleton trivial for CR, not Sb (Prop. 6.3)";
    table;
    ok = List.for_all (fun (_, _, _, ok) -> ok) checks;
    rows_checked = List.length checks;
    notes = [];
  }

(* --- E7: implications Sb => CR => G (Lemmas 6.1/6.2) ---------------- *)

let e7_implications setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create
      ~title:"E7 (Lemmas 6.1/6.2): stronger-definition protocols pass the weaker testers"
      ~columns:[ "claim"; "protocol"; "distribution"; "tester"; "verdict" ]
  in
  let corrupt = [ n - 2; n - 1 ] in
  let rare = (Sb_dist.Family.rare_leak n).Sb_dist.Family.ensemble.Sb_dist.Ensemble.at 10 in
  let cases =
    [
      (* Sb-secure CGMA must be CR-independent on members of D(CR). *)
      ("Sb => CR", Sb_protocols.Cgma.protocol, "uniform", Sb_dist.Dist.uniform n, `Cr);
      ("Sb => CR", Sb_protocols.Cgma.protocol, "rare-leak(k=10)", rare, `Cr);
      (* CR-secure Chor-Rabin must be G-independent on members of D(G). *)
      ("CR => G", Sb_protocols.Chor_rabin.protocol, "uniform", Sb_dist.Dist.uniform n, `G);
      ( "CR => G",
        Sb_protocols.Chor_rabin.protocol,
        "almost-uniform(k=8)",
        (Sb_dist.Family.almost_uniform n).Sb_dist.Family.ensemble.Sb_dist.Ensemble.at 8,
        `G );
    ]
  in
  let checks =
    List.map
      (fun (claim, (p : Sb_sim.Protocol.t), dname, dist, tester) ->
        let adversary = Adversaries.semi_honest p ~corrupt in
        let verdict, tname =
          match tester with
          | `Cr -> ((Cr_test.run setup ~protocol:p ~adversary ~dist).Cr_test.verdict, "CR")
          | `G -> ((G_test.run (g_setup setup) ~protocol:p ~adversary ~dist ()).G_test.verdict, "G")
        in
        Tabular.add_row table [ claim; p.Sb_sim.Protocol.name; dname; tname; vstr verdict ];
        expect_verdict verdict Sb_stats.Verdict.Pass)
      cases
  in
  {
    id = "E7";
    title = "Implications on achievable classes (Lemmas 6.1/6.2)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes = [];
  }

(* --- E8: round/message complexity vs n (the efficiency story) ------ *)

(* The sizes E8 and E16 sweep, at t = 1. *)
let complexity_ns = [ 4; 8; 16; 32; 64 ]

let e8_complexity _setup =
  let ns = complexity_ns and thresh = 1 in
  let table =
    Tabular.create
      ~title:"E8: round and message complexity vs n (t = 1) -- the [7] vs [8] vs [12] story"
      ~columns:[ "protocol"; "n"; "rounds"; "p2p msgs"; "broadcasts" ]
  in
  let protocols =
    [
      ("naive-sequential", Sb_protocols.Naive.sequential);
      ("cgma-vss (linear, [7])", Sb_protocols.Cgma.protocol);
      ("chor-rabin-log ([8])", Sb_protocols.Chor_rabin.protocol);
      ("gennaro-constant ([12])", Sb_protocols.Gennaro.protocol);
      ("seq-dolev-strong (p2p)", Sb_broadcast.Parallel.sequential Sb_broadcast.Dolev_strong.scheme);
      ("conc-send-echo (p2p)", Sb_broadcast.Parallel.concurrent Sb_broadcast.Send_echo.scheme);
      ("conc-phase-king (p2p)", Sb_broadcast.Parallel.concurrent Sb_broadcast.Phase_king.scheme);
      ("conc-bracha (p2p)", Sb_broadcast.Parallel.concurrent Sb_broadcast.Bracha.scheme);
    ]
  in
  let measurements =
    List.map
      (fun (label, (p : Sb_sim.Protocol.t)) ->
        let per_n =
          List.map
            (fun n ->
              let rng = Rng.create (1000 + n) in
              let ctx = Sb_sim.Ctx.make ~rng ~n ~thresh ~k:8 () in
              let inputs = Array.init n (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
              let r =
                Sb_sim.Network.honest_run ~record_trace:false ~record_comm:true ctx ~rng
                  ~protocol:p ~inputs
              in
              let c = Option.get r.Sb_sim.Network.comm in
              Tabular.add_row table
                [
                  label; string_of_int n; string_of_int r.Sb_sim.Network.rounds_used;
                  string_of_int r.Sb_sim.Network.p2p_messages;
                  string_of_int c.Sb_sim.Network.broadcasts;
                ];
              (n, r.Sb_sim.Network.rounds_used))
            ns
          |> fun rows ->
          Tabular.add_rule table;
          rows
        in
        (label, per_n))
      protocols
  in
  (* Shape checks: Gennaro constant; Chor-Rabin ~ log growth; CGMA and
     naive-sequential linear. *)
  let rounds_of label n = List.assoc n (List.assoc label measurements) in
  let lo = List.hd ns and hi = List.nth ns (List.length ns - 1) in
  let ratio = float_of_int hi /. float_of_int lo in
  let growth label = float_of_int (rounds_of label hi) /. float_of_int (rounds_of label lo) in
  let checks =
    [
      ("gennaro constant", growth "gennaro-constant ([12])" = 1.0);
      ("chor-rabin sublinear", growth "chor-rabin-log ([8])" < ratio /. 2.0);
      ("cgma linear", growth "cgma-vss (linear, [7])" > ratio *. 0.8);
      ("naive linear", growth "naive-sequential" > ratio *. 0.8);
      ( "ordering at max n",
        rounds_of "gennaro-constant ([12])" hi < rounds_of "chor-rabin-log ([8])" hi
        && rounds_of "chor-rabin-log ([8])" hi < rounds_of "cgma-vss (linear, [7])" hi );
    ]
  in
  List.iter
    (fun (c, ok) -> Tabular.add_row table [ c; "-"; "-"; "-"; Tabular.cell_bool ok ])
    checks;
  {
    id = "E8";
    title = "Round/message complexity (the efficiency motivation)";
    table;
    ok = List.for_all snd checks;
    rows_checked = List.length checks;
    notes =
      [
        "Rounds are exact protocol constants; messages measured on an honest run.";
        "The p2p rows instantiate the broadcast channel with Byzantine substrates.";
      ];
  }

(* --- E10: G** agrees with G (Props. B.3/B.4) ----------------------- *)

let e10_gss_agreement setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create
      ~title:"E10 (Props. B.3/B.4): the G* and G** testers agree with each other and with G"
      ~columns:[ "protocol"; "adversary"; "G"; "G*"; "G**"; "agree" ]
  in
  let gen = Sb_protocols.Gennaro.protocol in
  let cases =
    [
      (gen, "semi-honest", Adversaries.semi_honest gen ~corrupt:[ n - 2; n - 1 ]);
      (Sb_protocols.Pi_g.protocol, "A*", Adversaries.a_star ~corrupt:(n - 2, n - 1));
      ( Sb_protocols.Naive.sequential,
        "echo",
        Adversaries.echo ~mode:`Sequential ~copier:(n - 1) ~target:0 );
      ( Sb_protocols.Commit_open.protocol,
        "reveal-withhold",
        Adversaries.reveal_withhold Sb_protocols.Commit_open.protocol ~corrupt:[ n - 1 ]
          ~reveal_round:(fun _ -> 1)
          ~reveal_tag_prefix:"co-open" ~honest_probe:Adversaries.probe_commit_open_parity );
    ]
  in
  let checks =
    List.map
      (fun ((p : Sb_sim.Protocol.t), aname, adversary) ->
        let g =
          G_test.run (g_setup setup) ~protocol:p ~adversary ~dist:(Sb_dist.Dist.uniform n) ()
        in
        (* Corrupted committed bits set to 1, so reveal-vs-withhold
           actually moves the announced value. *)
        let w = Bitvec.init n (fun i -> i >= n - 2) in
        let gss = Gss_test.run setup ~protocol:p ~adversary ~w () in
        let gstar = Gss_test.run_star setup ~protocol:p ~adversary ~w () in
        let agree =
          Sb_stats.Verdict.equal g.G_test.verdict gss.Gss_test.verdict
          && Sb_stats.Verdict.equal gss.Gss_test.verdict gstar.Gss_test.verdict
        in
        Tabular.add_row table
          [
            p.Sb_sim.Protocol.name; aname; vstr g.G_test.verdict; vstr gstar.Gss_test.verdict;
            vstr gss.Gss_test.verdict; Tabular.cell_bool agree;
          ];
        agree)
      cases
  in
  {
    id = "E10";
    title = "G** vs G agreement (Props. B.3/B.4)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [ "G* and G** fix inputs instead of conditioning on announced values (no bucketing \
         pathologies); their equivalence is Proposition B.3." ];
  }

(* --- E11: the echo attack, quantified (Section 3.2) ----------------- *)

type e11_acc = {
  mutable match_target : int;
  mutable match_own : int;
  mutable e11_total : int;
}

let e11_echo_attack setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create ~title:"E11 (Section 3.2): the rushing echo attack on naive parallel broadcast"
      ~columns:[ "protocol"; "adversary"; "Pr[W_copier = W_target]"; "Pr[W_copier = x_copier]"; "CR" ]
  in
  let copier = n - 1 and target = 0 in
  let uniform = Sb_dist.Dist.uniform n in
  let cases =
    [
      (Sb_protocols.Naive.sequential, "passive", Adversaries.passive, false);
      ( Sb_protocols.Naive.sequential,
        "echo",
        Adversaries.echo ~mode:`Sequential ~copier ~target,
        true );
      ( Sb_protocols.Naive.concurrent,
        "echo (rushing)",
        Adversaries.echo ~mode:`Concurrent ~copier ~target,
        true );
      ( Sb_protocols.Gennaro.protocol,
        "echo attempt",
        Adversaries.echo ~mode:`Concurrent ~copier ~target,
        false );
    ]
  in
  let checks =
    List.map
      (fun ((p : Sb_sim.Protocol.t), aname, adversary, expect_correlated) ->
        let rng = Rng.create setup.Setup.seed in
        let small = Setup.with_samples (max 500 (setup.Setup.samples / 4)) setup in
        let acc =
          Announced.psample small ~protocol:p ~adversary ~dist:uniform
            ~init:(fun () -> { match_target = 0; match_own = 0; e11_total = 0 })
            ~f:(fun a _ r ->
              a.e11_total <- a.e11_total + 1;
              if Bitvec.get r.Announced.w copier = Bitvec.get r.Announced.w target then
                a.match_target <- a.match_target + 1;
              if Bitvec.get r.Announced.w copier = Bitvec.get r.Announced.x copier then
                a.match_own <- a.match_own + 1)
            ~merge:(fun ~into s ->
              into.match_target <- into.match_target + s.match_target;
              into.match_own <- into.match_own + s.match_own;
              into.e11_total <- into.e11_total + s.e11_total)
            rng
        in
        let pt = float_of_int acc.match_target /. float_of_int acc.e11_total in
        let po = float_of_int acc.match_own /. float_of_int acc.e11_total in
        let cr = Cr_test.run small ~protocol:p ~adversary ~dist:uniform in
        Tabular.add_row table
          [
            p.Sb_sim.Protocol.name; aname; Tabular.cell_float ~digits:3 pt;
            Tabular.cell_float ~digits:3 po; vstr cr.Cr_test.verdict;
          ];
        if expect_correlated then pt > 0.95 && expect_verdict cr.Cr_test.verdict Sb_stats.Verdict.Fail
        else pt < 0.6 && not (expect_verdict cr.Cr_test.verdict Sb_stats.Verdict.Fail))
      cases
  in
  {
    id = "E11";
    title = "Echo attack quantified (Section 3.2)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [
        "Against Gennaro the same adversary code copies a hiding commitment \
         broadcast instead of a value, and is disqualified at the complaint \
         round: the copier's announced value stays independent.";
      ];
  }

(* --- E12: ablation -- recoverable reveals matter -------------------- *)

let e12_reveal_ablation setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create
      ~title:"E12 (ablation): selective reveal-withholding vs recoverable (VSS) reveals"
      ~columns:[ "protocol"; "reveal"; "G verdict"; "CR verdict"; "paper-shape" ]
  in
  let uniform = Sb_dist.Dist.uniform n in
  let corrupt = [ n - 2; n - 1 ] in
  let withhold_co =
    Adversaries.reveal_withhold Sb_protocols.Commit_open.protocol ~corrupt
      ~reveal_round:(fun _ -> 1)
      ~reveal_tag_prefix:"co-open" ~honest_probe:Adversaries.probe_commit_open_parity
  in
  let withhold_vss p reveal_round =
    Adversaries.reveal_withhold p ~corrupt ~reveal_round ~reveal_tag_prefix:"vss:"
      ~honest_probe:(Adversaries.probe_vss_secret ~dealer:0)
  in
  let cases =
    [
      (Sb_protocols.Commit_open.protocol, "bare (abortable)", withhold_co, Sb_stats.Verdict.Fail);
      ( Sb_protocols.Gennaro.protocol,
        "VSS (recoverable)",
        withhold_vss Sb_protocols.Gennaro.protocol (fun _ -> Sb_protocols.Gennaro.reveal_round),
        Sb_stats.Verdict.Pass );
      ( Sb_protocols.Cgma.protocol,
        "VSS (recoverable)",
        withhold_vss Sb_protocols.Cgma.protocol (fun ctx ->
            Sb_protocols.Cgma.reveal_round ~n:ctx.Sb_sim.Ctx.n),
        Sb_stats.Verdict.Pass );
      ( Sb_protocols.Chor_rabin.protocol,
        "VSS (recoverable)",
        withhold_vss Sb_protocols.Chor_rabin.protocol (fun ctx ->
            Sb_protocols.Chor_rabin.reveal_round ~n:ctx.Sb_sim.Ctx.n),
        Sb_stats.Verdict.Pass );
    ]
  in
  let checks =
    List.map
      (fun ((p : Sb_sim.Protocol.t), rstyle, adversary, expected) ->
        let g = G_test.run (g_setup setup) ~protocol:p ~adversary ~dist:uniform () in
        let cr = Cr_test.run setup ~protocol:p ~adversary ~dist:uniform in
        (* The shape check is on G — the notion Gennaro's protocol was
           proven under; the CR column is reported for reference (its
           gap on bare commit-open sits near the inconclusive band). *)
        let ok = Sb_stats.Verdict.equal g.G_test.verdict expected in
        Tabular.add_row table
          [ p.Sb_sim.Protocol.name; rstyle; vstr g.G_test.verdict; vstr cr.Cr_test.verdict;
            Tabular.cell_bool ok ];
        ok)
      cases
  in
  {
    id = "E12";
    title = "Recoverable reveals ablation";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [
        "Bare commit-open lets a rushing party steer between 'open' and \
         'default 0' after reading honest openings; every protocol in the \
         paper's lineage shares VSS-style recoverability precisely to close \
         this channel.";
      ];
  }

(* --- E13: Corollary 5.5 / the §7 open problem, empirically ---------- *)

let e13_simulation setup =
  let n = setup.Setup.n in
  let table =
    Tabular.create
      ~title:
        "E13 (Cor. 5.5 + §7 open problem): Sb tester with the sandbox simulator"
      ~columns:[ "protocol"; "adversary"; "Sb"; "joint TVD"; "baseline"; "expected" ]
  in
  let uniform = Sb_dist.Dist.uniform n in
  let corrupt = [ n - 2; n - 1 ] in
  let withhold p reveal_round =
    Adversaries.reveal_withhold p ~corrupt ~reveal_round ~reveal_tag_prefix:"vss:"
      ~honest_probe:(Adversaries.probe_vss_secret ~dealer:0)
  in
  let vss_cases =
    List.concat_map
      (fun ((p : Sb_sim.Protocol.t), reveal_round) ->
        [
          (p, "semi-honest", Adversaries.semi_honest p ~corrupt, Sb_stats.Verdict.Pass);
          (p, "substitute-random", Adversaries.substitute_random p ~corrupt, Sb_stats.Verdict.Pass);
          (p, "reveal-withhold", withhold p reveal_round, Sb_stats.Verdict.Pass);
        ])
      [
        (Sb_protocols.Gennaro.protocol, fun _ -> Sb_protocols.Gennaro.reveal_round);
        ( Sb_protocols.Cgma.protocol,
          fun (ctx : Sb_sim.Ctx.t) -> Sb_protocols.Cgma.reveal_round ~n:ctx.Sb_sim.Ctx.n );
        ( Sb_protocols.Chor_rabin.protocol,
          fun (ctx : Sb_sim.Ctx.t) -> Sb_protocols.Chor_rabin.reveal_round ~n:ctx.Sb_sim.Ctx.n );
      ]
  in
  let controls =
    [
      (* Negative control: the sandbox simulator exists for every
         protocol, but for the naive one the tester must still FAIL. *)
      ( Sb_protocols.Naive.sequential,
        "echo",
        Adversaries.echo ~mode:`Sequential ~copier:(n - 1) ~target:0,
        Sb_stats.Verdict.Fail );
    ]
  in
  let checks =
    List.map
      (fun ((p : Sb_sim.Protocol.t), aname, adversary, expected) ->
        let simulator = Sb_test.sandbox ~protocol:p ~adversary in
        let r = Sb_test.run setup ~protocol:p ~adversary ~dist:uniform ~simulator () in
        let cell = function Some v -> Tabular.cell_float v | None -> "-" in
        Tabular.add_row table
          [
            p.Sb_sim.Protocol.name; aname; vstr r.Sb_test.verdict; cell r.Sb_test.sim_tvd;
            cell r.Sb_test.baseline_tvd; vstr expected;
          ];
        Sb_stats.Verdict.equal r.Sb_test.verdict expected)
      (vss_cases @ controls)
  in
  {
    id = "E13";
    title = "Sb simulation of the VSS protocols (Cor. 5.5; evidence on the §7 open problem)";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [
        "The sandbox simulator runs the real adversary against dummy honest \
         inputs; perfect hiding + recoverable reveals make this a correct \
         ideal-process simulator for the VSS protocols.";
        "Gennaro's protocol passing here (4 rounds, constant in n) is empirical \
         evidence on the paper's §7 open problem: no battery member separates \
         it from Sb-independence.";
      ];
  }

(* --- E14: Figure 1, self-verifying ----------------------------------- *)

let e14_figure1 setup =
  (* Re-derive each arrow of the paper's Figure 1 from the experiments
     that establish it, then print the figure with its verdicts. *)
  let e1 = e1_distribution_classes setup in
  let e5 = e5_pi_g_separation setup in
  let e6 = e6_singleton_trivial setup in
  let e7 = e7_implications setup in
  let arrows =
    [
      ("D(Sb) = All  >  D(CR) = psi_C  >  D(G) = psi_L  >  {uniform} + singletons", e1.ok);
      ("Sb ==> CR on D(CR)   (Lemma 6.1)", e7.ok);
      ("CR ==> G  on D(G)    (Lemma 6.2)", e7.ok);
      ("CR =/=> Sb, witness: Singleton class + echo (Prop. 6.3)", e6.ok);
      ("G  =/=> CR, witness: Pi_G + A*, even under uniform (Lemma 6.4)", e5.ok);
    ]
  in
  let table =
    Tabular.create ~title:"E14: Figure 1 of the paper, each arrow verified empirically"
      ~columns:[ "relation"; "verified" ]
  in
  List.iter (fun (a, ok) -> Tabular.add_row table [ a; Tabular.cell_bool ok ]) arrows;
  Tabular.add_rule table;
  Tabular.add_row table
    [ "   Sb [7]  ==(D(CR))==>  CR [8]  ==(D(G))==>  G [12]"; "" ];
  Tabular.add_row table [ "       <=/= (Singleton)      <=/= (D(G), uniform)"; "" ];
  {
    id = "E14";
    title = "Figure 1, assembled and verified";
    table;
    ok = List.for_all snd arrows;
    rows_checked = List.length arrows;
    notes =
      [
        "Strong definitions are achievable everywhere and imply the weak ones; \
         weak definitions are achievable almost nowhere and imply nothing.";
      ];
  }

(* --- E15: resilience under injected faults ------------------------- *)

let e15_fault_resilience setup =
  let table =
    Tabular.create
      ~title:"E15: agreement/validity under crash-stop, omission, and boundary attacks"
      ~columns:[ "protocol"; "adversary"; "faults"; "agreement"; "validity"; "expected"; "ok" ]
  in
  (* Cells are cheap relative to the testers (one scalar pair per run),
     but the grid is wide; a fortieth of the budget per cell keeps the
     full sweep close to one tester's cost. *)
  let cell_samples = max 50 (setup.Setup.samples / 40) in
  let sized ~n ~thresh = Setup.with_samples cell_samples (Setup.with_n ~n ~thresh setup) in
  let row ~setup:s ~adversary ~adv_name ~dist ~expected ~check (protocol : Sb_sim.Protocol.t)
      plan =
    let c =
      Resilience.measure s ~protocol ~adversary ~dist ~plan
        (Rng.create s.Setup.seed)
    in
    let ok = check c in
    Tabular.add_row table
      [
        protocol.name;
        adv_name;
        (match Sb_fault.Plan.to_string plan with "" -> "none" | s -> s);
        cell_interval c.Resilience.agree;
        cell_interval c.Resilience.valid;
        expected;
        Tabular.cell_bool ok;
      ];
    ok
  in
  let exact (i : Sb_stats.Estimate.interval) v = i.Sb_stats.Estimate.point = v in
  (* The sweep grid: crash count x drop rate, passive adversary. With
     no omissions, round-granularity crashes leave every survivor of a
     to_all-based substrate with an identical view (and stay within
     the VSS protocols' reconstruction threshold), so agreement and
     validity must hold exactly; omission cells are reported as
     curves, not asserted. *)
  let grid ~setup:s protocols =
    let dist = Sb_dist.Dist.uniform s.Setup.n in
    List.concat_map
      (fun protocol ->
        List.concat_map
          (fun crashes ->
            List.map
              (fun rate ->
                let plan =
                  Resilience.drop_plan rate
                  @ Resilience.crash_plan ~n:s.Setup.n ~count:crashes
                in
                if rate = 0.0 then
                  row ~setup:s ~adversary:Adversaries.passive ~adv_name:"passive"
                    ~dist ~expected:"agree = valid = 1"
                    ~check:(fun c ->
                      exact c.Resilience.agree 1.0 && exact c.Resilience.valid 1.0)
                    protocol plan
                else
                  row ~setup:s ~adversary:Adversaries.passive ~adv_name:"passive"
                    ~dist ~expected:"curve" ~check:(fun _ -> true) protocol plan)
              [ 0.0; 0.1; 0.3 ])
          [ 0; 1; 2 ])
      protocols
  in
  let substrate_checks = grid ~setup:(sized ~n:5 ~thresh:1) Sb_protocols.Registry.substrates in
  let vss_checks = grid ~setup:(sized ~n:5 ~thresh:2) Sb_protocols.Registry.vss in
  Tabular.add_rule table;
  (* Dolev-Strong tolerates ANY number of crash faults below n: with
     thresh = n-1 the relay chain still equalises views. *)
  let ds_setup = sized ~n:5 ~thresh:4 in
  let ds = Sb_protocols.Registry.get "concurrent-dolev-strong" in
  let ds_check =
    row ~setup:ds_setup ~adversary:Adversaries.passive ~adv_name:"passive"
      ~dist:(Sb_dist.Dist.uniform 5) ~expected:"agree = 1"
      ~check:(fun c -> exact c.Resilience.agree 1.0)
      ds
      (Resilience.crash_plan ~n:5 ~count:4)
  in
  Tabular.add_rule table;
  (* The n/3 boundary, witnessed: one corruption at n = 4 is below the
     Bracha/EIG tolerance, one corruption plus one crash is above it,
     and the verdict flips from exact agreement to exact disagreement. *)
  let flip_setup = sized ~n:4 ~thresh:1 in
  let all_true = Sb_dist.Dist.product 1.0 4 in
  let flip protocol ~adversary ~adv_name ~plan ~agree_target =
    row ~setup:flip_setup ~adversary ~adv_name ~dist:all_true
      ~expected:(Printf.sprintf "agree = %g" agree_target)
      ~check:(fun c -> exact c.Resilience.agree agree_target)
      protocol plan
  in
  let bracha = Sb_protocols.Registry.get "concurrent-bracha" in
  let eig = Sb_protocols.Registry.get "concurrent-eig" in
  (* Explicit lets: list elements would evaluate right-to-left and
     scramble the table's row order. *)
  let f1 =
    flip bracha ~adversary:Resilience.bracha_flip ~adv_name:"bracha-flip" ~plan:[]
      ~agree_target:1.0
  in
  let f2 =
    flip bracha ~adversary:Resilience.bracha_flip ~adv_name:"bracha-flip"
      ~plan:[ Sb_fault.Plan.crash ~party:3 ~round:0 ]
      ~agree_target:0.0
  in
  let f3 =
    flip eig ~adversary:Resilience.eig_flip ~adv_name:"eig-flip" ~plan:[] ~agree_target:1.0
  in
  let f4 =
    flip eig ~adversary:Resilience.eig_flip ~adv_name:"eig-flip"
      ~plan:[ Sb_fault.Plan.crash ~party:2 ~round:1 ]
      ~agree_target:0.0
  in
  let flip_checks = [ f1; f2; f3; f4 ] in
  let checks = substrate_checks @ vss_checks @ [ ds_check ] @ flip_checks in
  {
    id = "E15";
    title = "Resilience curves under injected faults";
    table;
    ok = List.for_all Fun.id checks;
    rows_checked = List.length checks;
    notes =
      [
        "Crash-only columns are exact by a symmetry argument: a round-granular \
         crash is all-or-nothing, so every survivor of a to_all-based substrate \
         holds an identical view; omission columns are genuine Monte-Carlo \
         curves (Wilson 95% CIs).";
        "The flip rows realise the n/3 bound as an experiment: corruptions + \
         crashes <= t keeps Bracha/EIG exact, one crash more flips them to \
         exact disagreement.";
      ];
  }

(* --- E16: wire complexity of the broadcast substrates -------------- *)

let e16_wire_complexity _setup =
  let ns = complexity_ns and thresh = 1 in
  let table =
    Tabular.create
      ~title:
        "E16: message and wire-byte complexity of the broadcast substrates (t = 1, honest \
         run)"
      ~columns:[ "substrate"; "n"; "rounds"; "p2p msgs"; "bcasts"; "wire bytes"; "ms" ]
  in
  let measurements =
    List.map
      (fun (protocol : Sb_sim.Protocol.t) ->
        let label = protocol.name in
        let per_n =
          List.map
            (fun n ->
              let rng = Rng.create (1600 + n) in
              let ctx = Sb_sim.Ctx.make ~rng ~n ~thresh ~k:8 () in
              let inputs = Array.init n (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
              let t0 = Unix.gettimeofday () in
              let r =
                Sb_sim.Network.honest_run ~record_trace:false ~record_comm:true ctx ~rng ~protocol
                  ~inputs
              in
              let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
              let c = Option.get r.Sb_sim.Network.comm in
              let bytes = c.Sb_sim.Network.broadcast_bytes + c.Sb_sim.Network.p2p_bytes in
              Tabular.add_row table
                [
                  label; string_of_int n;
                  string_of_int r.Sb_sim.Network.rounds_used;
                  string_of_int r.Sb_sim.Network.p2p_messages;
                  string_of_int c.Sb_sim.Network.broadcasts;
                  string_of_int bytes;
                  Printf.sprintf "%.2f" ms;
                ];
              (n, (r.Sb_sim.Network.rounds_used, r.Sb_sim.Network.p2p_messages, bytes)))
            ns
        in
        Tabular.add_rule table;
        (label, per_n))
      Sb_protocols.Registry.substrates
  in
  (* Shape checks. Every substrate runs n concurrent sessions of an
     all-to-all scheme, so with t fixed the round count is a protocol
     constant and p2p messages grow as Theta(n^3); wire bytes track the
     message count (bodies are O(log n) at t = 1: ids and tags, no
     n-sized payloads), so they sit in a cubic band too, widened
     upward for the digit growth. *)
  let lo = List.hd ns and hi = List.nth ns (List.length ns - 1) in
  let r = float_of_int hi /. float_of_int lo in
  let cubic = r *. r *. r in
  let checks =
    List.concat_map
      (fun (label, per_n) ->
        let rounds_lo, msgs_lo, bytes_lo = List.assoc lo per_n in
        let rounds_hi, msgs_hi, bytes_hi = List.assoc hi per_n in
        let msg_growth = float_of_int msgs_hi /. float_of_int msgs_lo in
        let byte_growth = float_of_int bytes_hi /. float_of_int bytes_lo in
        [
          (label ^ ": rounds constant in n", rounds_hi = rounds_lo);
          ( label ^ ": p2p messages cubic",
            msg_growth >= 0.3 *. cubic && msg_growth <= 1.5 *. cubic );
          ( label ^ ": wire bytes cubic (log-widened)",
            byte_growth >= 0.3 *. cubic && byte_growth <= 4.0 *. cubic );
        ])
      measurements
  in
  List.iter
    (fun (c, ok) ->
      Tabular.add_row table [ c; "-"; "-"; "-"; "-"; "-"; Tabular.cell_bool ok ])
    checks;
  {
    id = "E16";
    title = "Wire complexity of the broadcast substrates";
    table;
    ok = List.for_all snd checks;
    rows_checked = List.length checks;
    notes =
      [
        "Counts and bytes are the run's comm tallies (record_comm; broadcasts \
         counted once, functionality traffic excluded), which agree with the \
         network's sim.* counters.";
        "ms is a single honest run's wall clock, trace recording off -- a scale \
         marker, not a benchmark (E9/bench owns timing).";
      ];
  }

(* --- E17: single-session scaling to n = 2048 ----------------------- *)

let e17_ns_full = [ 128; 256; 512; 1024; 2048 ]
let e17_ns_quick = [ 128; 256 ]

(* The large-n engine exercised end to end: one single-sender session
   per substrate ([Parallel.single], Theta(n^2) messages — the full
   n-session compositions of E16 are a factor n more work and top out
   around n = 64), run with trace recording off, arena-backed envelope
   reuse on, and per-run comm tallies, as in E8 and E16. EIG is
   excluded: its relay bodies are Theta(n)-sized lists of paths, so a
   single session is Theta(n^3) bytes and its exit-level majority
   resolve scans n^(t+1) paths — it has no business at n = 2048 and
   the skip is recorded as a note rather than silently dropped. *)
let e17_scaling ?n_max (setup : Setup.t) =
  let ns = if setup.Setup.samples <= 2000 then e17_ns_quick else e17_ns_full in
  let ns = match n_max with None -> ns | Some m -> List.filter (fun n -> n <= m) ns in
  let thresh = 1 in
  let table =
    Tabular.create
      ~title:
        "E17: single-session scaling of the broadcast substrates (t = 1, honest run, \
         arena delivery)"
      ~columns:
        [ "substrate"; "n"; "rounds"; "p2p msgs"; "deliveries"; "wire bytes"; "ms" ]
  in
  let protos =
    List.map
      (fun (s : Sb_broadcast.Session.scheme) ->
        (s.Sb_broadcast.Session.scheme_name, Sb_broadcast.Parallel.single s))
      [
        Sb_broadcast.Send_echo.scheme;
        Sb_broadcast.Dolev_strong.scheme;
        Sb_broadcast.Bracha.scheme;
        Sb_broadcast.Phase_king.scheme;
      ]
  in
  let measurements =
    List.map
      (fun (label, protocol) ->
        let per_n =
          List.map
            (fun n ->
              let rng = Rng.create (1700 + n) in
              let pool = Sb_sim.Envelope.Arena.create () in
              let ctx = Sb_sim.Ctx.make ~rng ~n ~thresh ~k:8 ~pool () in
              let inputs = Array.init n (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
              let t0 = Unix.gettimeofday () in
              let r =
                Sb_sim.Network.honest_run ~record_trace:false ~record_comm:true
                  ~reuse_envelopes:true ctx ~rng ~protocol ~inputs
              in
              let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
              let c = Option.get r.Sb_sim.Network.comm in
              let bytes = c.Sb_sim.Network.broadcast_bytes + c.Sb_sim.Network.p2p_bytes in
              Tabular.add_row table
                [
                  label; string_of_int n;
                  string_of_int r.Sb_sim.Network.rounds_used;
                  string_of_int r.Sb_sim.Network.p2p_messages;
                  string_of_int c.Sb_sim.Network.deliveries;
                  string_of_int bytes;
                  Printf.sprintf "%.2f" ms;
                ];
              let agree =
                List.for_all
                  (fun (_, m) -> Sb_sim.Msg.equal m inputs.(0))
                  r.Sb_sim.Network.outputs
              in
              ( n,
                ( r.Sb_sim.Network.rounds_used,
                  r.Sb_sim.Network.p2p_messages,
                  bytes,
                  agree ) ))
            ns
        in
        Tabular.add_rule table;
        (label, per_n))
      protos
  in
  (* Shape checks. One session of an all-to-all scheme with t fixed:
     rounds are a protocol constant, p2p messages grow as Theta(n^2),
     and wire bytes track the message count (bodies are O(log n):
     ids, tags, signature material — no n-sized payloads), so they sit
     in a quadratic band widened upward for digit growth. The output
     check pins that every honest party decides the sender's value at
     every size — the engine refactor must not just be fast. *)
  let growth_checks (label, per_n) =
    match ns with
    | [] | [ _ ] -> []
    | lo :: _ ->
        let hi = List.nth ns (List.length ns - 1) in
        let r = float_of_int hi /. float_of_int lo in
        let quad = r *. r in
        let rounds_lo, msgs_lo, bytes_lo, _ = List.assoc lo per_n in
        let rounds_hi, msgs_hi, bytes_hi, _ = List.assoc hi per_n in
        let msg_growth = float_of_int msgs_hi /. float_of_int msgs_lo in
        let byte_growth = float_of_int bytes_hi /. float_of_int bytes_lo in
        [
          (label ^ ": rounds constant in n", rounds_hi = rounds_lo);
          ( label ^ ": p2p messages quadratic",
            msg_growth >= 0.3 *. quad && msg_growth <= 1.5 *. quad );
          ( label ^ ": wire bytes quadratic (log-widened)",
            byte_growth >= 0.3 *. quad && byte_growth <= 4.0 *. quad );
        ]
  in
  let checks =
    List.concat_map
      (fun (label, per_n) ->
        (label ^ ": all parties decide the sender's value",
         List.for_all (fun (_, (_, _, _, agree)) -> agree) per_n)
        :: growth_checks (label, per_n))
      measurements
  in
  List.iter
    (fun (c, ok) ->
      Tabular.add_row table [ c; "-"; "-"; "-"; "-"; "-"; Tabular.cell_bool ok ])
    checks;
  {
    id = "E17";
    title = "Single-session scaling of the broadcast substrates";
    table;
    ok = List.for_all snd checks && ns <> [];
    rows_checked = List.length checks;
    notes =
      [
        "eig is skipped: its relay bodies are Theta(n)-sized path lists (a single \
         session is cubic in bytes) and its exit-level resolve scans n^(t+1) paths; \
         the E16 cubic band already covers it at small n.";
        "Runs use the arena delivery path (record_trace:false, reuse_envelopes, \
         record_comm); bytes come from the per-run comm tallies, as in E8 and E16.";
        Printf.sprintf "sizes: %s%s"
          (String.concat ", " (List.map string_of_int ns))
          (match n_max with
          | None -> ""
          | Some m -> Printf.sprintf " (capped by --n-max %d)" m);
      ];
  }

(* --- registry ------------------------------------------------------ *)

(* Roll every runner's outcome into the metrics registry. Metrics draw
   no randomness, so verdicts are unchanged with metrics on or off.
   Registered on first use, so a report of a run with no experiment
   lists no exp.* counters; exp.ok and exp.mismatch are registered
   together, so a report names both whatever the verdicts. *)
let instrumented f setup =
  let o = f setup in
  let open Sb_obs.Metrics in
  let ok = counter "exp.ok" and mismatch = counter "exp.mismatch" in
  incr ~by:o.rows_checked (counter "exp.rows_checked");
  incr (if o.ok then ok else mismatch);
  o

type entry = { id : string; title : string; run : Setup.t -> outcome }

let entry id title f = { id; title; run = instrumented f }

let registry =
  [
    entry "E1" "Distribution class hierarchy (Claim 5.6)" e1_distribution_classes;
    entry "E2" "CR unachievable outside psi_C (Lemma 5.2)" e2_cr_unachievable;
    entry "E3" "G unachievable outside psi_L (Lemma 5.4)" e3_g_unachievable;
    entry "E4" "Feasibility on achievable distributions (Claims 5.1/5.3)" e4_feasibility;
    entry "E5" "Pi_G separates G from CR (Lemma 6.4)" e5_pi_g_separation;
    entry "E6" "Singleton trivial for CR, not Sb (Prop. 6.3)" e6_singleton_trivial;
    entry "E7" "Implications on achievable classes (Lemmas 6.1/6.2)" e7_implications;
    entry "E8" "Round/message complexity (the efficiency motivation)" e8_complexity;
    entry "E10" "G** vs G agreement (Props. B.3/B.4)" e10_gss_agreement;
    entry "E11" "Echo attack quantified (Section 3.2)" e11_echo_attack;
    entry "E12" "Recoverable reveals ablation" e12_reveal_ablation;
    entry "E13" "Sb simulation of the VSS protocols (Cor. 5.5)" e13_simulation;
    entry "E14" "Figure 1, assembled and verified" e14_figure1;
    entry "E15" "Resilience curves under injected faults" e15_fault_resilience;
    entry "E16" "Wire complexity of the broadcast substrates" e16_wire_complexity;
    entry "E17" "Single-session scaling of the broadcast substrates" (fun setup ->
        e17_scaling setup);
  ]

let find_in entries id =
  let norm = String.lowercase_ascii (String.trim id) in
  List.find_opt (fun e -> String.lowercase_ascii e.id = norm) entries

let find = find_in registry
