(* Integration tests: every experiment driver must reproduce the
   paper-predicted verdict pattern, at a reduced (but still decisive)
   sample budget. These are the executable counterparts of the paper's
   claims; the benchmark harness prints the same tables at full
   budget. *)

let setup = Core.Setup.{ default with samples = 2500 }

let check_outcome name f () =
  let (o : Core.Experiments.outcome) = f () in
  if not o.Core.Experiments.ok then
    Alcotest.failf "%s mismatched the paper's prediction:\n%s" name
      (Sb_util.Tabular.render o.Core.Experiments.table);
  Alcotest.(check bool) (name ^ " rows checked") true (o.Core.Experiments.rows_checked > 0)

let test_headline_at_n7 () =
  (* Lemma 6.4's separation is not an artifact of n = 5: at n = 7 with
     t = 3, Pi_G + A* still passes G** and fails CR with the same 1/4
     parity gap. (G** rather than the bucketed G tester: at 5 honest
     parties the 32 buckets would need a very large budget.) *)
  let setup7 = Core.Setup.{ default with n = 7; thresh = 3; samples = 3000 } in
  let astar = Core.Adversaries.a_star ~corrupt:(5, 6) in
  let p = Sb_protocols.Pi_g.protocol in
  let cr = Core.Cr_test.run setup7 ~protocol:p ~adversary:astar ~dist:(Sb_dist.Dist.uniform 7) () in
  Alcotest.(check string) "CR fails" "FAIL" (Sb_stats.Verdict.to_string cr.Core.Cr_test.verdict);
  (match cr.Core.Cr_test.worst with
  | Some w ->
      Alcotest.(check bool) "gap ~ 1/4" true
        (Float.abs (w.Core.Cr_test.gap.Sb_stats.Estimate.point -. 0.25) < 0.04)
  | None -> Alcotest.fail "expected CR findings");
  let gss = Core.Gss_test.run setup7 ~protocol:p ~adversary:astar () in
  Alcotest.(check string) "G** passes" "PASS"
    (Sb_stats.Verdict.to_string gss.Core.Gss_test.verdict);
  (* And the exact computation agrees at n = 7. *)
  let w_dist =
    Core.Exact.push_coin (Sb_dist.Dist.uniform 7) (Core.Exact.pi_g_astar_map ~l1:5 ~l2:6)
  in
  Alcotest.(check (float 1e-12)) "exact CR gap 1/4" 0.25
    (Core.Exact.cr_gap_battery w_dist ~honest:[ 0; 1; 2; 3; 4 ]);
  Alcotest.(check (float 1e-12)) "exact G gap 0" 0.0
    (Core.Exact.g_gap w_dist ~corrupted:[ 5; 6 ])

let test_seed_stability () =
  (* Verdicts are statistical; they must not flip across seeds. The
     headline CR failure (gap 1/4) and a feasibility pass, at 5
     different seeds each. *)
  let uniform = Sb_dist.Dist.uniform 5 in
  List.iter
    (fun seed ->
      let s = Core.Setup.{ default with samples = 1500; seed } in
      let astar = Core.Adversaries.a_star ~corrupt:(3, 4) in
      let cr =
        Core.Cr_test.run s ~protocol:Sb_protocols.Pi_g.protocol ~adversary:astar ~dist:uniform ()
      in
      Alcotest.(check string)
        (Printf.sprintf "pi-g CR fails (seed %d)" seed)
        "FAIL"
        (Sb_stats.Verdict.to_string cr.Core.Cr_test.verdict);
      let p = Sb_protocols.Gennaro.protocol in
      let semi = Core.Adversaries.semi_honest p ~corrupt:[ 3; 4 ] in
      let cr' = Core.Cr_test.run s ~protocol:p ~adversary:semi ~dist:uniform () in
      Alcotest.(check bool)
        (Printf.sprintf "gennaro CR never fails (seed %d)" seed)
        true
        (cr'.Core.Cr_test.verdict <> Sb_stats.Verdict.Fail))
    [ 2; 3; 5; 8; 13 ]

(* Byte pins for the two tables whose sample path is the VSS testers
   (Lemmas 5.2 and 5.4): the MD5 of each table's CSV at a fixed seed
   and budget, recorded before the sample path was optimised. Any
   change to the RNG streams, the share checks or the Lagrange cache
   that moves a single output byte fails here. At 2000 samples the
   same pins are E2 787667dacc9bd533511971c151da135e and
   E3 ded25ea036c417a79d537a848e4b7982. *)
let csv_md5 (o : Core.Experiments.outcome) =
  Digest.to_hex (Digest.string (Sb_util.Tabular.to_csv o.Core.Experiments.table))

let test_e2_e3_table_pins () =
  let s = Core.Setup.(default |> with_samples 400 |> with_seed 1) in
  List.iter
    (fun jobs ->
      Sb_par.Pool.set_default_domains jobs;
      Fun.protect
        ~finally:(fun () -> Sb_par.Pool.set_default_domains 1)
        (fun () ->
          Alcotest.(check string)
            (Printf.sprintf "E2 csv md5 (jobs %d)" jobs)
            "bcf00aac0538038b44f46db6a2e016ba"
            (csv_md5 (Core.Experiments.e2_cr_unachievable s));
          Alcotest.(check string)
            (Printf.sprintf "E3 csv md5 (jobs %d)" jobs)
            "545a528afa7e06d971f387f9270db6cc"
            (csv_md5 (Core.Experiments.e3_g_unachievable s))))
    [ 1; 2 ]

(* E1's table (it draws no samples, so the quick tier is the full
   one), recorded before Dist.local_gap bucketed the mass by B̄ in one
   pass per subset; test_dist checks the gaps themselves bit for bit
   against the per-w definition. *)
let test_e1_table_pin () =
  Alcotest.(check string) "E1 csv md5" "734ab5b27b00661e48816ede4d2f0f23"
    (csv_md5 (Core.Experiments.e1_distribution_classes ()))

(* E17's quick table (n = 128, 256) with the wall-clock [ms] column
   stripped, recorded before the large-n round pipeline stopped
   allocating per envelope (shared arena endpoints, per-session tags,
   no copies of the outgoing queue). Every count and byte total must
   stay put; the check rows are covered by the paper-claims case. *)
let e17_quick_pin =
  [
    "substrate,n,rounds,p2p msgs,deliveries,wire bytes";
    "send-echo,128,2,16512,16512,498578";
    "send-echo,256,2,65792,65792,2045842";
    "dolev-strong,128,2,16384,16384,2456960";
    "dolev-strong,256,2,65536,65536,9927424";
    "bracha,128,4,32896,32896,1143954";
    "bracha,256,4,131328,131328,4680082";
    "phase-king,128,5,33152,33152,1103286";
    "phase-king,256,5,131840,131840,4500662";
  ]

let test_e17_table_pin () =
  let o = Core.Experiments.e17_scaling Core.Setup.(with_samples 800 default) in
  let rows = String.split_on_char '\n' (Sb_util.Tabular.to_csv o.Core.Experiments.table) in
  let strip_ms row =
    match List.rev (String.split_on_char ',' row) with
    | _ms :: rest -> String.concat "," (List.rev rest)
    | [] -> row
  in
  Alcotest.(check (list string)) "E17 quick table without ms" e17_quick_pin
    (List.map strip_ms (List.filteri (fun i _ -> i < List.length e17_quick_pin) rows))

let test_e8_monotone_details () =
  (* Beyond the built-in shape checks: message complexity of the p2p
     instantiation grows superlinearly while the broadcast-channel
     protocols stay linear in broadcasts. *)
  let o = Core.Experiments.e8_complexity ~ns:[ 4; 16 ] () in
  Alcotest.(check bool) "shape checks hold" true o.Core.Experiments.ok

let () =
  Alcotest.run "experiments"
    [
      ( "paper-claims",
        [
          Alcotest.test_case "E1 distribution classes" `Quick
            (check_outcome "E1" (fun () -> Core.Experiments.e1_distribution_classes ~n:5 ()));
          Alcotest.test_case "E2 CR unachievable" `Slow
            (check_outcome "E2" (fun () -> Core.Experiments.e2_cr_unachievable setup));
          Alcotest.test_case "E3 G unachievable" `Slow
            (check_outcome "E3" (fun () -> Core.Experiments.e3_g_unachievable setup));
          Alcotest.test_case "E4 feasibility" `Slow
            (check_outcome "E4" (fun () -> Core.Experiments.e4_feasibility setup));
          Alcotest.test_case "E5 Pi_G separation" `Slow
            (check_outcome "E5" (fun () -> Core.Experiments.e5_pi_g_separation setup));
          Alcotest.test_case "E6 singleton trivial for CR" `Slow
            (check_outcome "E6" (fun () -> Core.Experiments.e6_singleton_trivial setup));
          Alcotest.test_case "E7 implications" `Slow
            (check_outcome "E7" (fun () -> Core.Experiments.e7_implications setup));
          Alcotest.test_case "E8 complexity" `Quick
            (check_outcome "E8" (fun () -> Core.Experiments.e8_complexity ()));
          Alcotest.test_case "E10 G** agreement" `Slow
            (check_outcome "E10" (fun () -> Core.Experiments.e10_gss_agreement setup));
          Alcotest.test_case "E11 echo attack" `Slow
            (check_outcome "E11" (fun () -> Core.Experiments.e11_echo_attack setup));
          Alcotest.test_case "E12 reveal ablation" `Slow
            (check_outcome "E12" (fun () -> Core.Experiments.e12_reveal_ablation setup));
          Alcotest.test_case "E13 sandbox simulation" `Slow
            (check_outcome "E13" (fun () -> Core.Experiments.e13_simulation setup));
          Alcotest.test_case "E14 figure 1" `Slow
            (check_outcome "E14" (fun () -> Core.Experiments.e14_figure1 setup));
          Alcotest.test_case "E15 fault resilience" `Slow
            (check_outcome "E15" (fun () -> Core.Experiments.e15_fault_resilience setup));
          Alcotest.test_case "E16 wire complexity" `Quick
            (check_outcome "E16" (fun () ->
                 Core.Experiments.e16_wire_complexity ~ns:[ 4; 16 ] ()));
          Alcotest.test_case "E17 scaling (quick)" `Quick
            (check_outcome "E17" (fun () ->
                 Core.Experiments.e17_scaling Core.Setup.(with_samples 800 default)));
        ] );
      ("e8-details", [ Alcotest.test_case "message growth" `Quick test_e8_monotone_details ]);
      ( "table-pins",
        [
          Alcotest.test_case "E1 csv bytes" `Quick test_e1_table_pin;
          Alcotest.test_case "E2/E3 csv bytes" `Quick test_e2_e3_table_pins;
          Alcotest.test_case "E17 quick table" `Quick test_e17_table_pin;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "headline separation at n=7" `Slow test_headline_at_n7;
          Alcotest.test_case "verdict stability across seeds" `Slow test_seed_stability;
        ] );
    ]
