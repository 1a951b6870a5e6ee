(* Electronic voting with partially known preferences — the paper's
   Section 1 argument for studying ARBITRARY input distributions.

   Two of five voters are known to always vote identically (a
   household, say): the input distribution is copy-pair, which lies
   outside psi_C and psi_L. The run below shows what that means
   operationally:

   - the protocols still work perfectly (consistency, correctness,
     no adversary can adapt its vote to the honest ones);
   - yet the CR and G testers FAIL — not because the protocol leaks,
     but because those definitions demand independence the correct
     tally cannot have. Only the simulation-based Sb definition
     remains meaningful, which is exactly the paper's conclusion about
     the limited applicability of [8] and [12].

   Run with:  dune exec examples/voting.exe *)

let n = 5

let () =
  let dist = Sb_dist.Dist.copy_pair n in
  let entry = Sb_dist.Family.copy_pair n in
  let verdict = Sb_dist.Classes.classify entry.Sb_dist.Family.ensemble in
  Format.printf "electorate: P0 and P1 always vote the same way (copy-pair distribution)@.";
  Format.printf "class membership: %a@.@." Sb_dist.Classes.pp verdict;

  let setup = Core.Setup.{ default with samples = 3000; n } in
  let protocol = Sb_protocols.Gennaro.protocol in
  let adversary = Core.Adversaries.semi_honest protocol ~corrupt:[ n - 1 ] in

  (* The protocol itself is fine: tally is correct in every run. *)
  let correct = ref 0 and total = ref 0 in
  let rng = Sb_util.Rng.create 11 in
  Core.Announced.sample setup ~protocol ~adversary ~dist rng (fun r ->
      incr total;
      if Sb_util.Bitvec.equal r.Core.Announced.w r.Core.Announced.x && r.Core.Announced.consistent
      then incr correct);
  Format.printf "gennaro under corruption of P%d: %d/%d runs with exact, consistent tally@."
    (n - 1) !correct !total;

  (* The statistical definitions reject the situation anyway. *)
  let cr = Core.Cr_test.run setup ~protocol ~adversary ~dist in
  let g =
    Core.G_test.run (Core.Setup.with_samples 12000 setup) ~protocol
      ~adversary:(Core.Adversaries.semi_honest protocol ~corrupt:[ 1 ])
      ~dist ()
  in
  Format.printf "@.CR tester on the voting distribution: %s@."
    (Sb_stats.Verdict.to_string cr.Core.Cr_test.verdict);
  (match cr.Core.Cr_test.worst with
  | Some w ->
      Format.printf "  witness: honest P%d against predicate %s, gap %.3f@."
        w.Core.Cr_test.honest_party w.Core.Cr_test.predicate
        w.Core.Cr_test.gap.Sb_stats.Estimate.point
  | None -> ());
  Format.printf "G tester (corrupting one of the twin voters): %s@."
    (Sb_stats.Verdict.to_string g.Core.G_test.verdict);

  (* Sb remains achievable: the Sb tester's universal falsifiers find
     nothing against the honest-majority VSS protocol, and the truthful
     simulator reproduces the joint distribution. *)
  let sb =
    Core.Sb_test.run setup ~protocol ~adversary ~dist ~simulator:Core.Sb_test.truthful ()
  in
  Format.printf "Sb tester (universal falsifiers + truthful simulator): %s@."
    (Sb_stats.Verdict.to_string sb.Core.Sb_test.verdict);
  (match (sb.Core.Sb_test.sim_tvd, sb.Core.Sb_test.baseline_tvd) with
  | Some t, Some b -> Format.printf "  joint TVD vs simulator %.3f (sampling baseline %.3f)@." t b
  | _ -> ());
  Format.printf
    "@.Takeaway (Section 5): under correlated electorates the CR/G notions are@.\
     unachievable BY DEFINITION; only the simulation-based notion of [7]@.\
     still distinguishes good protocols from bad ones.@."
