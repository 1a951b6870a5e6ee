(* Quickstart: five parties simultaneously broadcast one bit each.

   Shows the three-line happy path (context, inputs, run), then the
   point of the whole library: the same inputs through a NAIVE parallel
   broadcast with a rushing echo adversary produce correlated announced
   values, while Gennaro's protocol under the same adversary class does
   not.

   Run with:  dune exec examples/quickstart.exe *)

open Sb_sim

let () =
  (* --- 1. Simultaneous broadcast in three lines. ------------------- *)
  let rng = Sb_util.Rng.create 2024 in
  let ctx = Ctx.make ~rng ~n:5 ~thresh:2 ~k:16 () in
  let inputs = [| Msg.Bit true; Msg.Bit false; Msg.Bit true; Msg.Bit true; Msg.Bit false |] in
  let result =
    Network.honest_run ~record_trace:false ~record_comm:true ctx ~rng
      ~protocol:Sb_protocols.Gennaro.protocol ~inputs
  in
  (match result.Network.outputs with
  | (_, announced) :: _ ->
      Format.printf "announced vector (gennaro, honest run): %a@." Msg.pp announced
  | [] -> assert false);
  let comm = Option.get result.Network.comm in
  Format.printf "rounds: %d, broadcasts used: %d@." result.Network.rounds_used
    comm.Network.broadcasts;
  Format.printf "wire cost: %d broadcast bytes, %d p2p bytes@." comm.Network.broadcast_bytes
    comm.Network.p2p_bytes;

  (* --- 2. Why "parallel" is not "simultaneous" (Section 3.2). ------ *)
  let setup = Core.Setup.{ default with samples = 2000 } in
  let uniform = Sb_dist.Dist.uniform 5 in
  let echo = Core.Adversaries.echo ~mode:`Sequential ~copier:4 ~target:0 in
  let correlation protocol adversary =
    let agree = ref 0 and total = ref 0 in
    let rng = Sb_util.Rng.create 7 in
    Core.Announced.sample setup ~protocol ~adversary ~dist:uniform rng (fun r ->
        incr total;
        if
          Sb_util.Bitvec.get r.Core.Announced.w 4 = Sb_util.Bitvec.get r.Core.Announced.w 0
        then incr agree);
    float_of_int !agree /. float_of_int !total
  in
  Format.printf "@.Pr[W4 = W0] under a rushing echo adversary:@.";
  Format.printf "  naive sequential broadcast : %.3f   (P4 just replays P0)@."
    (correlation Sb_protocols.Naive.sequential echo);
  let echo_conc = Core.Adversaries.echo ~mode:`Concurrent ~copier:4 ~target:0 in
  Format.printf "  gennaro (commit via VSS)   : %.3f   (copying a hiding commitment is useless)@."
    (correlation Sb_protocols.Gennaro.protocol echo_conc);

  (* --- 3. The formal testers, one call each. ------------------------ *)
  let cr =
    Core.Cr_test.run setup ~protocol:Sb_protocols.Naive.sequential ~adversary:echo ~dist:uniform
  in
  Format.printf "@.CR-independence of naive sequential under echo: %s@."
    (Sb_stats.Verdict.to_string cr.Core.Cr_test.verdict);
  let semi = Core.Adversaries.semi_honest Sb_protocols.Gennaro.protocol ~corrupt:[ 3; 4 ] in
  let cr' =
    Core.Cr_test.run setup ~protocol:Sb_protocols.Gennaro.protocol ~adversary:semi ~dist:uniform
  in
  Format.printf "CR-independence of gennaro under semi-honest corruption: %s@."
    (Sb_stats.Verdict.to_string cr'.Core.Cr_test.verdict)
