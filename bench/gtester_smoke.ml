(* G-tester smoke: the fixed-cost delivery-path guard.

   One G-independence run at a pinned 20k-sample budget — the
   sampler's hot loop is dominated by network delivery, so this scalar
   tracks the engine itself across commits. Recorded in every
   BENCH_*.json (timings entry "gtester-smoke/20k"); CI diffs it
   against the committed quick baseline. *)

let run () =
  let setup = Core.Setup.with_samples 20_000 Core.Setup.default in
  let n = setup.Core.Setup.n in
  let protocol = Sb_protocols.Gennaro.protocol in
  let adversary = Core.Adversaries.semi_honest protocol ~corrupt:[ n - 2; n - 1 ] in
  let t0 = Unix.gettimeofday () in
  let r = Core.G_test.run setup ~protocol ~adversary ~dist:(Sb_dist.Dist.uniform n) () in
  let wall = Unix.gettimeofday () -. t0 in
  Format.printf "== gtester-smoke: 20k samples in %.2fs (verdict %s) ==@." wall
    (Sb_stats.Verdict.to_string r.Core.G_test.verdict);
  { Sb_obs.Report.bench_name = "gtester-smoke/20k"; ns_per_run = wall *. 1e9; r_square = 1.0 }
