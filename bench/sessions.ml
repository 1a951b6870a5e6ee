(* Session-throughput probe.

   Runs fixed-count batches of whole protocol sessions through
   Sb_session.Engine — the sharded scheduler with per-shard shared
   setup and per-session RNG streams — and records the per-session
   cost as "sessions/..." entries in the BENCH_*.json timings block.
   CI holds them to the perf-diff threshold against the committed
   quick baseline alongside gtester-smoke/20k and crypto/, so a
   scheduler regression (lost parallelism, context rebuilt per run,
   shard-layout churn) shows up as a timings slowdown, and the
   report's sessions block carries the probe's aggregate. *)

open Sb_session

let n = 5
let seed = 11

let entry name ns = { Sb_obs.Report.bench_name = name; ns_per_run = ns; r_square = 1.0 }

(* Two shapes: a homogeneous batch (pure scheduler+substrate cost) and
   a mixed batch (protocol_at dispatch, uneven per-session cost). *)
let probes ~count =
  let third = count / 3 in
  [
    ("sessions/bracha", [ Engine.spec (Sb_protocols.Registry.get "concurrent-bracha") count ]);
    ( "sessions/mixed",
      [
        Engine.spec (Sb_protocols.Registry.get "concurrent-bracha") (count - (2 * third));
        Engine.spec (Sb_protocols.Registry.get "concurrent-dolev-strong") third;
        Engine.spec Sb_protocols.Commit_open.protocol third;
      ] );
  ]

let say fmt = Format.printf (fmt ^^ "@.")

(* Returns the timing entries plus the last probe's aggregate as the
   report's schema-v4 sessions block. *)
let run ~count () =
  let setup = Core.Setup.{ default with n; thresh = (n - 1) / 2; seed } in
  let dist = Sb_dist.Dist.uniform n in
  let last = ref None in
  let timings =
    List.map
      (fun (name, specs) ->
        let agg, _ = Engine.run ~setup ~dist specs (Sb_util.Rng.create seed) in
        last := Some agg;
        say "== %s: %d sessions (%d consistent, %d shards) in %.2fs — %.0f sessions/s ==" name
          agg.Engine.sessions agg.Engine.consistent agg.Engine.shards agg.Engine.wall_s
          agg.Engine.sessions_per_sec;
        entry name (agg.Engine.wall_s *. 1e9 /. float_of_int agg.Engine.sessions))
      (probes ~count)
  in
  (timings, Option.map Engine.aggregate_to_json !last)
