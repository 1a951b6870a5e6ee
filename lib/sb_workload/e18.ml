open Sb_util
open Sb_session

(* E18: the work-stealing scheduler on a heavy-tailed two-protocol
   mix — a few large-n Dolev-Strong sessions among hundreds of cheap
   Bracha votes, the exact traffic shape that starves the historical
   static ≤32-shard layout (its single heavy shard dominates the
   batch while the other workers drain the cheap tail and go idle).

   The ≥1.5× acceptance gate is evaluated on a *modeled* 4-worker
   makespan: run the batch once, measure every session's wall clock,
   then greedy-list-schedule the per-shard costs of each layout onto 4
   workers. The static layout no longer executes anywhere; it exists
   only here, as a function of the counts. The model is deterministic
   given the measured costs and independent of how many cores the
   host actually has, so the gate is meaningful in single-core CI too.
   The real pooled wall, steal counts and per-worker utilization are
   reported alongside as notes (and as sched.* metrics) but not gated
   — on an oversubscribed host they measure the OS scheduler, not
   ours. *)

let substrate name = List.assoc name (Core.Resilience.substrates ())

let static_layout counts =
  let total = Array.fold_left ( + ) 0 counts in
  let base = ref 0 in
  Array.concat
    (Array.to_list
       (Array.map
          (fun c ->
            let shards = max 1 (min c (Shard.width * c / total)) in
            let lo = !base in
            base := !base + c;
            Array.map
              (fun (ch : Sb_par.Partition.chunk) ->
                (lo + ch.Sb_par.Partition.lo, ch.Sb_par.Partition.len))
              (Sb_par.Partition.chunks ~total:c ~jobs:shards))
          counts))

(* Greedy list scheduling in claim (= shard index) order: each shard
   goes to the earliest-free worker. This models both layouts — a
   per-shard task queue and the steal path's atomic claim loop are
   exactly this policy at their respective granularities. *)
let makespan ~workers costs =
  let load = Array.make workers 0.0 in
  Array.iter
    (fun c ->
      let best = ref 0 in
      for w = 1 to workers - 1 do
        if load.(w) < load.(!best) then best := w
      done;
      load.(!best) <- load.(!best) +. c)
    costs;
  Array.fold_left max 0.0 load

let percentile xs p =
  if Array.length xs = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = min (Array.length s - 1) (p * (Array.length s - 1) / 100) in
    s.(k)
  end

let run (setup : Core.Setup.t) =
  let quick = setup.Core.Setup.samples <= 2000 in
  let heavy = if quick then 6 else 8 in
  let heavy_n = if quick then 16 else 20 in
  let cheap = if quick then 600 else 2000 in
  let workers = 4 in
  let seed = 1800 in
  let counts = [| heavy; cheap |] in
  let specs =
    [
      Engine.spec ~parties:heavy_n
        ~dist:(Sb_dist.Dist.uniform heavy_n)
        (substrate "concurrent-dolev-strong")
        heavy;
      Engine.spec (substrate "concurrent-bracha") cheap;
    ]
  in
  let setup5 = Core.Setup.{ setup with n = 5; thresh = 2 } in
  let dist = Sb_dist.Dist.uniform 5 in
  let run_with ~domains =
    let pool = Sb_par.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Sb_par.Pool.shutdown pool)
      (fun () -> Engine.run ~pool ~setup:setup5 ~dist specs (Rng.create seed))
  in
  (* Measurement pass: one worker, so per-session walls are clean of
     claiming noise. *)
  let agg1, reports1 = run_with ~domains:1 in
  let cost (lo, len) =
    let acc = ref 0.0 in
    for i = lo to lo + len - 1 do
      acc := !acc +. agg1.Engine.session_wall_s.(i)
    done;
    !acc
  in
  let static_costs = Array.map cost (static_layout counts) in
  let steal_costs =
    Array.map
      (fun (sh : Shard.t) -> cost (sh.Shard.lo, sh.Shard.len))
      (Shard.layout ~counts ~rng:(Rng.create seed))
  in
  let static_mk = makespan ~workers static_costs in
  let steal_mk = makespan ~workers steal_costs in
  let speedup = if steal_mk > 0.0 then static_mk /. steal_mk else 0.0 in
  (* Real pooled run at 4 domains: identical outcomes, live steal and
     utilization counters. *)
  let agg_steal, reports_steal = run_with ~domains:workers in
  let table =
    Tabular.create
      ~title:
        (Printf.sprintf
           "E18: work stealing on a heavy-tailed mix (%d x dolev-strong n=%d + %d x \
            bracha n=5, modeled %d workers)"
           heavy heavy_n cheap workers)
      ~columns:
        [ "layout"; "shards"; "max shard ms"; "p95 shard ms"; "makespan ms"; "speedup" ]
  in
  let ms x = Printf.sprintf "%.1f" (x *. 1000.0) in
  let row label costs mk sp =
    Tabular.add_row table
      [
        label;
        string_of_int (Array.length costs);
        ms (Array.fold_left max 0.0 costs);
        ms (percentile costs 95);
        ms mk;
        (match sp with None -> "1.00x (base)" | Some s -> Printf.sprintf "%.2fx" s);
      ]
  in
  row "static" static_costs static_mk None;
  row "steal" steal_costs steal_mk (Some speedup);
  let checks =
    [
      ( "all sessions consistent",
        agg1.Engine.consistent = agg1.Engine.sessions
        && agg_steal.Engine.consistent = agg_steal.Engine.sessions );
      ( "outcomes identical at 1 and 4 domains",
        Array.map Engine.session_report_to_json reports1
        = Array.map Engine.session_report_to_json reports_steal );
      ("steal layout strictly finer", Array.length steal_costs > Array.length static_costs);
      (Printf.sprintf "modeled %d-worker speedup >= 1.5x" workers, speedup >= 1.5);
    ]
  in
  let busy =
    Array.map (fun ws -> ws.Engine.busy_s) agg_steal.Engine.worker_stats
  in
  let busy_max = Array.fold_left max 0.0 busy in
  let util =
    if busy_max > 0.0 then
      Array.fold_left ( +. ) 0.0 busy /. (float_of_int (Array.length busy) *. busy_max)
    else 0.0
  in
  let notes =
    List.map (fun (what, ok) -> Printf.sprintf "%s: %s" what (if ok then "ok" else "FAIL")) checks
    @ [
        Printf.sprintf "real 4-domain steal wall: %.3fs (host-dependent, not gated)"
          agg_steal.Engine.wall_s;
        Printf.sprintf "steal run: %d claims, %d steals, mean worker utilization %.0f%%"
          agg_steal.Engine.shards agg_steal.Engine.steals (util *. 100.0);
        Printf.sprintf
          "tail latency (modeled shard cost): static p50 %sms p95 %sms max %sms -> steal \
           p50 %sms p95 %sms max %sms"
          (ms (percentile static_costs 50))
          (ms (percentile static_costs 95))
          (ms (Array.fold_left max 0.0 static_costs))
          (ms (percentile steal_costs 50))
          (ms (percentile steal_costs 95))
          (ms (Array.fold_left max 0.0 steal_costs));
      ]
  in
  {
    Core.Experiments.id = "E18";
    title = "Work stealing on heavy-tailed session mixes";
    table;
    ok = List.for_all snd checks;
    rows_checked = List.length checks;
    notes;
  }

let entry =
  Core.Experiments.entry "E18" "Work stealing on heavy-tailed session mixes" run

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Core.Experiments.register entry
  end
