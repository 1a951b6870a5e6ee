(* Delivery-engine probe for the BENCH report: wall-clock for honest
   runs on the arena delivery path (trace off, envelope reuse on,
   comm tallies on — the large-n engine configuration E17 uses).
   Recorded as "delivery/..." timing entries in BENCH_*.json; CI holds
   them to the committed quick baseline alongside crypto/* and
   gtester-smoke/20k. Two shapes per substrate: the n-session
   concurrent composition at n = 32 (the E16 regime — dominated by
   sid bucketing and router delivery) and the single-session large-n
   unit at n = 128 (the E17 regime — every send-all read in place from
   the router's shared broadcast lane, no sid bucketing, so dominated
   by arena reuse and substrate bookkeeping). *)

let entry name ns = { Sb_obs.Report.bench_name = name; ns_per_run = ns; r_square = 1.0 }

let time_run (protocol : Sb_sim.Protocol.t) ~n ~reps =
  let rng = Sb_util.Rng.create (9000 + n) in
  let pool = Sb_sim.Envelope.Arena.create () in
  let ctx = Sb_sim.Ctx.make ~rng ~n ~thresh:1 ~k:8 ~pool () in
  let inputs = Array.init n (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
  let run () =
    ignore
      (Sb_sim.Network.honest_run ~record_trace:false ~record_comm:true
         ~reuse_envelopes:true ctx ~rng ~protocol ~inputs)
  in
  (* One warm-up run grows the arena and router buffers to steady
     state, then the timed repetitions. *)
  run ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    run ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps

let run () =
  let schemes =
    [ ("send-echo", Sb_broadcast.Send_echo.scheme); ("bracha", Sb_broadcast.Bracha.scheme) ]
  in
  List.concat_map
    (fun (name, scheme) ->
      [
        entry
          (Printf.sprintf "delivery/concurrent-%s/n=32" name)
          (time_run (Sb_broadcast.Parallel.concurrent scheme) ~n:32 ~reps:5);
        entry
          (Printf.sprintf "delivery/single-%s/n=128" name)
          (time_run (Sb_broadcast.Parallel.single scheme) ~n:128 ~reps:3);
      ])
    schemes

let print_summary entries =
  Format.printf "== delivery probe (arena path, ms/run): %s ==@."
    (String.concat ", "
       (List.map
          (fun (e : Sb_obs.Report.timing_entry) ->
            Printf.sprintf "%s %.1f" e.Sb_obs.Report.bench_name
              (e.Sb_obs.Report.ns_per_run /. 1e6))
          entries))
