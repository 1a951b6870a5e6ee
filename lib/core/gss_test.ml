open Sb_util

type finding = {
  corrupted_party : int;
  r : Bitvec.t;
  s : Bitvec.t;
  gap : Sb_stats.Estimate.interval;
  verdict : Sb_stats.Verdict.t;
}

type result = {
  findings : finding list;
  worst : finding option;
  verdict : Sb_stats.Verdict.t;
}

(* Shared engine for G** (single-bit-flip pairs) and G* (each
   assignment against the all-zero honest assignment). *)
let run_with ~pair_mode setup ~protocol ~adversary ?w () =
  let n = setup.Setup.n in
  let w = match w with Some w -> w | None -> Bitvec.zero n in
  let runs_per_point = max 200 setup.Setup.samples in
  let corrupted = Announced.corrupted_of setup ~protocol ~adversary in
  let honest = Subset.complement n corrupted in
  let h = List.length honest in
  if corrupted = [] then { findings = []; worst = None; verdict = Sb_stats.Verdict.Pass }
  else begin
    (* Honest input assignments to probe: all of them if small, else a
       random sample (always including the all-zero point, which G*
       compares against). *)
    let assignments =
      if h <= 4 then List.init (1 lsl h) Fun.id
      else
        let rng = Rng.create (setup.Setup.seed + 17) in
        0 :: List.init 12 (fun _ -> Rng.bits rng h)
    in
    let assignments = List.sort_uniq Int.compare assignments in
    let full_vector assignment =
      Bitvec.combine w honest (Array.init h (fun pos -> (assignment lsr pos) land 1 = 1))
    in
    (* Estimate Pr(W_i = 1) on each fixed input vector. The sequential
       loop consumed one master split per run, sequenced across
       assignments; flattening to a single (assignment x run) index
       space with pre-split streams replays exactly those children, so
       the counts are byte-identical at every pool size. *)
    let assignments_arr = Array.of_list assignments in
    let xs = Array.map full_vector assignments_arr in
    let corrupted_arr = Array.of_list corrupted in
    let n_corr = Array.length corrupted_arr in
    let n_assign = Array.length assignments_arr in
    let counts =
      Announced.fan_out ~total:(n_assign * runs_per_point) ~draws_per_item:1
        ~init:(fun () -> Array.make_matrix n_assign n_corr 0)
        ~f:(fun m t stream ->
          let a = t / runs_per_point in
          let run = Announced.run_once setup ~protocol ~adversary ~x:xs.(a) (stream 0) in
          for k = 0 to n_corr - 1 do
            if Bitvec.get run.Announced.w corrupted_arr.(k) then m.(a).(k) <- m.(a).(k) + 1
          done)
        ~merge:(fun ~into m ->
          Array.iteri (fun a row -> Array.iteri (fun k c -> into.(a).(k) <- into.(a).(k) + c) row) m)
        (Rng.create setup.Setup.seed)
    in
    let estimates =
      List.mapi
        (fun a assignment ->
          ( assignment,
            List.mapi
              (fun k i ->
                (i, Sb_stats.Estimate.wilson ~z:1.96 ~successes:counts.(a).(k) runs_per_point))
              corrupted ))
        assignments
    in
    let pairs =
      match pair_mode with
      | `Flip ->
          (* Single-bit-flip pairs: the hybrid steps of the proofs. *)
          List.concat_map
            (fun (a, est_a) ->
              List.concat_map
                (fun (b, est_b) ->
                  let diff = a lxor b in
                  if b > a && diff land (diff - 1) = 0 then [ ((a, est_a), (b, est_b)) ]
                  else [])
                estimates)
            estimates
      | `Star -> (
          (* Every assignment against the zeroed one: E vs E0 of
             Definition B.1. *)
          match List.assoc_opt 0 estimates with
          | None -> []
          | Some est_zero ->
              List.filter_map
                (fun (a, est_a) ->
                  if a = 0 then None else Some ((a, est_a), (0, est_zero)))
                estimates)
    in
    let findings =
      List.concat_map
        (fun ((a, est_a), (b, est_b)) ->
          List.map
            (fun (i, ia) ->
              let ib = List.assoc i est_b in
              let gap = Sb_stats.Estimate.interval_abs_diff ia ib in
              {
                corrupted_party = i;
                r = full_vector a;
                s = full_vector b;
                gap;
                verdict = Sb_stats.Verdict.of_gap gap;
              })
            est_a)
        pairs
    in
    let worst =
      List.fold_left
        (fun acc f ->
          match acc with
          | Some best when best.gap.Sb_stats.Estimate.point >= f.gap.Sb_stats.Estimate.point ->
              acc
          | _ -> Some f)
        None findings
    in
    let verdict =
      if findings = [] then Sb_stats.Verdict.Inconclusive
      else Sb_stats.Verdict.all_pass (List.map (fun (f : finding) -> f.verdict) findings)
    in
    { findings; worst; verdict }
  end

let run = run_with ~pair_mode:`Flip
let run_star = run_with ~pair_mode:`Star
