open Sb_util

type finding = {
  honest_party : int;
  predicate : string;
  gap : Sb_stats.Estimate.interval;
  verdict : Sb_stats.Verdict.t;
}

type result = {
  findings : finding list;
  worst : finding option;
  verdict : Sb_stats.Verdict.t;
  inconsistent_runs : int;
}

(* Per-chunk accumulator: the event counters plus reusable scratch
   buffers, so the per-sample loop allocates nothing. *)
type acc = {
  counters : (int * (Predicate.t * Sb_stats.Counts.event) list) list;
  mutable inconsistent : int;
  w_buf : bool array;    (* length n: the announced vector of this run *)
  red_buf : bool array;  (* length n-1: w with one honest index dropped *)
}

let run setup ~protocol ~adversary ~dist =
  let n = setup.Setup.n in
  let predicates = Predicate.battery ~n in
  let corrupted = Announced.corrupted_of setup ~protocol ~adversary in
  let honest = Subset.complement n corrupted in
  (* One event-pair counter per (honest i, predicate). *)
  let init () =
    {
      counters =
        List.map
          (fun i -> (i, List.map (fun p -> (p, Sb_stats.Counts.event_pair ())) predicates))
          honest;
      inconsistent = 0;
      w_buf = Array.make n false;
      red_buf = Array.make (max 0 (n - 1)) false;
    }
  in
  let record acc _index run =
    if not run.Announced.consistent then acc.inconsistent <- acc.inconsistent + 1;
    for j = 0 to n - 1 do
      acc.w_buf.(j) <- Bitvec.get run.Announced.w j
    done;
    List.iter
      (fun (i, per_pred) ->
        let wi_zero = not acc.w_buf.(i) in
        let k = ref 0 in
        for j = 0 to n - 1 do
          if j <> i then begin
            acc.red_buf.(!k) <- acc.w_buf.(j);
            incr k
          end
        done;
        List.iter
          (fun ((p : Predicate.t), counter) ->
            Sb_stats.Counts.record counter ~a:wi_zero ~b:(p.Predicate.eval acc.red_buf))
          per_pred)
      acc.counters
  in
  let merge ~into src =
    into.inconsistent <- into.inconsistent + src.inconsistent;
    List.iter2
      (fun (_, into_preds) (_, src_preds) ->
        List.iter2
          (fun (_, into_ev) (_, src_ev) -> Sb_stats.Counts.event_merge_into ~into:into_ev src_ev)
          into_preds src_preds)
      into.counters src.counters
  in
  let rng = Rng.create setup.Setup.seed in
  let acc =
    Announced.psample setup ~protocol ~adversary ~dist ~init ~f:record ~merge rng
  in
  let counters = acc.counters and inconsistent = ref acc.inconsistent in
  let findings =
    List.concat_map
      (fun (i, per_pred) ->
        List.map
          (fun ((p : Predicate.t), counter) ->
            let gap = Sb_stats.Counts.gap counter in
            {
              honest_party = i;
              predicate = p.Predicate.name;
              gap;
              verdict = Sb_stats.Verdict.of_gap gap;
            })
          per_pred)
      counters
  in
  let worst =
    List.fold_left
      (fun acc f ->
        match acc with
        | Some best when best.gap.Sb_stats.Estimate.point >= f.gap.Sb_stats.Estimate.point -> acc
        | _ -> Some f)
      None findings
  in
  {
    findings;
    worst;
    verdict = Sb_stats.Verdict.all_pass (List.map (fun (f : finding) -> f.verdict) findings);
    inconsistent_runs = !inconsistent;
  }
