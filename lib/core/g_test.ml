open Sb_util

type finding = {
  corrupted_party : int;
  bucket : Bitvec.t;
  cond : Sb_stats.Estimate.interval;
  gap : Sb_stats.Estimate.interval;
  verdict : Sb_stats.Verdict.t;
}

type result = {
  findings : finding list;
  worst : finding option;
  worst_pair : (Bitvec.t * Bitvec.t * float) option;
  chi2 : (int * Sb_stats.Chi2.result) list;
  verdict : Sb_stats.Verdict.t;
  buckets_used : int;
  buckets_skipped : int;
}

let run setup ~protocol ~adversary ~dist () =
  let n = setup.Setup.n in
  let min_bucket = max 50 (setup.Setup.samples / 200) in
  let corrupted = Announced.corrupted_of setup ~protocol ~adversary in
  let honest = Subset.complement n corrupted in
  (* Bucket runs by the honest announced sub-vector; per bucket, count
     runs and, per corrupted party, announced ones. Each chunk fills
     its own table; the barrier merge sums them, so totals are exact
     and independent of the chunking. *)
  let key_of w =
    let bits = Bitvec.proj w honest in
    Bitvec.to_int (Bitvec.of_bools bits)
  in
  let record (buckets : (int, int ref * (int, int ref) Hashtbl.t) Hashtbl.t) _index run =
    let key = key_of run.Announced.w in
    let total, ones =
      match Hashtbl.find_opt buckets key with
      | Some pair -> pair
      | None ->
          let pair = (ref 0, Hashtbl.create 4) in
          Hashtbl.replace buckets key pair;
          pair
    in
    incr total;
    List.iter
      (fun i ->
        if Bitvec.get run.Announced.w i then begin
          let c =
            match Hashtbl.find_opt ones i with
            | Some c -> c
            | None ->
                let c = ref 0 in
                Hashtbl.replace ones i c;
                c
          in
          incr c
        end)
      corrupted
  in
  let merge ~into src =
    Hashtbl.iter
      (fun key (s_total, s_ones) ->
        let total, ones =
          match Hashtbl.find_opt into key with
          | Some pair -> pair
          | None ->
              let pair = (ref 0, Hashtbl.create 4) in
              Hashtbl.replace into key pair;
              pair
        in
        total := !total + !s_total;
        Hashtbl.iter
          (fun i s_c ->
            match Hashtbl.find_opt ones i with
            | Some c -> c := !c + !s_c
            | None -> Hashtbl.replace ones i (ref !s_c))
          s_ones)
      src
  in
  let rng = Rng.create setup.Setup.seed in
  let buckets =
    Announced.psample setup ~protocol ~adversary ~dist
      ~init:(fun () -> Hashtbl.create 32)
      ~f:record ~merge rng
  in
  let usable, skipped =
    Hashtbl.fold
      (fun key (total, ones) (u, s) ->
        if !total >= min_bucket then ((key, !total, ones) :: u, s) else (u, s + 1))
      buckets ([], 0)
  in
  let usable = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) usable in
  let m = List.length honest in
  let per_party =
    List.map
      (fun i ->
        let bucket_stats =
          List.map
            (fun (key, total, ones) ->
              let successes = match Hashtbl.find_opt ones i with Some c -> !c | None -> 0 in
              (key, successes, total))
            usable
        in
        let pooled_s = List.fold_left (fun acc (_, s, _) -> acc + s) 0 bucket_stats in
        let pooled_n = List.fold_left (fun acc (_, _, t) -> acc + t) 0 bucket_stats in
        let pooled =
          if pooled_n = 0 then None
          else Some (Sb_stats.Estimate.wilson ~z:1.96 ~successes:pooled_s pooled_n)
        in
        (i, bucket_stats, pooled))
      corrupted
  in
  let findings =
    List.concat_map
      (fun (i, bucket_stats, pooled) ->
        match pooled with
        | None -> []
        | Some pooled ->
            List.map
              (fun (key, successes, total) ->
                let cond = Sb_stats.Estimate.wilson ~z:1.96 ~successes total in
                let gap = Sb_stats.Estimate.interval_abs_diff cond pooled in
                {
                  corrupted_party = i;
                  bucket = Bitvec.of_int m key;
                  cond;
                  gap;
                  verdict = Sb_stats.Verdict.of_gap gap;
                })
              bucket_stats)
      per_party
  in
  (* Raw pairwise maximum, for reporting (Definition 4.4 verbatim). *)
  let worst_pair =
    List.fold_left
      (fun acc (_, bucket_stats, _) ->
        let points =
          List.map (fun (key, s, t) -> (key, float_of_int s /. float_of_int t)) bucket_stats
        in
        List.fold_left
          (fun acc (k1, p1) ->
            List.fold_left
              (fun acc (k2, p2) ->
                let gap = Float.abs (p1 -. p2) in
                if k1 < k2 then
                  match acc with
                  | Some (_, _, best) when best >= gap -> acc
                  | _ -> Some (Bitvec.of_int m k1, Bitvec.of_int m k2, gap)
                else acc)
              acc points)
          acc points)
      None per_party
  in
  let worst =
    List.fold_left
      (fun acc f ->
        match acc with
        | Some best when best.gap.Sb_stats.Estimate.point >= f.gap.Sb_stats.Estimate.point -> acc
        | _ -> Some f)
      None findings
  in
  (* Global homogeneity statistic per corrupted party (buckets with
     expected counts below 5 are dropped per the validity rule). *)
  let chi2 =
    List.filter_map
      (fun (i, bucket_stats, pooled) ->
        match pooled with
        | None -> None
        | Some pooled ->
            let p = pooled.Sb_stats.Estimate.point in
            let groups =
              List.filter
                (fun (_, _, t) ->
                  let t = float_of_int t in
                  t *. p >= 5.0 && t *. (1.0 -. p) >= 5.0)
                bucket_stats
              |> List.map (fun (_, s, t) -> (s, t))
            in
            if List.length groups >= 2 then Some (i, Sb_stats.Chi2.homogeneity groups)
            else None)
      per_party
  in
  let verdict =
    if corrupted = [] then Sb_stats.Verdict.Pass
    else if List.length usable <= 1 && skipped = 0 then
      (* A single honest outcome ever occurs: the ∀ r,s quantifier is
         vacuous (e.g. singleton input distributions). *)
      Sb_stats.Verdict.Pass
    else if findings = [] then Sb_stats.Verdict.Inconclusive
    else Sb_stats.Verdict.all_pass (List.map (fun (f : finding) -> f.verdict) findings)
  in
  {
    findings;
    worst;
    worst_pair;
    chi2;
    verdict;
    buckets_used = List.length usable;
    buckets_skipped = skipped;
  }
