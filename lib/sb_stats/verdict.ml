type t = Pass | Fail | Inconclusive

let of_gap (i : Estimate.interval) =
  if i.Estimate.hi < 0.08 then Pass
  else if i.Estimate.lo > 0.15 then Fail
  else Inconclusive

let all_pass verdicts =
  if List.exists (fun v -> v = Fail) verdicts then Fail
  else if List.for_all (fun v -> v = Pass) verdicts then Pass
  else Inconclusive

let to_string = function Pass -> "PASS" | Fail -> "FAIL" | Inconclusive -> "INCONCLUSIVE"

let equal a b = a = b
