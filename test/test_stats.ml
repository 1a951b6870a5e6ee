(* Tests for sb_stats: Wilson intervals, interval arithmetic, verdicts,
   counting tables and the event-pair gap estimator. *)

open Sb_stats

let test_wilson_contains_point () =
  let i = Estimate.wilson ~successes:30 100 in
  Alcotest.(check bool) "point inside" true (i.Estimate.lo <= 0.3 && 0.3 <= i.Estimate.hi);
  Alcotest.(check (float 1e-9)) "point" 0.3 i.Estimate.point

let test_wilson_extremes () =
  let z = Estimate.wilson ~successes:0 50 in
  Alcotest.(check (float 1e-9)) "zero point" 0.0 z.Estimate.point;
  Alcotest.(check bool) "lo clamped" true (z.Estimate.lo >= 0.0);
  Alcotest.(check bool) "hi above zero" true (z.Estimate.hi > 0.0);
  let o = Estimate.wilson ~successes:50 50 in
  Alcotest.(check bool) "hi clamped" true (o.Estimate.hi <= 1.0);
  Alcotest.(check bool) "lo below one" true (o.Estimate.lo < 1.0)

let test_wilson_shrinks_with_n () =
  let width i = i.Estimate.hi -. i.Estimate.lo in
  let small = Estimate.wilson ~successes:50 100 in
  let large = Estimate.wilson ~successes:5000 10000 in
  Alcotest.(check bool) "narrower at larger n" true (width large < width small)

let test_wilson_z_monotone () =
  let width i = i.Estimate.hi -. i.Estimate.lo in
  let narrow = Estimate.wilson ~z:1.0 ~successes:40 100 in
  let wide = Estimate.wilson ~z:3.0 ~successes:40 100 in
  Alcotest.(check bool) "wider at larger z" true (width wide > width narrow)

let test_wilson_rejects_bad () =
  Alcotest.check_raises "no trials" (Invalid_argument "Estimate.wilson: no trials") (fun () ->
      ignore (Estimate.wilson ~successes:0 0));
  Alcotest.check_raises "bad successes" (Invalid_argument "Estimate.wilson: bad successes")
    (fun () -> ignore (Estimate.wilson ~successes:5 3))

let test_interval_abs_diff () =
  let a = Estimate.wilson ~successes:500 1000 in
  let b = Estimate.wilson ~successes:500 1000 in
  let d = Estimate.interval_abs_diff a b in
  Alcotest.(check (float 1e-9)) "same estimate point" 0.0 d.Estimate.point;
  Alcotest.(check (float 1e-9)) "straddles zero -> lo 0" 0.0 d.Estimate.lo;
  let c = Estimate.wilson ~successes:900 1000 in
  let d2 = Estimate.interval_abs_diff a c in
  Alcotest.(check bool) "separated -> lo positive" true (d2.Estimate.lo > 0.0);
  Alcotest.(check (float 1e-9)) "point is difference" 0.4 d2.Estimate.point

let test_correlation_gap_independent () =
  (* joint = left * right exactly: gap point 0, interval straddling 0. *)
  let joint = Estimate.wilson ~successes:2500 10000 in
  let half = Estimate.wilson ~successes:5000 10000 in
  let g = Estimate.correlation_gap ~joint ~left:half ~right:half in
  Alcotest.(check (float 1e-9)) "gap point" 0.0 g.Estimate.point;
  Alcotest.(check (float 1e-9)) "gap lo" 0.0 g.Estimate.lo;
  Alcotest.(check bool) "gap hi small" true (g.Estimate.hi < 0.05)

let test_correlation_gap_dependent () =
  (* A = B: joint = 1/2, product = 1/4, gap = 1/4. *)
  let joint = Estimate.wilson ~successes:5000 10000 in
  let half = Estimate.wilson ~successes:5000 10000 in
  let g = Estimate.correlation_gap ~joint ~left:half ~right:half in
  Alcotest.(check (float 1e-9)) "gap point" 0.25 g.Estimate.point;
  Alcotest.(check bool) "clearly nonzero" true (g.Estimate.lo > 0.2)

let test_verdict_thresholds () =
  let iv point lo hi = { Estimate.point; lo; hi; trials = 1000 } in
  Alcotest.(check bool) "pass" true (Verdict.of_gap (iv 0.01 0.0 0.03) = Verdict.Pass);
  Alcotest.(check bool) "fail" true (Verdict.of_gap (iv 0.25 0.22 0.28) = Verdict.Fail);
  Alcotest.(check bool) "inconclusive" true
    (Verdict.of_gap (iv 0.1 0.05 0.14) = Verdict.Inconclusive);
  Alcotest.(check bool) "pass bound is strict" true
    (Verdict.of_gap (iv 0.05 0.02 0.08) = Verdict.Inconclusive);
  Alcotest.(check bool) "fail bound is strict" true
    (Verdict.of_gap (iv 0.2 0.15 0.25) = Verdict.Inconclusive)

let test_verdict_combinators () =
  let open Verdict in
  Alcotest.(check bool) "all pass" true (all_pass [ Pass; Pass ] = Pass);
  Alcotest.(check bool) "any fail dominates" true (all_pass [ Pass; Fail; Inconclusive ] = Fail);
  Alcotest.(check bool) "inconclusive" true (all_pass [ Pass; Inconclusive ] = Inconclusive);
  Alcotest.(check bool) "empty all pass" true (all_pass [] = Pass);
  Alcotest.(check string) "to_string" "PASS" (to_string Pass)

let test_counts_table () =
  let t = Counts.create 2 in
  let v = Sb_util.Bitvec.of_string "10" in
  Counts.add t v;
  Counts.add t v;
  Counts.add t (Sb_util.Bitvec.of_string "01");
  (* Counts and total read through the plug-in distance: the table is
     2/3 on "10" and 1/3 on "01". *)
  let point = Counts.create 2 in
  Counts.add point v;
  Alcotest.(check (float 1e-9)) "distance to its mode" (1.0 /. 3.0) (Counts.empirical_tvd t point);
  Alcotest.(check (float 1e-9)) "self" 0.0 (Counts.empirical_tvd t t)

let test_empirical_tvd () =
  let a = Counts.create 1 and b = Counts.create 1 in
  let zero = Sb_util.Bitvec.of_string "0" and one = Sb_util.Bitvec.of_string "1" in
  for _ = 1 to 50 do
    Counts.add a zero;
    Counts.add b one
  done;
  Alcotest.(check (float 1e-9)) "disjoint" 1.0 (Counts.empirical_tvd a b);
  Alcotest.(check (float 1e-9)) "self" 0.0 (Counts.empirical_tvd a a)

let test_event_pair_gap () =
  let e = Counts.event_pair () in
  (* Perfectly correlated events. *)
  for i = 1 to 1000 do
    let b = i mod 2 = 0 in
    Counts.record e ~a:b ~b
  done;
  let g = Counts.gap e in
  Alcotest.(check (float 1e-6)) "correlated gap" 0.25 g.Estimate.point;
  Alcotest.(check int) "trials" 1000 g.Estimate.trials

(* --- chi-square ------------------------------------------------------ *)

let test_chi2_survival_reference () =
  (* The p-value against closed forms of P(X^2_k >= x): erfc (sqrt (x/2))
     for k = 1, exp (-x/2) for k = 2 and exp (-x/2) (1 + x/2) for k = 4,
     on statistics from ~0.1 up to ~30, across both branches of the
     incomplete-gamma evaluation. *)
  let closed = function
    | 1 -> fun x -> Float.erfc (Float.sqrt (x /. 2.0))
    | 2 -> fun x -> Float.exp (-.x /. 2.0)
    | _ -> fun x -> Float.exp (-.x /. 2.0) *. (1.0 +. (x /. 2.0))
  in
  List.iter
    (fun groups ->
      let r = Chi2.homogeneity groups in
      Alcotest.(check (float 1e-8))
        (Printf.sprintf "k=%d x=%g" r.Chi2.dof r.Chi2.statistic)
        (closed r.Chi2.dof r.Chi2.statistic) r.Chi2.p_value)
    [
      [ (50, 100); (53, 100) ];
      [ (50, 100); (64, 100) ];
      [ (20, 100); (60, 100) ];
      [ (50, 100); (45, 100); (60, 100) ];
      [ (50, 100); (30, 100); (70, 100) ];
      [ (50, 100); (52, 100); (47, 100); (55, 100); (49, 100) ];
      [ (50, 100); (30, 100); (70, 100); (40, 100); (65, 100) ];
    ];
  Alcotest.(check (float 1e-9)) "x=0" 1.0
    (Chi2.homogeneity [ (50, 100); (50, 100); (50, 100); (50, 100) ]).Chi2.p_value

let test_chi2_homogeneous_groups () =
  (* Identical proportions: tiny statistic, large p. *)
  let r = Chi2.homogeneity [ (50, 100); (51, 100); (49, 100); (50, 100) ] in
  Alcotest.(check int) "dof" 3 r.Chi2.dof;
  Alcotest.(check bool) "small statistic" true (r.Chi2.statistic < 1.0);
  Alcotest.(check bool) "large p" true (r.Chi2.p_value > 0.5)

let test_chi2_heterogeneous_groups () =
  (* Wildly different proportions: enormous statistic, p ~ 0. *)
  let r = Chi2.homogeneity [ (90, 100); (10, 100) ] in
  Alcotest.(check bool) "large statistic" true (r.Chi2.statistic > 100.0);
  Alcotest.(check bool) "p ~ 0" true (r.Chi2.p_value < 1e-10)

let test_chi2_rejects_bad_input () =
  Alcotest.check_raises "one group" (Invalid_argument "Chi2.homogeneity: need at least 2 groups")
    (fun () -> ignore (Chi2.homogeneity [ (1, 2) ]));
  Alcotest.check_raises "bad group" (Invalid_argument "Chi2.homogeneity: bad group") (fun () ->
      ignore (Chi2.homogeneity [ (3, 2); (1, 2) ]))

let qcheck_chi2_survival_monotone =
  QCheck.Test.make ~name:"chi2 survival decreasing in x" ~count:100
    QCheck.(pair (int_range 1 8) (pair (int_range 0 1000) (int_range 0 1000)))
    (fun (k, (a, b)) ->
      (* Two tables with k + 1 groups of 100 trials at the same dof:
         the larger statistic must read the smaller p-value. *)
      let groups seed = List.init (k + 1) (fun i -> (10 + ((seed * (i + 7)) mod 81), 100)) in
      let ra = Chi2.homogeneity (groups a) and rb = Chi2.homogeneity (groups b) in
      let lo, hi = if ra.Chi2.statistic <= rb.Chi2.statistic then (ra, rb) else (rb, ra) in
      hi.Chi2.p_value <= lo.Chi2.p_value +. 1e-9)

let qcheck_wilson_monotone_in_successes =
  QCheck.Test.make ~name:"wilson point monotone in successes" ~count:100
    QCheck.(pair (int_range 0 99) (int_range 100 1000))
    (fun (s, n) ->
      let a = Estimate.wilson ~successes:s n in
      let b = Estimate.wilson ~successes:(s + 1) n in
      b.Estimate.point > a.Estimate.point)

let qcheck_wilson_interval_ordering =
  QCheck.Test.make ~name:"wilson lo <= point <= hi" ~count:200
    QCheck.(pair (int_range 0 100) (int_range 1 1000))
    (fun (s, n) ->
      let s = min s n in
      let i = Estimate.wilson ~successes:s n in
      i.Estimate.lo <= i.Estimate.point +. 1e-9 && i.Estimate.point <= i.Estimate.hi +. 1e-9)

let qcheck_gap_interval_sound =
  QCheck.Test.make ~name:"abs diff interval contains true diff" ~count:200
    QCheck.(pair (pair (int_range 0 50) (int_range 0 50)) (int_range 60 200))
    (fun ((sa, sb), n) ->
      let a = Estimate.wilson ~successes:sa n and b = Estimate.wilson ~successes:sb n in
      let d = Estimate.interval_abs_diff a b in
      let truth = Float.abs (a.Estimate.point -. b.Estimate.point) in
      d.Estimate.lo <= truth +. 1e-9 && truth <= d.Estimate.hi +. 1e-9)

let () =
  Alcotest.run "sb_stats"
    [
      ( "wilson",
        [
          Alcotest.test_case "contains point" `Quick test_wilson_contains_point;
          Alcotest.test_case "extremes clamped" `Quick test_wilson_extremes;
          Alcotest.test_case "shrinks with n" `Quick test_wilson_shrinks_with_n;
          Alcotest.test_case "z monotone" `Quick test_wilson_z_monotone;
          Alcotest.test_case "rejects bad input" `Quick test_wilson_rejects_bad;
          QCheck_alcotest.to_alcotest qcheck_wilson_monotone_in_successes;
          QCheck_alcotest.to_alcotest qcheck_wilson_interval_ordering;
        ] );
      ( "intervals",
        [
          Alcotest.test_case "abs diff" `Quick test_interval_abs_diff;
          Alcotest.test_case "correlation gap independent" `Quick test_correlation_gap_independent;
          Alcotest.test_case "correlation gap dependent" `Quick test_correlation_gap_dependent;
          QCheck_alcotest.to_alcotest qcheck_gap_interval_sound;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "thresholds" `Quick test_verdict_thresholds;
          Alcotest.test_case "combinators" `Quick test_verdict_combinators;
        ] );
      ( "counts",
        [
          Alcotest.test_case "table" `Quick test_counts_table;
          Alcotest.test_case "empirical tvd" `Quick test_empirical_tvd;
          Alcotest.test_case "event pair gap" `Quick test_event_pair_gap;
        ] );
      ( "chi2",
        [
          Alcotest.test_case "survival reference values" `Quick test_chi2_survival_reference;
          Alcotest.test_case "homogeneous groups" `Quick test_chi2_homogeneous_groups;
          Alcotest.test_case "heterogeneous groups" `Quick test_chi2_heterogeneous_groups;
          Alcotest.test_case "bad input" `Quick test_chi2_rejects_bad_input;
          QCheck_alcotest.to_alcotest qcheck_chi2_survival_monotone;
        ] );
    ]
