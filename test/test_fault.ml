(* Tests for sb_fault: the plan DSL (parse/print/validate), the
   compiled interceptor's per-fault semantics on hand-built envelope
   lists, end-to-end resilience facts (Dolev-Strong under every crash
   subset, the Bracha/EIG n/3 flips), fault counters, and jobs-count
   invariance of measured cells. *)

open Sb_sim
open Sb_fault

let msg = Msg.Bit true

(* --- plan DSL ------------------------------------------------------ *)

let example = "crash:4@1;drop:0.1;delay:2:0->3;part:0,1|2,3,4@2-5"

let test_plan_roundtrip () =
  match Plan.of_string example with
  | Error e -> Alcotest.failf "example does not parse: %s" e
  | Ok plan ->
      Alcotest.(check string) "prints back" example (Plan.to_string plan);
      Alcotest.(check bool) "validates at n=5" true (Plan.validate ~n:5 plan = Ok ());
      Alcotest.(check (list int)) "crashed parties" [ 4 ] (Plan.crashed_parties plan);
      (match Plan.of_string (Plan.to_string plan) with
      | Ok plan' -> Alcotest.(check bool) "round-trips" true (plan = plan')
      | Error e -> Alcotest.failf "reparse failed: %s" e);
      Alcotest.(check bool) "empty plan" true (Plan.of_string "" = Ok [])

(* Round-scoped drops and delays — the checker's counterexample form. *)
let test_plan_round_scopes () =
  let example = "drop:1:2->0@1;delay:1:2->*@2;drop:0.5@0" in
  (match Plan.of_string example with
  | Error e -> Alcotest.failf "scoped example does not parse: %s" e
  | Ok plan ->
      Alcotest.(check string) "prints back" example (Plan.to_string plan);
      Alcotest.(check bool) "validates at n=3" true (Plan.validate ~n:3 plan = Ok ());
      Alcotest.(check bool) "scoped constructors match"
        true
        (plan
        = [
            Plan.drop ~src:2 ~dst:0 ~at:1 1.0;
            Plan.delay ~src:2 ~at:2 1;
            Plan.drop ~at:0 0.5;
          ]));
  (match Plan.of_string "drop:1:0->1@x" with
  | Ok _ -> Alcotest.fail "non-numeric round scope parsed"
  | Error _ -> ());
  match Plan.validate ~n:4 [ Plan.drop ~at:(-1) 1.0 ] with
  | Ok () -> Alcotest.fail "negative round scope validated"
  | Error _ -> ()

let test_plan_parse_errors () =
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      "boom:1@2";          (* unknown kind *)
      "crash:1";           (* missing @round *)
      "drop:x";            (* non-numeric rate *)
      "delay:2:0>3";       (* malformed link *)
      "part:0,1@2-5";      (* single group *)
      "crash";             (* no ':' *)
    ]

let test_plan_validate_errors () =
  List.iter
    (fun plan ->
      match Plan.validate ~n:4 plan with
      | Ok () -> Alcotest.failf "%s should not validate at n=4" (Plan.to_string plan)
      | Error _ -> ())
    [
      [ Plan.crash ~party:4 ~round:0 ];
      [ Plan.crash ~party:0 ~round:(-1) ];
      [ Plan.drop 1.5 ];
      [ Plan.drop ~src:9 0.5 ];
      [ Plan.delay 0 ];
      [ Plan.partition ~groups:[ [ 0; 1 ]; [ 1; 2 ] ] ~first:0 ~last:3 ];
      [ Plan.partition ~groups:[ [ 0 ]; [ 1 ] ] ~first:3 ~last:1 ];
    ]

(* --- interceptor semantics ----------------------------------------- *)

let interceptor plan = Inject.compile ~n:4 plan ~rng:(Sb_util.Rng.create 11)

let p2p ~src ~dst = Envelope.make ~src ~dst msg

let test_crash_silences_everything () =
  let f = interceptor [ Plan.crash ~party:1 ~round:2 ] in
  let traffic =
    [ p2p ~src:1 ~dst:0; Envelope.broadcast ~src:1 msg; Envelope.to_func ~src:1 msg;
      p2p ~src:0 ~dst:1 ]
  in
  Alcotest.(check int) "pre-crash round passes" 4 (List.length (f ~round:1 traffic));
  Alcotest.(check (list bool))
    "from round 2 only the other party's envelope survives"
    [ false; false; false; true ]
    (List.map (fun e -> List.mem e (f ~round:2 traffic)) traffic)

let test_drop_spares_model_channels () =
  (* Certain drop: every distinct-endpoint p2p envelope dies, but
     self-delivery, the broadcast channel, and the functionality
     channel are model primitives and pass untouched. *)
  let f = interceptor [ Plan.drop 1.0 ] in
  let kept =
    f ~round:0
      [ p2p ~src:0 ~dst:2; p2p ~src:2 ~dst:2; Envelope.broadcast ~src:3 msg;
        Envelope.to_func ~src:1 msg; Envelope.from_func ~dst:1 msg ]
  in
  Alcotest.(check int) "four of five survive" 4 (List.length kept);
  Alcotest.(check bool) "the p2p link is the casualty" false
    (List.mem (p2p ~src:0 ~dst:2) kept)

let test_drop_link_restriction () =
  let f = interceptor [ Plan.drop ~src:0 ~dst:2 1.0 ] in
  let kept = f ~round:0 [ p2p ~src:0 ~dst:2; p2p ~src:2 ~dst:0; p2p ~src:0 ~dst:1 ] in
  Alcotest.(check bool) "0->2 dropped" false (List.mem (p2p ~src:0 ~dst:2) kept);
  Alcotest.(check bool) "2->0 kept" true (List.mem (p2p ~src:2 ~dst:0) kept);
  Alcotest.(check bool) "0->1 kept" true (List.mem (p2p ~src:0 ~dst:1) kept)

let test_delay_holds_and_releases () =
  let f = interceptor [ Plan.delay ~src:0 2 ] in
  let e1 = p2p ~src:0 ~dst:1 and e2 = p2p ~src:0 ~dst:2 in
  Alcotest.(check int) "held at the send round" 0 (List.length (f ~round:0 [ e1; e2 ]));
  Alcotest.(check int) "still in flight" 0 (List.length (f ~round:1 []));
  Alcotest.(check bool) "released as if sent 2 rounds later, in order" true
    (f ~round:2 [] = [ e1; e2 ]);
  Alcotest.(check int) "released only once" 0 (List.length (f ~round:3 []))

let test_round_scoped_drop_and_delay () =
  (* @R restricts a rule to envelopes sent in exactly that round. *)
  let f = interceptor [ Plan.drop ~src:0 ~at:1 1.0 ] in
  let e = p2p ~src:0 ~dst:1 in
  Alcotest.(check bool) "other rounds untouched" true (f ~round:0 [ e ] = [ e ]);
  Alcotest.(check int) "scoped round dropped" 0 (List.length (f ~round:1 [ e ]));
  Alcotest.(check bool) "after the scope untouched" true (f ~round:2 [ e ] = [ e ]);
  let g = interceptor [ Plan.delay ~src:0 ~at:1 1 ] in
  Alcotest.(check bool) "delay out of scope passes" true (g ~round:0 [ e ] = [ e ]);
  Alcotest.(check int) "delay in scope holds" 0 (List.length (g ~round:1 [ e ]));
  Alcotest.(check bool) "released one round later" true (g ~round:2 [] = [ e ])

let test_partition_window () =
  let f = interceptor [ Plan.partition ~groups:[ [ 0; 1 ] ] ~first:1 ~last:2 ] in
  (* Parties 2 and 3 are unlisted: they form the implicit other side. *)
  let cross = p2p ~src:0 ~dst:2 and inside = p2p ~src:0 ~dst:1 and far = p2p ~src:2 ~dst:3 in
  Alcotest.(check int) "window closed before" 3 (List.length (f ~round:0 [ cross; inside; far ]));
  Alcotest.(check bool) "cross-group dropped inside the window" true
    (f ~round:1 [ cross; inside; far ] = [ inside; far ]);
  Alcotest.(check int) "window closed after" 3 (List.length (f ~round:3 [ cross; inside; far ]))

let test_first_matching_rule_wins () =
  (* Drop before delay in plan order: nothing survives to be delayed. *)
  let f = interceptor [ Plan.drop 1.0; Plan.delay 1 ] in
  Alcotest.(check int) "dropped" 0 (List.length (f ~round:0 [ p2p ~src:0 ~dst:1 ]));
  Alcotest.(check int) "nothing was held" 0 (List.length (f ~round:1 []))

(* --- end-to-end ----------------------------------------------------- *)

let uniform n = Sb_dist.Dist.uniform n

let measure ?(samples = 40) ~setup ~protocol ~adversary ~dist plan =
  let setup = Core.Setup.with_samples samples setup in
  Core.Resilience.measure setup ~protocol ~adversary ~dist ~plan
    (Sb_util.Rng.create setup.Core.Setup.seed)

let check_point what expected (i : Sb_stats.Estimate.interval) =
  Alcotest.(check (float 0.0)) what expected i.Sb_stats.Estimate.point

let test_empty_plan_is_inert () =
  (* A present-but-empty interceptor must not perturb the seeded run:
     the fault stream is split only when the hook is installed, and an
     empty plan consumes no coins. *)
  let setup = Core.Setup.(with_n ~n:4 ~thresh:1 (with_samples 800 default)) in
  let protocol = Sb_protocols.Gennaro.protocol in
  let run ?faults () =
    let rng = Sb_util.Rng.create 33 in
    let ctx = Core.Setup.fresh_ctx setup (Sb_util.Rng.split rng) in
    let inputs = Array.init 4 (fun i -> Msg.Bit (i mod 2 = 0)) in
    Network.run ctx ~rng ~protocol
      ~adversary:(Adversary.passive protocol)
      ~inputs ?faults ()
  in
  let plain = run () in
  let faulted = run ~faults:(Inject.compile ~n:4 []) () in
  Alcotest.(check bool) "outputs identical" true
    (List.for_all2
       (fun (i, a) (j, b) -> i = j && Msg.equal a b)
       plain.Network.outputs faulted.Network.outputs)

let test_dolev_strong_any_crash_subset () =
  (* DS tolerates ANY t < n faults: with thresh = n-1, every non-empty
     crash pattern over n = 4 (sizes 1..3, staggered rounds) leaves
     the survivors in exact agreement. *)
  let setup = Core.Setup.(with_n ~n:4 ~thresh:3 (with_samples 800 default)) in
  let protocol = Sb_broadcast.Parallel.concurrent Sb_broadcast.Dolev_strong.scheme in
  let subsets =
    List.filter_map
      (fun mask ->
        let s = List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2; 3 ] in
        if s = [] || List.length s = 4 then None else Some s)
      (List.init 16 Fun.id)
  in
  List.iter
    (fun subset ->
      let plan = List.mapi (fun k p -> Plan.crash ~party:p ~round:(k + 1)) subset in
      let c =
        measure ~samples:20 ~setup ~protocol ~adversary:Core.Adversaries.passive
          ~dist:(uniform 4) plan
      in
      check_point
        (Printf.sprintf "agreement under crashes {%s}"
           (String.concat "," (List.map string_of_int subset)))
        1.0 c.Core.Resilience.agree)
    subsets

let test_bracha_flip_at_boundary () =
  let setup = Core.Setup.(with_n ~n:4 ~thresh:1 (with_samples 800 default)) in
  let protocol = Sb_broadcast.Parallel.concurrent Sb_broadcast.Bracha.scheme in
  let dist = Sb_dist.Dist.product 1.0 4 in
  let below =
    measure ~setup ~protocol ~adversary:Core.Resilience.bracha_flip ~dist []
  in
  check_point "1 corruption <= t: exact agreement" 1.0 below.Core.Resilience.agree;
  let above =
    measure ~setup ~protocol ~adversary:Core.Resilience.bracha_flip ~dist
      [ Plan.crash ~party:3 ~round:0 ]
  in
  check_point "1 corruption + 1 crash > n/3: exact disagreement" 0.0
    above.Core.Resilience.agree

let test_eig_flip_at_boundary () =
  let setup = Core.Setup.(with_n ~n:4 ~thresh:1 (with_samples 800 default)) in
  let protocol = Sb_broadcast.Parallel.concurrent Sb_broadcast.Eig.scheme in
  let dist = Sb_dist.Dist.product 1.0 4 in
  let below = measure ~setup ~protocol ~adversary:Core.Resilience.eig_flip ~dist [] in
  check_point "1 corruption <= t: exact agreement" 1.0 below.Core.Resilience.agree;
  let above =
    measure ~setup ~protocol ~adversary:Core.Resilience.eig_flip ~dist
      [ Plan.crash ~party:2 ~round:1 ]
  in
  check_point "1 corruption + 1 crash > n/3: exact disagreement" 0.0
    above.Core.Resilience.agree

(* --- counters ------------------------------------------------------- *)

(* Same discipline as test_obs: the metrics registry is process-global,
   so enablement is scoped and reset around each assertion. *)
let with_obs f =
  Sb_obs.Metrics.reset ();
  Sb_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Sb_obs.Metrics.set_enabled false;
      Sb_obs.Metrics.reset ())
    f

let counter name = Sb_obs.Metrics.counter_value (Sb_obs.Metrics.counter name)

let test_fault_counters () =
  let setup = Core.Setup.(with_n ~n:4 ~thresh:1 (with_samples 800 default)) in
  let protocol = Sb_broadcast.Parallel.concurrent Sb_broadcast.Send_echo.scheme in
  let samples = 25 in
  with_obs (fun () ->
      let _ =
        measure ~samples ~setup ~protocol ~adversary:Core.Adversaries.passive
          ~dist:(uniform 4)
          [ Plan.crash ~party:3 ~round:1; Plan.crash ~party:2 ~round:2 ]
      in
      Alcotest.(check int) "one crash tally per crashed party per run" (2 * samples)
        (counter "fault.crashes"));
  with_obs (fun () ->
      let _ =
        measure ~samples ~setup ~protocol ~adversary:Core.Adversaries.passive
          ~dist:(uniform 4) [ Plan.drop 0.5 ]
      in
      Alcotest.(check bool) "omissions are counted" true (counter "fault.drops" > 0);
      Alcotest.(check int) "no delays in a drop plan" 0 (counter "fault.delayed"));
  with_obs (fun () ->
      let _ =
        measure ~samples ~setup ~protocol ~adversary:Core.Adversaries.passive
          ~dist:(uniform 4) [ Plan.delay 1 ]
      in
      Alcotest.(check bool) "delays are counted" true (counter "fault.delayed" > 0);
      Alcotest.(check int) "no drops in a delay plan" 0 (counter "fault.drops"))

(* --- jobs invariance ------------------------------------------------ *)

let with_jobs j f =
  Sb_par.Pool.set_default_domains j;
  Fun.protect ~finally:(fun () -> Sb_par.Pool.set_default_domains 1) f

let test_cells_jobs_invariant () =
  (* The acceptance bar for the fault RNG discipline: a faulty cell is
     byte-identical at --jobs 1 and --jobs 4 for the same seed. *)
  let setup = Core.Setup.(with_n ~n:5 ~thresh:1 (with_samples 800 default)) in
  let protocol = Sb_broadcast.Parallel.concurrent Sb_broadcast.Bracha.scheme in
  let plan = [ Plan.drop 0.2; Plan.delay 1; Plan.crash ~party:4 ~round:1 ] in
  let cell () =
    measure ~samples:200 ~setup ~protocol ~adversary:Core.Adversaries.passive
      ~dist:(uniform 5) plan
  in
  let base = with_jobs 1 cell in
  List.iter
    (fun j ->
      let c = with_jobs j cell in
      Alcotest.(check bool)
        (Printf.sprintf "cell at jobs=%d identical to jobs=1" j)
        true (c = base))
    [ 2; 4 ]

let () =
  Alcotest.run "sb_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "round scopes" `Quick test_plan_round_scopes;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "validate errors" `Quick test_plan_validate_errors;
        ] );
      ( "interceptor",
        [
          Alcotest.test_case "crash silences everything" `Quick test_crash_silences_everything;
          Alcotest.test_case "drop spares model channels" `Quick test_drop_spares_model_channels;
          Alcotest.test_case "drop link restriction" `Quick test_drop_link_restriction;
          Alcotest.test_case "delay holds and releases" `Quick test_delay_holds_and_releases;
          Alcotest.test_case "round-scoped drop and delay" `Quick
            test_round_scoped_drop_and_delay;
          Alcotest.test_case "partition window" `Quick test_partition_window;
          Alcotest.test_case "first matching rule wins" `Quick test_first_matching_rule_wins;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "empty plan is inert" `Quick test_empty_plan_is_inert;
          Alcotest.test_case "dolev-strong under any crash subset" `Quick
            test_dolev_strong_any_crash_subset;
          Alcotest.test_case "bracha flips at n/3" `Quick test_bracha_flip_at_boundary;
          Alcotest.test_case "eig flips at n/3" `Quick test_eig_flip_at_boundary;
        ] );
      ( "observability",
        [
          Alcotest.test_case "fault counters" `Quick test_fault_counters;
          Alcotest.test_case "cells invariant across jobs" `Quick test_cells_jobs_invariant;
        ] );
    ]
