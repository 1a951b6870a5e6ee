(* sb_check: the exhaustive small-n model checker.

   The load-bearing facts pinned here: the standalone replay executor
   agrees with the real network (Network.run + Inject-compiled plans)
   on every schedule we throw at it, the checker's incremental search
   agrees with that executor at every state it reaches, state counts
   and witnesses are exactly as pinned, checker verdicts match the
   hand-derived exact cells recorded in Core.Resilience, emitted
   counterexamples are minimal and reproduce their violation when
   replayed through the --faults pipeline, and the whole thing is
   deterministic. *)

open Sb_sim
open Sb_check

let seed = 7

let ctx_for n t =
  let setup = Core.Setup.{ default with n; thresh = t; seed } in
  Core.Setup.fresh_ctx setup (Sb_util.Rng.split (Sb_util.Rng.create seed))

let scheme_exn name =
  match Checker.find_scheme name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scheme %s" name

(* A single broadcast session as a Protocol.t, so Network.run can
   drive exactly what Exec.replay simulates. *)
let single_session (scheme : Sb_broadcast.Session.scheme) ~sender ~value =
  {
    Protocol.name = "single-" ^ scheme.Sb_broadcast.Session.scheme_name;
    rounds = scheme.Sb_broadcast.Session.rounds;
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input:_ ->
        let s =
          scheme.Sb_broadcast.Session.create ctx ~rng ~sid:"chk" ~sender ~me:id
            ~value:(if id = sender then Some value else None)
        in
        { Party.step = s.Sb_broadcast.Session.step; output = s.Sb_broadcast.Session.result });
  }

let witness_of ~sender ~value ~faulty decisions =
  {
    Checker.w_property = Checker.Agreement;
    w_sender = sender;
    w_value = value;
    w_faulty = faulty;
    w_decisions = decisions;
  }

(* Run the same single session through the real network under the
   compiled plan of [decisions] and collect every party's result. *)
let network_results ctx scheme ~sender ~value ~faulty decisions =
  let n = ctx.Ctx.n in
  let plan = Checker.plan_of_witness (witness_of ~sender ~value ~faulty decisions) in
  let protocol = single_session scheme ~sender ~value in
  let inputs = Array.init n (fun i -> if i = sender then value else Msg.Bit false) in
  let r =
    Network.run ctx
      ~rng:(Sb_util.Rng.create seed)
      ~protocol
      ~adversary:(Adversary.passive protocol)
      ~inputs ~record_trace:false
      ~faults:(Sb_fault.Inject.compile ~n plan)
      ()
  in
  Array.init n (fun i -> List.assoc i r.Network.outputs)

let exec_results config decisions =
  let total = Exec.total_rounds config in
  let padded =
    decisions @ List.init (max 0 (total - List.length decisions)) (fun _ -> [])
  in
  match (Exec.replay config padded).Exec.status with
  | Exec.Terminal results -> results
  | Exec.Mid _ -> Alcotest.fail "padded replay did not terminate"

let msg = Alcotest.testable (Fmt.of_to_string Msg.serialize) Msg.equal

(* --- executor vs real network differential --------------------------- *)

let test_exec_matches_network () =
  let schedules p =
    [
      [];
      [ [ (p, Exec.Crash) ] ];
      [ [ (p, Exec.Omit) ] ];
      [ [ (p, Exec.Delay) ] ];
      [ []; [ (p, Exec.Omit) ] ];
      [ []; [ (p, Exec.Delay) ] ];
      [ []; [ (p, Exec.Crash) ] ];
      [ [ (p, Exec.Omit) ]; [ (p, Exec.Delay) ] ];
      [ [ (p, Exec.Delay) ]; []; [ (p, Exec.Omit) ] ];
      [ []; [ (p, Exec.Delay) ]; [ (p, Exec.Crash) ] ];
    ]
  in
  List.iter
    (fun name ->
      let scheme = scheme_exn name in
      let ctx = ctx_for 4 1 in
      List.iter
        (fun value ->
          List.iter
            (fun p ->
              List.iter
                (fun decisions ->
                  (* Schemes differ in round count; clip schedules that
                     outrun this one (dolev-strong has t+1 = 2). *)
                  let config =
                    { Exec.ctx; scheme; sender = 0; value; faulty = [ p ] }
                  in
                  let decisions =
                    List.filteri (fun i _ -> i < Exec.total_rounds config) decisions
                  in
                  let ex = exec_results config decisions in
                  let nw =
                    network_results ctx scheme ~sender:0 ~value ~faulty:[ p ] decisions
                  in
                  Alcotest.(check (array msg))
                    (Printf.sprintf "%s value=%s faulty=%d schedule=%d-entries" name
                       (Msg.serialize value) p (List.length decisions))
                    nw ex)
                (schedules p))
            [ 0; 3 ])
        [ Msg.Bit false; Msg.Bit true ])
    [ "bracha"; "dolev-strong"; "send-echo" ]

(* Two faulty parties acting in the same round, against the network. *)
let test_exec_matches_network_two_faulty () =
  let scheme = scheme_exn "bracha" in
  let ctx = ctx_for 4 2 in
  let decisions = [ [ (0, Exec.Omit); (3, Exec.Delay) ]; [ (3, Exec.Crash) ] ] in
  let config =
    { Exec.ctx; scheme; sender = 0; value = Msg.Bit true; faulty = [ 0; 3 ] }
  in
  let ex = exec_results config decisions in
  let nw =
    network_results ctx scheme ~sender:0 ~value:(Msg.Bit true) ~faulty:[ 0; 3 ] decisions
  in
  Alcotest.(check (array msg)) "joint schedule matches network" nw ex

(* --- checker verdicts ------------------------------------------------- *)

let verdict = Alcotest.testable (Fmt.of_to_string Checker.verdict_name) (fun a b ->
    Checker.verdict_name a = Checker.verdict_name b)

let test_bracha_below_boundary () =
  let r = Checker.check ~scheme:(scheme_exn "bracha") (ctx_for 4 1) in
  Alcotest.(check verdict) "agreement" Checker.Holds r.Checker.agreement;
  Alcotest.(check verdict) "validity" Checker.Holds r.Checker.validity;
  Alcotest.(check verdict) "unforgeability" Checker.Holds r.Checker.unforgeability;
  Alcotest.(check bool) "not capped" false r.Checker.capped;
  Alcotest.(check int) "explored states" 1376 r.Checker.stats.explored;
  Alcotest.(check int) "memo hits" 408 r.Checker.stats.memo_hits;
  Alcotest.(check int) "terminals" 496 r.Checker.stats.terminals

let test_bracha_above_boundary () =
  let r = Checker.check ~scheme:(scheme_exn "bracha") (ctx_for 4 2) in
  Alcotest.(check verdict) "agreement still holds" Checker.Holds r.Checker.agreement;
  Alcotest.(check verdict) "unforgeability still holds" Checker.Holds
    r.Checker.unforgeability;
  match r.Checker.validity with
  | Checker.Violated w ->
      (* Accepting needs 2t+1 = 5 > n = 4 readies: a true broadcast is
         lost with no faults injected at all. *)
      Alcotest.(check (list (list (pair int (Alcotest.testable (fun _ _ -> ()) ( = ))))))
        "fault-free minimal witness" [] w.Checker.w_decisions;
      Alcotest.(check (list int)) "no faulty party needed" [] w.Checker.w_faulty;
      Alcotest.(check msg) "true value lost" (Msg.Bit true) w.Checker.w_value
  | v -> Alcotest.failf "expected validity violation, got %s" (Checker.verdict_name v)

let test_exact_cells_differential () =
  List.iter
    (fun (c : Core.Resilience.exact_cell) ->
      let scheme = scheme_exn c.Core.Resilience.cell_protocol in
      let r = Checker.check ~scheme (ctx_for c.cell_n c.cell_t) in
      let point = Printf.sprintf "%s n=%d t=%d" c.cell_protocol c.cell_n c.cell_t in
      List.iter
        (fun (prop, expected, got) ->
          match expected with
          | None -> ()
          | Some holds ->
              let want = if holds then "pass" else "violated" in
              Alcotest.(check string)
                (Printf.sprintf "%s %s" point prop)
                want
                (Checker.verdict_name got))
        [
          ("agreement", c.exp_agreement, r.Checker.agreement);
          ("validity", c.exp_validity, r.Checker.validity);
          ("unforgeability", c.exp_unforgeability, r.Checker.unforgeability);
        ])
    Core.Resilience.exact_cells

(* Exact (explored, memo hits, terminals, configs) per cell. The
   search's visit order, memoization and early exits are all visible
   in these counts, so any drift in them is a behaviour change. *)
let pinned_counts =
  [
    ("send-echo", 4, 1, (288, 72, 160, 40));
    ("send-echo", 5, 1, (420, 110, 230, 60));
    ("send-echo", 5, 2, (2820, 2470, 1970, 160));
    ("send-echo", 3, 2, (732, 558, 516, 42));
    ("dolev-strong", 4, 1, (240, 72, 112, 40));
    ("dolev-strong", 5, 1, (360, 110, 170, 60));
    ("dolev-strong", 5, 2, (4220, 4420, 1450, 160));
    ("eig", 4, 1, (240, 72, 112, 40));
    ("eig", 5, 1, (360, 110, 170, 60));
    ("bracha", 4, 1, (1376, 408, 496, 40));
    ("bracha", 5, 1, (2050, 610, 750, 60));
    ("bracha", 4, 2, (10952, 10896, 4120, 88));
    ("phase-king", 4, 1, (2904, 780, 1180, 40));
    ("phase-king", 5, 1, (3952, 1090, 1560, 60));
  ]

let test_pinned_counts () =
  List.iter
    (fun (name, n, t, want) ->
      let s = (Checker.check ~scheme:(scheme_exn name) (ctx_for n t)).Checker.stats in
      Alcotest.(check (pair (pair int int) (pair int int)))
        (Printf.sprintf "%s %d/%d explored/memo/terminals/configs" name n t)
        (let e, m, tm, c = want in
         ((e, m), (tm, c)))
        ((s.Checker.explored, s.Checker.memo_hits), (s.Checker.terminals, s.Checker.configs)))
    pinned_counts

(* The minimized first witness per violated cell, in --faults form. *)
let test_pinned_witnesses () =
  List.iter
    (fun (name, n, t, want) ->
      let r = Checker.check ~scheme:(scheme_exn name) (ctx_for n t) in
      match r.Checker.validity with
      | Checker.Violated w ->
          let faults =
            match Sb_fault.Plan.to_string (Checker.plan_of_witness w) with
            | "" -> "<none>"
            | s -> s
          in
          Alcotest.(check string) (Printf.sprintf "%s %d/%d witness" name n t) want faults
      | v ->
          Alcotest.failf "%s %d/%d: expected validity violation, got %s" name n t
            (Checker.verdict_name v))
    [
      ("phase-king", 4, 1, "crash:0@1");
      ("bracha", 4, 2, "<none>");
      ("send-echo", 3, 2, "crash:0@1;crash:1@1");
    ]

(* The search expands each state from its parent; Exec.replay rebuilds
   it from round 0. At every state the search reaches, both must agree
   on the digest and, for expanded states, on the outgoing traffic or
   the terminal results. *)
let test_incremental_matches_replay () =
  List.iter
    (fun (name, n, t) ->
      let reached = ref 0 in
      let observe config prefix digest status =
        incr reached;
        let point =
          Printf.sprintf "%s %d/%d state %d (depth %d)" name n t !reached
            (List.length prefix)
        in
        let snap = Exec.replay config prefix in
        Alcotest.(check string) (point ^ " digest") snap.Exec.digest digest;
        match (status, snap.Exec.status) with
        | None, _ -> ()
        | Some (Exec.Terminal got), Exec.Terminal want ->
            Alcotest.(check (array msg)) (point ^ " results") want got
        | Some (Exec.Mid got), Exec.Mid want ->
            Alcotest.(check bool) (point ^ " outgoing") true (got = want)
        | Some _, _ -> Alcotest.failf "%s: terminal/mid status differs" point
      in
      let r = Checker.check ~observe ~scheme:(scheme_exn name) (ctx_for n t) in
      Alcotest.(check int)
        (Printf.sprintf "%s %d/%d observed every reached state" name n t)
        (r.Checker.stats.explored + r.Checker.stats.memo_hits)
        !reached)
    (List.map (fun (name, _) -> (name, 4, 1)) Checker.schemes
    @ [ ("send-echo", 3, 2); ("bracha", 4, 2) ])

let test_deterministic () =
  let run () = Checker.check ~scheme:(scheme_exn "send-echo") (ctx_for 3 2) in
  Alcotest.(check bool) "two runs structurally equal" true (run () = run ())

let test_state_budget_caps () =
  let r = Checker.check ~max_states:10 ~scheme:(scheme_exn "bracha") (ctx_for 4 1) in
  Alcotest.(check bool) "capped" true r.Checker.capped;
  Alcotest.(check verdict) "holding verdicts degrade to inconclusive" Checker.Inconclusive
    r.Checker.agreement

let test_rejects_large_n () =
  Alcotest.check_raises "n=6 refused"
    (Invalid_argument "Sb_check.Checker.check: n = 6 exceeds max_n = 5") (fun () ->
      ignore (Checker.check ~scheme:(scheme_exn "send-echo") (ctx_for 6 1)))

(* --- counterexample round-trip --------------------------------------- *)

let validity_witness () =
  let r = Checker.check ~scheme:(scheme_exn "send-echo") (ctx_for 3 2) in
  match r.Checker.validity with
  | Checker.Violated w -> w
  | v -> Alcotest.failf "expected validity violation, got %s" (Checker.verdict_name v)

let violates_validity ctx scheme (w : Checker.witness) decisions =
  let results =
    network_results ctx scheme ~sender:w.Checker.w_sender ~value:w.Checker.w_value
      ~faulty:w.Checker.w_faulty decisions
  in
  let honest = Sb_util.Subset.complement ctx.Ctx.n w.Checker.w_faulty in
  (not (Sb_util.Subset.mem w.Checker.w_sender w.Checker.w_faulty))
  && not (List.for_all (fun i -> Msg.equal results.(i) w.Checker.w_value) honest)

let test_counterexample_roundtrip () =
  let w = validity_witness () in
  let ctx = ctx_for 3 2 in
  let scheme = scheme_exn "send-echo" in
  (* The emitted schedule, compiled to a --faults plan and replayed
     through the real network, reproduces the violation... *)
  Alcotest.(check bool) "witness replays to a violation" true
    (violates_validity ctx scheme w w.Checker.w_decisions);
  (* ...and it is minimal: removing any single entry loses it. *)
  List.iteri
    (fun r d ->
      List.iteri
        (fun k _ ->
          let shrunk =
            List.mapi
              (fun r' d' ->
                if r' = r then List.filteri (fun k' _ -> k' <> k) d' else d')
              w.Checker.w_decisions
          in
          Alcotest.(check bool)
            (Printf.sprintf "dropping entry %d of round %d loses the violation" k r)
            false
            (violates_validity ctx scheme w shrunk))
        d)
    w.Checker.w_decisions

let test_witness_plan_grammar_roundtrip () =
  let w = validity_witness () in
  let plan = Checker.plan_of_witness w in
  Alcotest.(check bool) "witness plan is non-empty" true (plan <> []);
  let s = Sb_fault.Plan.to_string plan in
  match Sb_fault.Plan.of_string s with
  | Ok plan' -> Alcotest.(check bool) ("reparses: " ^ s) true (plan = plan')
  | Error e -> Alcotest.failf "%s does not reparse: %s" s e

(* --- observability ---------------------------------------------------- *)

let test_check_metrics () =
  Sb_obs.Metrics.set_enabled true;
  Sb_obs.Metrics.reset ();
  let r = Checker.check ~scheme:(scheme_exn "dolev-strong") (ctx_for 3 1) in
  let c name = Sb_obs.Metrics.counter_value (Sb_obs.Metrics.counter name) in
  Alcotest.(check int) "check.states counter" r.Checker.stats.explored (c "check.states");
  Alcotest.(check int) "check.memo_hits counter" r.Checker.stats.memo_hits
    (c "check.memo_hits");
  Alcotest.(check int) "check.terminals counter" r.Checker.stats.terminals
    (c "check.terminals");
  Sb_obs.Metrics.reset ();
  Sb_obs.Metrics.set_enabled false

let test_report_block_validates () =
  let r = Checker.check ~scheme:(scheme_exn "bracha") (ctx_for 4 1) in
  let report = Sb_obs.Report.make ~tag:"check" ~check:(Checker.result_to_json r) () in
  (match Sb_obs.Report.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "check report invalid: %s" e);
  (* A malformed verdict string must be rejected. *)
  let bad =
    Sb_obs.Report.make ~tag:"check"
      ~check:
        (Sb_obs.Json.Obj
           [
             ("n", Sb_obs.Json.Int 4);
             ("t", Sb_obs.Json.Int 1);
             ("max_states", Sb_obs.Json.Int 1);
             ("configs", Sb_obs.Json.Int 1);
             ("explored", Sb_obs.Json.Int 1);
             ("memo_hits", Sb_obs.Json.Int 0);
             ("terminals", Sb_obs.Json.Int 1);
             ("agreement", Sb_obs.Json.Str "maybe");
             ("validity", Sb_obs.Json.Str "pass");
             ("unforgeability", Sb_obs.Json.Str "pass");
           ])
      ()
  in
  match Sb_obs.Report.validate bad with
  | Ok () -> Alcotest.fail "bad verdict string validated"
  | Error _ -> ()

let () =
  Alcotest.run "sb_check"
    [
      ( "executor",
        [
          Alcotest.test_case "matches the real network" `Quick test_exec_matches_network;
          Alcotest.test_case "matches with two faulty parties" `Quick
            test_exec_matches_network_two_faulty;
          Alcotest.test_case "incremental search matches replay" `Quick
            test_incremental_matches_replay;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "bracha 4/1 exact-pass" `Quick test_bracha_below_boundary;
          Alcotest.test_case "bracha 4/2 validity flip" `Quick test_bracha_above_boundary;
          Alcotest.test_case "matches recorded exact cells" `Quick
            test_exact_cells_differential;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "pinned state counts" `Quick test_pinned_counts;
          Alcotest.test_case "pinned witnesses" `Quick test_pinned_witnesses;
          Alcotest.test_case "state budget caps" `Quick test_state_budget_caps;
          Alcotest.test_case "rejects n beyond max_n" `Quick test_rejects_large_n;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "round-trip through --faults" `Quick
            test_counterexample_roundtrip;
          Alcotest.test_case "plan grammar round-trip" `Quick
            test_witness_plan_grammar_roundtrip;
        ] );
      ( "observability",
        [
          Alcotest.test_case "check.* counters" `Quick test_check_metrics;
          Alcotest.test_case "report block validates" `Quick test_report_block_validates;
        ] );
    ]
