(* Tests for the causal tracing engine: Trace_ctx span-tree mechanics,
   flow edges counted against the network transcript, Perfetto JSON
   parse-back, the one hard contract (tracing must not perturb seeded
   runs, at any pool size), flame aggregation determinism, and the
   perf-trajectory helpers (Report.perf_diff / history_row). *)

open Sb_obs

(* Trace state is process-global; funnel every enabling test through
   this so a failure cannot leak enablement into a later test. *)
let with_trace f =
  Trace_ctx.reset ();
  Trace_ctx.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace_ctx.set_enabled false;
      Trace_ctx.set_max_sessions 64;
      Trace_ctx.reset ())
    f

(* --- engine mechanics ---------------------------------------------- *)

let test_span_tree_mechanics () =
  with_trace (fun () ->
      let s = Trace_ctx.begin_session ~args:[ ("k", "v") ] "sess" in
      let r = Trace_ctx.begin_span ~agg:"round" ~cat:"round" "round 0" in
      let p = Trace_ctx.begin_span ~cat:"party" "P0" in
      Trace_ctx.end_span p;
      Trace_ctx.end_span r;
      Trace_ctx.end_span s;
      match Trace_ctx.spans () with
      | [ a; b; c ] ->
          (* sorted by (track, start, id): session, round, party *)
          Alcotest.(check string) "root name" "sess" a.Trace_ctx.name;
          Alcotest.(check int) "root parent" (-1) a.Trace_ctx.parent;
          Alcotest.(check string) "root cat" "session" a.Trace_ctx.cat;
          Alcotest.(check int) "root track" 1 a.Trace_ctx.track;
          Alcotest.(check int) "round parent is session" a.Trace_ctx.id b.Trace_ctx.parent;
          Alcotest.(check string) "agg key kept" "round" b.Trace_ctx.agg;
          Alcotest.(check int) "party parent is round" b.Trace_ctx.id c.Trace_ctx.parent;
          Alcotest.(check string) "agg defaults to name" "P0" c.Trace_ctx.agg;
          List.iter
            (fun (sp : Trace_ctx.span) ->
              Alcotest.(check bool) "closed" false (Float.is_nan sp.Trace_ctx.end_us);
              Alcotest.(check bool) "duration non-negative" true
                (sp.Trace_ctx.end_us >= sp.Trace_ctx.start_us))
            [ a; b; c ]
      | sps -> Alcotest.failf "expected 3 spans, got %d" (List.length sps))

let test_disabled_is_inert () =
  Trace_ctx.reset ();
  Trace_ctx.set_enabled false;
  Alcotest.(check bool) "session handle is None" true
    (Trace_ctx.begin_session "ghost" = Trace_ctx.none);
  Alcotest.(check bool) "span handle is None" true
    (Trace_ctx.begin_span ~cat:"phase" "ghost" = Trace_ctx.none);
  Alcotest.(check int) "with_span still runs the thunk" 42
    (Trace_ctx.with_span ~cat:"phase" "ghost" (fun () -> 42));
  Trace_ctx.bucket_add "ghost" 1.0;
  Trace_ctx.flow ~src:Trace_ctx.none ~dst:Trace_ctx.none;
  Alcotest.(check int) "nothing collected" 0 (List.length (Trace_ctx.spans ()));
  Alcotest.(check int) "no sessions counted" 0 (Trace_ctx.session_total ())

let test_session_cap () =
  with_trace (fun () ->
      Trace_ctx.set_max_sessions 2;
      let s1 = Trace_ctx.begin_session "one" in
      Trace_ctx.end_span s1;
      let s2 = Trace_ctx.begin_session "two" in
      Trace_ctx.end_span s2;
      let s3 = Trace_ctx.begin_session "three" in
      Alcotest.(check bool) "first session traced" true (s1 <> Trace_ctx.none);
      Alcotest.(check bool) "third session dropped" true (s3 = Trace_ctx.none);
      (* Spans under a dropped session are dropped too: the open stack
         is empty, so children have no parent to attach to. *)
      let orphan = Trace_ctx.begin_span ~cat:"phase" "orphan" in
      Alcotest.(check bool) "child of dropped session dropped" true (orphan = Trace_ctx.none);
      Alcotest.(check int) "all sessions counted" 3 (Trace_ctx.session_total ());
      Alcotest.(check int) "traced bounded by cap" 2 (Trace_ctx.sessions_traced ()))

let test_unbalanced_close_recovers () =
  with_trace (fun () ->
      let s = Trace_ctx.begin_session "sess" in
      let outer = Trace_ctx.begin_span ~cat:"phase" "outer" in
      let _leaked = Trace_ctx.begin_span ~cat:"phase" "leaked" in
      (* Closing [outer] with [leaked] still open (an exception skipped
         its end_span) must pop past it. *)
      Trace_ctx.end_span outer;
      let next = Trace_ctx.begin_span ~cat:"phase" "next" in
      Trace_ctx.end_span next;
      Trace_ctx.end_span s;
      let spans = Trace_ctx.spans () in
      let names = List.map (fun (sp : Trace_ctx.span) -> sp.Trace_ctx.name) spans in
      Alcotest.(check (list string)) "leaked span never completes"
        [ "sess"; "outer"; "next" ] names;
      let session = List.hd spans in
      let next_sp = List.nth spans 2 in
      Alcotest.(check int) "stack recovered: next hangs off the session"
        session.Trace_ctx.id next_sp.Trace_ctx.parent)

let test_bucket_attribution () =
  with_trace (fun () ->
      let s = Trace_ctx.begin_session "sess" in
      let p = Trace_ctx.begin_span ~cat:"phase" "work" in
      Trace_ctx.bucket_add "pow_g" 5.0;
      Trace_ctx.bucket_add "pow_g" 7.0;
      Trace_ctx.bucket_add "reconstruct" 2.0;
      Trace_ctx.end_span p;
      Trace_ctx.end_span s;
      let work =
        List.find
          (fun (sp : Trace_ctx.span) -> sp.Trace_ctx.name = "work")
          (Trace_ctx.spans ())
      in
      let sorted =
        List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) work.Trace_ctx.buckets
      in
      match sorted with
      | [ ("pow_g", c1, t1); ("reconstruct", c2, t2) ] ->
          Alcotest.(check int) "pow_g calls" 2 c1;
          Alcotest.(check (float 1e-9)) "pow_g total" 12.0 t1;
          Alcotest.(check int) "reconstruct calls" 1 c2;
          Alcotest.(check (float 1e-9)) "reconstruct total" 2.0 t2
      | bs -> Alcotest.failf "expected 2 buckets, got %d" (List.length bs))

(* --- the simulator under tracing ----------------------------------- *)

let fixture_protocol = Sb_protocols.Gennaro.protocol

let run_fixture ?(seed = 7) () =
  let ctx = Sb_sim.Ctx.make ~rng:(Sb_util.Rng.create 2026) ~n:5 ~thresh:2 ~k:8 () in
  let inputs = Array.init 5 (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
  Sb_sim.Network.run ctx ~rng:(Sb_util.Rng.create seed) ~protocol:fixture_protocol
    ~adversary:(Core.Adversaries.semi_honest fixture_protocol ~corrupt:[ 3; 4 ])
    ~inputs ()

(* Envelopes the network routed into a next round: party traffic minus
   the ideal channel, plus every functionality reply. The tracing
   engine records exactly one flow edge per such delivery. *)
let delivered_count (trace : Sb_sim.Trace.t) =
  List.fold_left
    (fun acc (r : Sb_sim.Trace.round_record) ->
      let party_sourced =
        List.filter
          (fun e -> not (Sb_sim.Envelope.is_func_bound e))
          (r.Sb_sim.Trace.honest_sent @ r.Sb_sim.Trace.adv_sent)
      in
      acc + List.length party_sourced + List.length r.Sb_sim.Trace.func_sent)
    0 trace

let test_flow_edge_per_delivered_envelope () =
  with_trace (fun () ->
      let r = run_fixture () in
      Alcotest.(check int) "one session" 1 (Trace_ctx.session_total ());
      Alcotest.(check int) "one flow edge per delivered envelope"
        (delivered_count r.Sb_sim.Network.trace)
        (List.length (Trace_ctx.flows ()));
      (* Every edge endpoint is a completed span. *)
      let ids =
        List.fold_left
          (fun acc (sp : Trace_ctx.span) -> sp.Trace_ctx.id :: acc)
          [] (Trace_ctx.spans ())
      in
      List.iter
        (fun (src, dst) ->
          Alcotest.(check bool) "src recorded" true (List.mem src ids);
          Alcotest.(check bool) "dst recorded" true (List.mem dst ids))
        (Trace_ctx.flows ()))

let test_perfetto_parse_back () =
  with_trace (fun () ->
      let r = run_fixture () in
      let json = Perfetto.to_json () in
      (* The export must survive its own serialisation. *)
      let reparsed =
        match Json.of_string (Json.to_string json) with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check (option string)) "displayTimeUnit" (Some "ms")
        (Option.bind (Json.member "displayTimeUnit" reparsed) Json.to_str_opt);
      let events =
        Option.bind (Json.member "traceEvents" reparsed) Json.to_list_opt |> Option.get
      in
      let ph e = Option.bind (Json.member "ph" e) Json.to_str_opt |> Option.get in
      let cat e = Option.bind (Json.member "cat" e) Json.to_str_opt in
      let xs = List.filter (fun e -> ph e = "X") events in
      let cats = List.filter_map cat xs in
      List.iter
        (fun c ->
          Alcotest.(check bool) (c ^ " spans present") true (List.mem c cats))
        [ "session"; "round"; "party"; "phase" ];
      Alcotest.(check int) "one X event per completed span"
        (List.length (Trace_ctx.spans ()))
        (List.length xs);
      let starts = List.filter (fun e -> ph e = "s") events in
      let finishes = List.filter (fun e -> ph e = "f") events in
      Alcotest.(check int) "one flow start per edge"
        (delivered_count r.Sb_sim.Network.trace)
        (List.length starts);
      Alcotest.(check int) "flow starts and finishes pair up" (List.length starts)
        (List.length finishes);
      (* X events carry the Gc delta args. *)
      let first_x = List.hd xs in
      let args = Json.member "args" first_x |> Option.get in
      Alcotest.(check bool) "minor_words arg present" true
        (Json.member "minor_words" args <> None))

let test_flame_aggregation () =
  with_trace (fun () ->
      (* A seed no other test runs: share verdicts an earlier run left
         in this domain's Check_memo would be served without calling
         commit_pair, and the bucket asserted below would not appear. *)
      ignore (run_fixture ~seed:2027 ());
      let frames = Perfetto.flame () in
      Alcotest.(check bool) "frames exist" true (frames <> []);
      (* Deterministic: a second aggregation over the same spans is
         identical. *)
      Alcotest.(check bool) "aggregation is deterministic" true (frames = Perfetto.flame ());
      let root =
        List.find (fun (f : Perfetto.frame) -> f.Perfetto.path = fixture_protocol.Sb_sim.Protocol.name) frames
      in
      Alcotest.(check int) "one session root frame" 1 root.Perfetto.count;
      List.iter
        (fun (f : Perfetto.frame) ->
          Alcotest.(check bool) (f.Perfetto.path ^ " self <= total") true
            (f.Perfetto.self_us <= f.Perfetto.total_us +. 1e-9);
          Alcotest.(check bool) (f.Perfetto.path ^ " rooted at the session") true
            (String.length f.Perfetto.path
             >= String.length fixture_protocol.Sb_sim.Protocol.name
            && String.sub f.Perfetto.path 0 (String.length fixture_protocol.Sb_sim.Protocol.name)
               = fixture_protocol.Sb_sim.Protocol.name))
        frames;
      (* The crypto hot path surfaces as bucket pseudo-leaves. *)
      Alcotest.(check bool) "commit_pair bucket attributed" true
        (List.exists
           (fun (f : Perfetto.frame) ->
             String.length f.Perfetto.path >= 13
             && String.sub f.Perfetto.path (String.length f.Perfetto.path - 13) 13
                = "[commit_pair]")
           frames))

(* The hard contract: tracing must not change what a seeded run
   computes — same outputs, same transcript — at any pool size. *)
let render (r : Sb_sim.Network.result) =
  let outputs =
    List.map
      (fun (i, m) -> Printf.sprintf "%d=%s" i (Sb_sim.Msg.to_string m))
      r.Sb_sim.Network.outputs
  in
  String.concat ";" outputs ^ "|" ^ Format.asprintf "%a" Sb_sim.Trace.pp r.Sb_sim.Network.trace

let outcome_csv () =
  let e = Option.get (Core.Experiments.find "E6") in
  let o = e.Core.Experiments.run (Core.Setup.with_samples 400 Core.Setup.default) in
  Sb_util.Tabular.to_csv o.Core.Experiments.table

let test_tracing_is_inert () =
  Trace_ctx.set_enabled false;
  let plain = render (run_fixture ()) in
  let traced = with_trace (fun () -> render (run_fixture ())) in
  Alcotest.(check string) "byte-identical run under tracing" plain traced;
  (* And across worker-domain counts, through the experiment harness
     (Monte-Carlo sampling over Sb_par.Pool). *)
  List.iter
    (fun jobs ->
      Sb_par.Pool.set_default_domains jobs;
      let plain = outcome_csv () in
      let traced = with_trace (fun () -> outcome_csv ()) in
      Alcotest.(check string)
        (Printf.sprintf "E6 outcome identical under tracing at jobs %d" jobs)
        plain traced)
    [ 1; 2 ];
  Sb_par.Pool.set_default_domains 1

(* --- perf trajectory helpers --------------------------------------- *)

let report_with ~tag timings =
  Json.Obj
    [
      ("schema_version", Json.Int Report.schema_version);
      ("tag", Json.Str tag);
      ( "timings",
        Json.List
          (List.map
             (fun (name, ns) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("ns_per_run", Json.Float ns);
                   ("r_square", Json.Float 1.0);
                 ])
             timings) );
    ]

let test_perf_diff () =
  let base = report_with ~tag:"base" [ ("a", 100.0); ("b", 200.0); ("gone", 5.0) ] in
  let fresh = report_with ~tag:"fresh" [ ("a", 150.0); ("b", 190.0); ("new", 7.0) ] in
  let deltas, missing = Report.perf_diff ~base ~fresh () in
  (match deltas with
  | [ a; b ] ->
      Alcotest.(check string) "baseline order kept" "a" a.Report.name;
      Alcotest.(check (float 1e-9)) "slowdown ratio" 1.5 a.Report.ratio;
      Alcotest.(check (float 1e-9)) "speedup ratio" 0.95 b.Report.ratio
  | ds -> Alcotest.failf "expected 2 deltas, got %d" (List.length ds));
  Alcotest.(check (list string)) "baseline-only entries reported" [ "gone" ] missing;
  (* Prefix filtering. *)
  let deltas, missing = Report.perf_diff ~prefixes:[ "a" ] ~base ~fresh () in
  Alcotest.(check int) "prefix keeps one" 1 (List.length deltas);
  Alcotest.(check int) "prefix drops the missing entry" 0 (List.length missing)

let test_history_row () =
  let report = report_with ~tag:"quick" [ ("a", 100.0); ("b", 200.0) ] in
  let row = Report.history_row ~utc:"2026-01-01T00:00:00Z" report in
  (* One line of compact JSON, reparseable. *)
  let line = Json.to_string row in
  Alcotest.(check bool) "single line" true (not (String.contains line '\n'));
  let v = match Json.of_string line with Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check (option string)) "utc kept" (Some "2026-01-01T00:00:00Z")
    (Option.bind (Json.member "utc" v) Json.to_str_opt);
  Alcotest.(check (option string)) "tag kept" (Some "quick")
    (Option.bind (Json.member "tag" v) Json.to_str_opt);
  let timings = Json.member "timings" v |> Option.get in
  Alcotest.(check (option (float 1e-9))) "timing flattened" (Some 100.0)
    (Option.bind (Json.member "a" timings) Json.to_float_opt)

let test_report_trace_block () =
  with_trace (fun () ->
      ignore (run_fixture ());
      let j = Report.make ~tool:"test" ~tag:"traced" ~trace:(Perfetto.summary ()) () in
      (match Report.validate j with Ok () -> () | Error e -> Alcotest.fail e);
      let t = Json.member "trace" j |> Option.get in
      Alcotest.(check (option int)) "sessions_traced" (Some 1)
        (Option.bind (Json.member "sessions_traced" t) Json.to_int_opt);
      (* A malformed trace block must be rejected. *)
      let bad =
        Report.make ~tool:"test" ~tag:"bad" ~trace:(Json.Obj [ ("spans", Json.Str "x") ]) ()
      in
      match Report.validate bad with
      | Ok () -> Alcotest.fail "accepted malformed trace block"
      | Error _ -> ())

let () =
  Alcotest.run "sb_trace"
    [
      ( "engine",
        [
          Alcotest.test_case "span tree mechanics" `Quick test_span_tree_mechanics;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "session cap" `Quick test_session_cap;
          Alcotest.test_case "unbalanced close recovers" `Quick test_unbalanced_close_recovers;
          Alcotest.test_case "bucket attribution" `Quick test_bucket_attribution;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "flow edge per delivered envelope" `Quick
            test_flow_edge_per_delivered_envelope;
          Alcotest.test_case "perfetto parse-back" `Quick test_perfetto_parse_back;
          Alcotest.test_case "flame aggregation" `Quick test_flame_aggregation;
          Alcotest.test_case "tracing is inert (jobs 1 and 2)" `Quick test_tracing_is_inert;
        ] );
      ( "perf-trajectory",
        [
          Alcotest.test_case "perf_diff deltas and missing" `Quick test_perf_diff;
          Alcotest.test_case "history row" `Quick test_history_row;
          Alcotest.test_case "report trace block" `Quick test_report_trace_block;
        ] );
    ]
