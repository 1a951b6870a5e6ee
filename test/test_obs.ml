(* Tests for sb_obs: metric semantics (including bucketed quantiles on
   known data), JSON emission/parsing, report shape, and the layer's
   one hard contract: instrumentation must not perturb seeded protocol
   runs. *)

open Sb_obs

(* Metrics state is process-global; every test that enables the layer
   funnels through this so a failure cannot leak enablement into a
   later test. *)
let with_obs f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

(* --- counters and gauges ------------------------------------------ *)

let test_counter_semantics () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let c = Metrics.counter "t.counter" in
  Metrics.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 0 (Metrics.counter_value c);
  with_obs (fun () ->
      Metrics.incr c;
      Metrics.incr ~by:41 c;
      Alcotest.(check int) "enabled incr accumulates" 42 (Metrics.counter_value c);
      let c' = Metrics.counter "t.counter" in
      Metrics.incr c';
      Alcotest.(check int) "interned by name" 43 (Metrics.counter_value c));
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c)

let test_gauge_semantics () =
  with_obs (fun () ->
      let g = Metrics.gauge "t.gauge" in
      Metrics.set g 2.5;
      Metrics.set g 7.25;
      Alcotest.(check (float 0.0)) "last write wins" 7.25 (Metrics.gauge_value g))

(* --- histograms ---------------------------------------------------- *)

let test_histogram_quantiles () =
  with_obs (fun () ->
      (* Observing each integer 1..100 once fills the ladder's
         (20, 50] and (50, 100] buckets uniformly, so the interpolated
         p50 and p95 land exactly on 50 and 95. *)
      let h = Metrics.histogram "t.hist" in
      for v = 1 to 100 do
        Metrics.observe h (float_of_int v)
      done;
      let s = Metrics.stats h in
      Alcotest.(check int) "count" 100 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 5050.0 s.Metrics.sum;
      Alcotest.(check (float 1e-9)) "mean" 50.5 s.Metrics.mean;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
      Alcotest.(check (float 1e-9)) "max" 100.0 s.Metrics.max;
      Alcotest.(check (float 1e-9)) "p50" 50.0 s.Metrics.p50;
      Alcotest.(check (float 1e-9)) "p95" 95.0 s.Metrics.p95)

let test_histogram_single_value () =
  with_obs (fun () ->
      let h = Metrics.histogram "t.hist1" in
      for _ = 1 to 10 do
        Metrics.observe h 7.0
      done;
      let s = Metrics.stats h in
      (* Quantiles clamp to the observed range, so a constant stream
         reports the constant, not a bucket bound. *)
      Alcotest.(check (float 1e-9)) "p50 clamps to observed" 7.0 s.Metrics.p50;
      Alcotest.(check (float 1e-9)) "p95 clamps to observed" 7.0 s.Metrics.p95;
      Alcotest.(check (float 1e-9)) "mean" 7.0 s.Metrics.mean)

let test_histogram_overflow_bucket () =
  with_obs (fun () ->
      (* 1e9 lies past the ladder's last bound (5e8). *)
      let h = Metrics.histogram "t.hist2" in
      Metrics.observe h 0.5;
      Metrics.observe h 1e9;
      let s = Metrics.stats h in
      Alcotest.(check int) "overflow observed" 2 s.Metrics.count;
      Alcotest.(check (float 1e-9)) "max tracked past last bound" 1e9 s.Metrics.max;
      Alcotest.(check (float 1e-9)) "top quantile is the observed max" 1e9
        (Metrics.quantile h 1.0))

let test_histogram_first_registration_wins () =
  with_obs (fun () ->
      let h = Metrics.histogram "t.first" in
      let h' = Metrics.histogram "t.first" in
      Alcotest.(check bool) "existing histogram returned" true (h == h');
      Metrics.observe h' 3.0;
      Alcotest.(check int) "one cell behind both handles" 1 (Metrics.stats h).Metrics.count)

let test_disabled_histogram_observes_nothing () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let h = Metrics.histogram "t.hist3" in
  Metrics.observe h 0.5;
  Alcotest.(check int) "no count when disabled" 0 (Metrics.stats h).Metrics.count

(* --- json ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y\n\tz\\" ]);
        ("c", Json.Float 1.5);
        ("d", Json.Obj []);
        ("e", Json.List []);
        ("neg", Json.Int (-3));
        ("exp", Json.Float 1.25e-3);
      ]
  in
  let check_roundtrip label s =
    match Json.of_string s with
    | Ok v' -> Alcotest.(check bool) label true (v = v')
    | Error e -> Alcotest.fail e
  in
  check_roundtrip "compact roundtrip" (Json.to_string v);
  check_roundtrip "indented roundtrip" (Json.to_string ~indent:true v)

let test_json_rejects_garbage () =
  let bad = [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_json_member_access () =
  match Json.of_string "{\"x\": {\"y\": [1, 2.5, \"s\"]}}" with
  | Error e -> Alcotest.fail e
  | Ok v ->
      let y = Option.bind (Json.member "x" v) (Json.member "y") in
      let items = Option.bind y Json.to_list_opt |> Option.get in
      Alcotest.(check int) "int elem" 1 (Json.to_int_opt (List.nth items 0) |> Option.get);
      Alcotest.(check (float 1e-9)) "float elem" 2.5
        (Json.to_float_opt (List.nth items 1) |> Option.get);
      Alcotest.(check string) "str elem" "s" (Json.to_str_opt (List.nth items 2) |> Option.get)

(* --- report -------------------------------------------------------- *)

let test_report_shape () =
  with_obs (fun () ->
      Metrics.incr (Metrics.counter "t.report.counter");
      let e =
        {
          Report.id = "E1";
          title = "unit fixture";
          ok = true;
          rows_checked = 3;
          wall_clock_s = 0.5;
          notes = [ "a note" ];
        }
      in
      let j = Report.make ~tool:"test" ~tag:"unit" ~experiments:[ e ] () in
      (match Report.validate j with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* The serialized form must parse back and still validate. *)
      match Json.of_string (Json.to_string ~indent:true j) with
      | Error msg -> Alcotest.fail msg
      | Ok j' ->
          (match Report.validate j' with
          | Ok () -> ()
          | Error msg -> Alcotest.fail ("reparsed: " ^ msg));
          Alcotest.(check (option string)) "tag survives" (Some "unit")
            (Option.bind (Json.member "tag" j') Json.to_str_opt);
          let exps = Option.bind (Json.member "experiments" j') Json.to_list_opt |> Option.get in
          Alcotest.(check int) "one experiment" 1 (List.length exps);
          Alcotest.(check (option string)) "id survives" (Some "E1")
            (Option.bind (Json.member "id" (List.hd exps)) Json.to_str_opt))

let test_report_validate_rejects () =
  let wrong = Json.Obj [ ("schema_version", Json.Int 999) ] in
  (match Report.validate wrong with
  | Ok () -> Alcotest.fail "accepted wrong schema_version"
  | Error _ -> ());
  match Report.validate (Json.Obj []) with
  | Ok () -> Alcotest.fail "accepted empty object"
  | Error _ -> ()

(* --- the simulator under instrumentation --------------------------- *)

let fixture_protocol = Sb_protocols.Gennaro.protocol

let run_fixture () =
  let ctx = Sb_sim.Ctx.make ~rng:(Sb_util.Rng.create 2026) ~n:5 ~thresh:2 ~k:8 () in
  let inputs = Array.init 5 (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
  Sb_sim.Network.run ctx ~rng:(Sb_util.Rng.create 7) ~protocol:fixture_protocol
    ~adversary:(Core.Adversaries.semi_honest fixture_protocol ~corrupt:[ 3; 4 ])
    ~inputs ()

let render (r : Sb_sim.Network.result) =
  let outputs =
    List.map (fun (i, m) -> Printf.sprintf "%d=%s" i (Sb_sim.Msg.to_string m)) r.Sb_sim.Network.outputs
  in
  String.concat ";" outputs ^ "|" ^ Format.asprintf "%a" Sb_sim.Trace.pp r.Sb_sim.Network.trace

let test_instrumentation_is_inert () =
  (* The acceptance bar: a seeded run yields byte-identical outputs and
     trace with metrics on vs off. Tracing's inertness is test_trace's
     "tracing is inert" case. *)
  Metrics.set_enabled false;
  let plain = render (run_fixture ()) in
  let observed =
    with_obs (fun () ->
        let r = render (run_fixture ()) in
        Alcotest.(check bool) "the run was counted" true
          (Metrics.counter_value (Metrics.counter "sim.runs") > 0);
        r)
  in
  Alcotest.(check string) "byte-identical outputs and trace" plain observed;
  let plain_again = render (run_fixture ()) in
  Alcotest.(check string) "still identical after disabling" plain plain_again

let test_network_counters_match_trace () =
  with_obs (fun () ->
      let r = run_fixture () in
      let per_round = Sb_sim.Trace.per_round_counts r.Sb_sim.Network.trace in
      let sum f = List.fold_left (fun acc t -> acc + f t) 0 per_round in
      let honest = sum (fun (h, _, _) -> h)
      and adv = sum (fun (_, a, _) -> a)
      and func = sum (fun (_, _, f) -> f) in
      let counter name = Metrics.counter_value (Metrics.counter name) in
      Alcotest.(check int) "honest envelopes" honest (counter "sim.envelopes.honest");
      Alcotest.(check int) "adv envelopes" adv (counter "sim.envelopes.adv");
      Alcotest.(check int) "func envelopes" func (counter "sim.envelopes.func");
      Alcotest.(check int) "rounds = rounds_used + final delivery" (r.Sb_sim.Network.rounds_used + 1)
        (counter "sim.rounds");
      Alcotest.(check int) "p2p agrees with trace"
        (Sb_sim.Trace.p2p_message_count r.Sb_sim.Network.trace)
        (counter "sim.p2p");
      Alcotest.(check int) "broadcasts agree with trace"
        (Sb_sim.Trace.broadcast_count r.Sb_sim.Network.trace)
        (counter "sim.broadcasts"))

let test_messages_from_agrees_with_per_round () =
  let r = run_fixture () in
  let trace = r.Sb_sim.Network.trace in
  let by_party = List.init 5 (Sb_sim.Trace.messages_from trace) in
  let total_party_sourced = List.fold_left ( + ) 0 by_party in
  let per_round = Sb_sim.Trace.per_round_counts trace in
  let honest_plus_adv =
    List.fold_left (fun acc (h, a, _) -> acc + h + a) 0 per_round
  in
  Alcotest.(check int) "per-party sums match per-round sums" honest_plus_adv total_party_sourced

(* --- the experiment registry --------------------------------------- *)

let test_registry_covers_all_and_finds () =
  Alcotest.(check (list string)) "canonical id list"
    [
      "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E10"; "E11"; "E12"; "E13"; "E14";
      "E15"; "E16"; "E17";
    ]
    (Core.Experiments.ids ());
  (match Core.Experiments.find "e5" with
  | Some e -> Alcotest.(check string) "case-insensitive find" "E5" e.Core.Experiments.id
  | None -> Alcotest.fail "find e5");
  Alcotest.(check bool) "unknown id rejected" true (Core.Experiments.find "e9" = None)

let test_registry_runner_counters () =
  with_obs (fun () ->
      let e = Option.get (Core.Experiments.find "E6") in
      let setup = Core.Setup.with_samples 400 Core.Setup.default in
      let o = e.Core.Experiments.run setup in
      Alcotest.(check bool) "outcome ok" true o.Core.Experiments.ok;
      Alcotest.(check bool) "samples counted" true
        (Metrics.counter_value (Metrics.counter "exp.samples_drawn") > 0);
      Alcotest.(check int) "rows rolled up" o.Core.Experiments.rows_checked
        (Metrics.counter_value (Metrics.counter "exp.rows_checked")))

let () =
  Alcotest.run "sb_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram quantiles on known data" `Quick test_histogram_quantiles;
          Alcotest.test_case "histogram single value" `Quick test_histogram_single_value;
          Alcotest.test_case "histogram overflow bucket" `Quick test_histogram_overflow_bucket;
          Alcotest.test_case "disabled histogram" `Quick test_disabled_histogram_observes_nothing;
          Alcotest.test_case "histogram first registration wins" `Quick
            test_histogram_first_registration_wins;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "member access" `Quick test_json_member_access;
        ] );
      ( "report",
        [
          Alcotest.test_case "shape and reparse" `Quick test_report_shape;
          Alcotest.test_case "validate rejects" `Quick test_report_validate_rejects;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "instrumentation is inert" `Quick test_instrumentation_is_inert;
          Alcotest.test_case "counters match trace" `Quick test_network_counters_match_trace;
          Alcotest.test_case "messages_from vs per_round_counts" `Quick
            test_messages_from_agrees_with_per_round;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids and find" `Quick test_registry_covers_all_and_finds;
          Alcotest.test_case "runner instruments" `Quick test_registry_runner_counters;
        ] );
    ]
