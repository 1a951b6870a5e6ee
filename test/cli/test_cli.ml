(* End-to-end tests against the built simbcast binary (path in
   argv.(1)): strict argument parsing (no subcommand may silently
   accept trailing junk), traced-run output validity, report inertness
   under tracing at jobs 1 and 2, perf-diff exit codes, and the
   profile subcommand. *)

open Sb_obs

let simbcast = ref ""

(* cmdliner's exit code for a command-line parse error — and the one
   usage-error code of every subcommand. *)
let cli_error = 124

let command ?out args =
  let redirect = match out with None -> "/dev/null" | Some f -> Filename.quote f in
  Sys.command
    (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote !simbcast)
       (String.concat " " (List.map Filename.quote args))
       redirect)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file path =
  match Json.of_string (read_file path) with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" path e

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let temp name = Filename.temp_file "simbcast_cli" name

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A rejected input exits 124 and its diagnostic contains [shows]: the
   offending flag, or cmdliner's "Usage:" line. *)
let check_usage_error ~shows what args =
  let out = temp ".usage.err" in
  Alcotest.(check int) (what ^ " exits 124") cli_error (command ~out args);
  Alcotest.(check bool) (Printf.sprintf "%s shows %S" what shows) true
    (contains (read_file out) shows);
  Sys.remove out

(* --- experiment --seed ------------------------------------------------ *)

(* The default seed is 1, so naming it changes nothing; another seed
   still decides every E2 row (no corruption is needed for CR to fail
   on a correlated distribution). *)
let test_experiment_seed () =
  let a = temp ".e6.out" and b = temp ".e6s1.out" and c = temp ".e2s2.out" in
  Alcotest.(check int) "e6 exits 0" 0 (command ~out:a [ "experiment"; "e6"; "--quick" ]);
  Alcotest.(check int) "e6 --seed 1 exits 0" 0
    (command ~out:b [ "experiment"; "e6"; "--quick"; "--seed"; "1" ]);
  Alcotest.(check string) "--seed 1 = default" (read_file a) (read_file b);
  Alcotest.(check int) "e2 --seed 2 exits 0" 0
    (command ~out:c [ "experiment"; "e2"; "--quick"; "--seed"; "2" ]);
  let rec table_rows = function
    | [] -> []
    | l :: rest when String.length l > 0 && l.[0] = '-' ->
        List.filter (fun r -> r <> "") (List.filteri (fun i _ -> i < 10) rest)
    | _ :: rest -> table_rows rest
  in
  let rows = table_rows (String.split_on_char '\n' (read_file c)) in
  Alcotest.(check int) "e2 rows" 10 (List.length rows);
  List.iter (fun r -> Alcotest.(check bool) ("FAIL: " ^ r) true (contains r " FAIL ")) rows;
  List.iter Sys.remove [ a; b; c ]

(* --- strict argument parsing --------------------------------------- *)

let test_trailing_args_rejected () =
  List.iter
    (fun args ->
      Alcotest.(check int)
        ("rejects: " ^ String.concat " " args)
        cli_error (command args))
    [
      [ "list"; "junk" ];
      [ "run"; "bracha"; "junk" ];
      [ "run"; "--bogus-flag" ];
      [ "classify"; "junk" ];
      [ "exact"; "junk" ];
      [ "test"; "junk" ];
      [ "experiment"; "e1"; "junk" ];
      [ "fault-sweep"; "junk" ];
      [ "profile"; "e1"; "junk" ];
      [ "sessions"; "bracha"; "junk" ];
      [ "sessions" ];
      [ "workload"; "election"; "junk" ];
      [ "workload" ];
      [ "check"; "bracha"; "junk" ];
      [ "check" ];
      [ "perf-diff"; "a.json"; "b.json"; "junk" ];
      [ "perf-diff"; "only-one.json" ];
      [ "profile" ];
    ]

(* The group and every subcommand document the one exit-code contract,
   and their help renders without a cmdliner markup error. *)
let test_help_documents_exits () =
  let out = temp ".help.out" in
  let subcommands =
    [
      "list"; "run"; "classify"; "test"; "exact"; "experiment"; "fault-sweep"; "profile";
      "sessions"; "workload"; "check"; "perf-diff";
    ]
  in
  List.iter
    (fun sub ->
      let what = String.concat " " ("simbcast" :: sub) in
      Alcotest.(check int)
        (what ^ " --help exits 0")
        0
        (command ~out (sub @ [ "--help=plain" ]));
      let help = read_file out in
      Alcotest.(check bool) (what ^ " lists exit 124") true
        (contains help "EXIT STATUS" && contains help "124 on a usage error");
      Alcotest.(check bool) (what ^ " help markup") false (contains help "cmdliner error"))
    ([] :: List.map (fun c -> [ c ]) subcommands);
  Sys.remove out

(* A malformed -x vector is a usage error (exit 124, naming the flag),
   not an uncaught exception (125). *)
let test_run_inputs_rejected () =
  let out = temp ".inputs.err" in
  List.iter
    (fun (what, args) ->
      Alcotest.(check int) (what ^ " exits 124") cli_error (command ~out args);
      Alcotest.(check bool) (what ^ " names -x") true (contains (read_file out) "-x"))
    [
      ("wrong-length -x", [ "run"; "bracha"; "-n"; "4"; "-x"; "101" ]);
      ("non-binary -x", [ "run"; "bracha"; "-n"; "4"; "-x"; "10a1" ]);
    ];
  Sys.remove out

(* An out-of-range corruption bound (t < 0 or t >= n) is a usage error
   on every subcommand that takes one, with a message naming the flag —
   never the context's assertion failure (125). *)
let test_thresh_rejected () =
  List.iter
    (fun (what, args) -> check_usage_error ~shows:"--thresh" what args)
    [
      ("run t = n + 2", [ "run"; "bracha"; "-n"; "3"; "-x"; "101"; "--thresh"; "5" ]);
      ("run t = -1", [ "run"; "bracha"; "-n"; "3"; "-x"; "101"; "--thresh=-1" ]);
      ("check t = n", [ "check"; "bracha"; "--n"; "3"; "--t"; "3" ]);
      ("check t = -1", [ "check"; "bracha"; "--n"; "3"; "--thresh=-1" ]);
      ("sessions t = n", [ "sessions"; "bracha"; "--count"; "2"; "-n"; "3"; "-t"; "3" ]);
      ( "sessions t = -1",
        [ "sessions"; "bracha"; "--count"; "2"; "-n"; "3"; "--thresh=-1" ] );
      ( "fault-sweep t = n",
        [ "fault-sweep"; "-p"; "concurrent-bracha"; "-n"; "3"; "-t"; "3" ] );
      ( "fault-sweep t = -1",
        [ "fault-sweep"; "-p"; "concurrent-bracha"; "-n"; "3"; "--thresh=-1" ] );
    ];
  check_usage_error ~shows:"Usage:" "check t = n"
    [ "check"; "bracha"; "--n"; "3"; "--t"; "3" ]

(* --- traced run ----------------------------------------------------- *)

let test_run_trace_output () =
  let trace = temp ".trace.json" in
  Alcotest.(check int) "traced run exits 0" 0
    (command [ "run"; "bracha"; "-n"; "8"; "--seed"; "3"; "--trace"; trace ]);
  let v = parse_file trace in
  let events = Option.bind (Json.member "traceEvents" v) Json.to_list_opt |> Option.get in
  let ph e = Option.bind (Json.member "ph" e) Json.to_str_opt in
  let count p = List.length (List.filter (fun e -> ph e = Some p) events) in
  Alcotest.(check bool) "span events present" true (count "X" > 0);
  Alcotest.(check bool) "flow events present" true (count "s" > 0);
  Alcotest.(check int) "flow starts pair with finishes" (count "s") (count "f");
  let cats =
    List.filter_map (fun e -> Option.bind (Json.member "cat" e) Json.to_str_opt) events
  in
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " cat present") true (List.mem c cats))
    [ "session"; "round"; "party"; "phase" ];
  Sys.remove trace

(* --- tracing leaves reports unchanged ------------------------------- *)

(* The deterministic surface of a run report: experiment outcomes
   (minus wall clock), the comm totals, and the metric counters.
   Gauges, histograms and the trace block are wall-clock derived, and
   the par.domain<k>.samples counters record which pool domain drained
   which chunk — scheduling accounting that varies between identical
   runs (the submitting domain competes with the workers), so they are
   excluded too. *)
let deterministic_subset json =
  let strip_wall = function
    | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "wall_clock_s") kvs)
    | other -> other
  in
  let exps =
    match Option.bind (Json.member "experiments" json) Json.to_list_opt with
    | Some l -> Json.List (List.map strip_wall l)
    | None -> Json.Null
  in
  let comm = Option.value ~default:Json.Null (Json.member "comm" json) in
  let counters =
    match Option.bind (Json.member "metrics" json) (Json.member "counters") with
    | Some (Json.Obj kvs) ->
        Json.Obj
          (List.filter (fun (k, _) -> not (String.starts_with ~prefix:"par.domain" k)) kvs)
    | _ -> Json.Null
  in
  Json.to_string (Json.List [ exps; comm; counters ])

let test_trace_keeps_reports_identical () =
  List.iter
    (fun jobs ->
      let plain = temp ".plain.json" and traced = temp ".traced.json" in
      let trace = temp ".trace.json" in
      let base = [ "experiment"; "e6"; "--quick"; "--jobs"; string_of_int jobs ] in
      Alcotest.(check int) "plain run exits 0" 0 (command (base @ [ "--report"; plain ]));
      Alcotest.(check int) "traced run exits 0" 0
        (command (base @ [ "--report"; traced; "--trace"; trace ]));
      Alcotest.(check string)
        (Printf.sprintf "deterministic report surface identical at jobs %d" jobs)
        (deterministic_subset (parse_file plain))
        (deterministic_subset (parse_file traced));
      (* The traced report carries the v3 trace block; the plain one
         doesn't. *)
      Alcotest.(check bool) "trace block only when traced" true
        (Json.member "trace" (parse_file traced) <> None
        && Json.member "trace" (parse_file plain) = None);
      List.iter Sys.remove [ plain; traced; trace ])
    [ 1; 2 ]

(* --- perf-diff ------------------------------------------------------- *)

let report_json timings =
  Json.to_string
    (Json.Obj
       [
         ("schema_version", Json.Int Report.schema_version);
         ("tag", Json.Str "cli-test");
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
       ])

let test_perf_diff_exit_codes () =
  let base = temp ".base.json" in
  let within = temp ".within.json" in
  let regressed = temp ".regressed.json" in
  let missing = temp ".missing.json" in
  write_file base (report_json [ ("gtester-smoke/20k", 1e6); ("crypto/pow_g", 500.0) ]);
  write_file within (report_json [ ("gtester-smoke/20k", 1.1e6); ("crypto/pow_g", 480.0) ]);
  write_file regressed (report_json [ ("gtester-smoke/20k", 1.5e6); ("crypto/pow_g", 480.0) ]);
  write_file missing (report_json [ ("crypto/pow_g", 480.0) ]);
  Alcotest.(check int) "within threshold passes" 0 (command [ "perf-diff"; base; within ]);
  Alcotest.(check int) "synthetic regression fails" 1 (command [ "perf-diff"; base; regressed ]);
  Alcotest.(check int) "missing baseline entry fails" 1 (command [ "perf-diff"; base; missing ]);
  Alcotest.(check int) "tighter threshold flips the verdict" 1
    (command [ "perf-diff"; base; within; "--threshold"; "0.05" ]);
  Alcotest.(check int) "--match can scope the regression away" 0
    (command [ "perf-diff"; base; regressed; "--match"; "crypto/" ]);
  Alcotest.(check int) "no matching entries is an error" cli_error
    (command [ "perf-diff"; base; within; "--match"; "nonexistent/" ]);
  List.iter Sys.remove [ base; within; regressed; missing ]

(* --- sessions -------------------------------------------------------- *)

let test_sessions_count_validation () =
  (* --count is validated by its converter: non-positive and
     unparseable values get the same usage error. *)
  List.iter
    (fun (what, args) ->
      check_usage_error ~shows:"--count" what ("sessions" :: "bracha" :: args))
    [
      ("count 0", [ "--count"; "0" ]);
      ("negative count", [ "--count=-4" ]);
      ("non-integer count", [ "--count=x" ]);
    ]

let test_sessions_usage_errors () =
  check_usage_error ~shows:"Usage:" "unknown protocol" [ "sessions"; "nosuch-proto" ];
  (* The session scheduler has no knob: --sched is an unknown option. *)
  List.iter
    (fun mode ->
      check_usage_error ~shows:"--sched" ("--sched " ^ mode)
        [ "sessions"; "bracha"; "--count"; "2"; "--sched"; mode ])
    [ "static"; "steal" ]

(* --- experiment --n-max --------------------------------------------- *)

let test_experiment_n_max_validation () =
  (* --n-max must be an integer >= 128 (its converter), and only
     applies to the E17 scaling sweep (a cross-flag check). *)
  List.iter
    (fun (what, args) -> check_usage_error ~shows:"--n-max" what ("experiment" :: args))
    [
      ("n-max 0", [ "e17"; "--quick"; "--n-max"; "0" ]);
      ("negative n-max", [ "e17"; "--quick"; "--n-max=-5" ]);
      ("non-integer n-max", [ "e17"; "--quick"; "--n-max"; "many" ]);
      ("n-max below the smallest E17 size", [ "e17"; "--quick"; "--n-max"; "64" ]);
      ("n-max on a non-e17 experiment", [ "e4"; "--quick"; "--n-max"; "128" ]);
    ]

let test_experiment_e17_quick_report () =
  (* A capped quick sweep exits 0 and writes a validating report whose
     single experiment entry is E17 and ok. *)
  let report = temp ".e17.json" in
  Alcotest.(check int) "e17 quick exits 0" 0
    (command [ "experiment"; "e17"; "--quick"; "--n-max"; "128"; "--report"; report ]);
  let json = parse_file report in
  (match Report.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "e17 report invalid: %s" e);
  match Option.bind (Json.member "experiments" json) Json.to_list_opt with
  | Some [ e ] ->
      Alcotest.(check (option string))
        "id" (Some "E17")
        (Option.bind (Json.member "id" e) Json.to_str_opt);
      Alcotest.(check bool) "ok" true
        (match Json.member "ok" e with Some (Json.Bool b) -> b | _ -> false)
  | _ -> Alcotest.fail "expected exactly one experiment entry"

let test_sessions_jobs_invariant () =
  (* End-to-end jobs-invariance: stdout minus the wall-clock-derived
     throughput line, the JSONL session log, and the report's sessions
     block (minus wall_s and the rates) are identical at jobs 1 and 2. *)
  let run jobs =
    let out = temp ".sessions.out" and log = temp ".sessions.jsonl" in
    let report = temp ".sessions.json" in
    Alcotest.(check int)
      (Printf.sprintf "sessions exits 0 at jobs %d" jobs)
      0
      (command ~out
         [
           "sessions"; "bracha,commit-open"; "--count"; "24"; "--seed"; "5";
           "--jobs"; string_of_int jobs; "--session-log"; log; "--report"; report;
         ]);
    let stdout_det =
      String.concat "\n"
        (List.filter
           (fun l ->
             not
               (String.starts_with ~prefix:"throughput" l
               || String.starts_with ~prefix:"sched" l
               || String.starts_with ~prefix:"wrote " l))
           (String.split_on_char '\n' (read_file out)))
    in
    let sessions_block =
      match Json.member "sessions" (parse_file report) with
      | Some (Json.Obj kvs) ->
          Json.to_string
            (Json.Obj
               (List.filter
                  (fun (k, _) ->
                    k <> "wall_s" && not (String.ends_with ~suffix:"_per_sec" k))
                  kvs))
      | _ -> Alcotest.fail "report lacks a sessions block"
    in
    let log_contents = read_file log in
    List.iter Sys.remove [ out; log; report ];
    (stdout_det, log_contents, sessions_block)
  in
  let o1, l1, s1 = run 1 and o2, l2, s2 = run 2 in
  Alcotest.(check string) "stdout jobs-invariant" o1 o2;
  Alcotest.(check string) "session log jobs-invariant" l1 l2;
  Alcotest.(check string) "sessions block jobs-invariant" s1 s2

(* --- workload -------------------------------------------------------- *)

let test_workload_usage_errors () =
  check_usage_error ~shows:"Usage:" "unknown workload" [ "workload"; "no-such-workload" ]

let test_workload_jobs_invariant () =
  (* End-to-end jobs-invariance on the election workload: stdout minus
     the wall-clock-derived throughput and scheduler-race sched lines,
     the JSONL session log, and the report's workload block are
     identical at jobs 1 and 2 — and the report validates at schema v7
     with the workload block present. *)
  let run jobs =
    let out = temp ".workload.out" and log = temp ".workload.jsonl" in
    let report = temp ".workload.json" in
    Alcotest.(check int)
      (Printf.sprintf "workload exits 0 at jobs %d" jobs)
      0
      (command ~out
         [
           "workload"; "election"; "--quick"; "--seed"; "5";
           "--jobs"; string_of_int jobs; "--session-log"; log; "--report"; report;
         ]);
    let stdout_det =
      String.concat "\n"
        (List.filter
           (fun l ->
             not
               (String.starts_with ~prefix:"throughput" l
               || String.starts_with ~prefix:"sched" l
               || String.starts_with ~prefix:"wrote " l))
           (String.split_on_char '\n' (read_file out)))
    in
    let json = parse_file report in
    (match Report.validate json with
    | Ok () -> ()
    | Error e -> Alcotest.failf "workload report invalid: %s" e);
    let workload_block =
      match Json.member "workload" json with
      | Some w -> Json.to_string w
      | None -> Alcotest.fail "report lacks a workload block"
    in
    Alcotest.(check (option string))
      "workload block names the workload" (Some "election")
      (Option.bind (Json.member "workload" json) (fun w ->
           Option.bind (Json.member "name" w) Json.to_str_opt));
    let log_contents = read_file log in
    List.iter Sys.remove [ out; log; report ];
    (stdout_det, log_contents, workload_block)
  in
  let o1, l1, w1 = run 1 and o2, l2, w2 = run 2 in
  Alcotest.(check string) "stdout jobs-invariant" o1 o2;
  Alcotest.(check string) "session log jobs-invariant" l1 l2;
  Alcotest.(check string) "workload block jobs-invariant" w1 w2

(* --- check ----------------------------------------------------------- *)

let test_check_usage_errors () =
  (* Unknown protocol and n outside the exhaustive-checking range print
     the usage line. *)
  List.iter
    (fun (what, args) -> check_usage_error ~shows:"Usage:" what ("check" :: args))
    [
      ("unknown protocol", [ "no-such-proto" ]);
      ("n above the budget", [ "bracha"; "--n"; "6" ]);
      ("n = 0", [ "bracha"; "--n"; "0" ]);
    ]

let test_check_holding_cell () =
  let out = temp ".check.out" and report = temp ".check.json" in
  Alcotest.(check int) "check bracha 4/1 exits 0" 0
    (command ~out [ "check"; "bracha"; "--n"; "4"; "--t"; "1"; "--report"; report ]);
  let printed = read_file out in
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (contains printed line))
    [
      "agreement      : exact-pass";
      "validity       : exact-pass";
      "unforgeability : exact-pass";
    ];
  Alcotest.(check bool) "no violation at 4/1" false (contains printed "VIOLATED");
  (* The report validates at schema v5 and carries the check block. *)
  let v = parse_file report in
  (match Report.validate v with
  | Ok () -> ()
  | Error e -> Alcotest.failf "check report invalid: %s" e);
  let check_block = Option.get (Json.member "check" v) in
  let int_field k = Option.bind (Json.member k check_block) Json.to_int_opt |> Option.get in
  Alcotest.(check int) "explored" 1376 (int_field "explored");
  Alcotest.(check int) "memo hits" 408 (int_field "memo_hits");
  Alcotest.(check int) "terminals" 496 (int_field "terminals");
  List.iter Sys.remove [ out; report ]

let test_check_violated_cell () =
  let out = temp ".check.out" in
  Alcotest.(check int) "check bracha 4/2 exits 0" 0
    (command ~out [ "check"; "bracha"; "--n"; "4"; "--t"; "2" ]);
  let printed = read_file out in
  Alcotest.(check bool) "validity violated at 4/2" true (contains printed "VIOLATED");
  Alcotest.(check bool) "prints a replay hint" true (contains printed "simbcast run");
  Sys.remove out

let test_check_reports_deterministic () =
  (* Two identical check invocations must produce byte-identical
     reports: the check path opens no spans and reads no clocks. *)
  let r1 = temp ".check1.json" and r2 = temp ".check2.json" in
  let args report =
    [ "check"; "dolev-strong"; "--n"; "4"; "--t"; "1"; "--seed"; "9"; "--report"; report ]
  in
  Alcotest.(check int) "first check exits 0" 0 (command (args r1));
  Alcotest.(check int) "second check exits 0" 0 (command (args r2));
  Alcotest.(check string) "reports byte-identical" (read_file r1) (read_file r2);
  List.iter Sys.remove [ r1; r2 ]

let test_check_counterexample_replays () =
  (* The bracha 4/2 validity counterexample is the empty plan with a
     benign-faulty sender: replaying that configuration through the
     real network reproduces the violation (input 1 announced as 0). *)
  let out = temp ".replay.out" in
  Alcotest.(check int) "replay run exits 0" 0
    (command ~out [ "run"; "bracha"; "-n"; "4"; "-t"; "2"; "-x"; "1000" ]);
  let printed = read_file out in
  Alcotest.(check bool) "replay reproduces the violation" true
    (contains printed "announced  : 0000");
  Sys.remove out

(* --- profile --------------------------------------------------------- *)

let test_profile_runs () =
  let out = temp ".profile.out" in
  Alcotest.(check int) "profile exits 0" 0
    (command ~out [ "profile"; "e6"; "--quick"; "--top"; "5" ]);
  let printed = read_file out in
  Alcotest.(check bool) "prints the attribution table" true
    (contains printed "phase-time attribution");
  Alcotest.(check bool) "prints flame paths" true (contains printed "/round/");
  Sys.remove out

let () =
  (if Array.length Sys.argv < 2 then (
     prerr_endline "usage: test_cli SIMBCAST_BINARY";
     exit 2));
  simbcast := Sys.argv.(1);
  Alcotest.run ~argv:[| "test_cli" |] "simbcast_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "trailing args rejected" `Quick test_trailing_args_rejected;
          Alcotest.test_case "help documents the exit codes" `Quick
            test_help_documents_exits;
          Alcotest.test_case "run -x usage errors" `Quick test_run_inputs_rejected;
          Alcotest.test_case "out-of-range --thresh usage errors" `Quick test_thresh_rejected;
          Alcotest.test_case "traced run emits valid trace JSON" `Quick test_run_trace_output;
          Alcotest.test_case "tracing keeps reports identical (jobs 1, 2)" `Quick
            test_trace_keeps_reports_identical;
          Alcotest.test_case "perf-diff exit codes" `Quick test_perf_diff_exit_codes;
          Alcotest.test_case "experiment --seed" `Quick test_experiment_seed;
          Alcotest.test_case "experiment --n-max validation" `Quick
            test_experiment_n_max_validation;
          Alcotest.test_case "e17 quick report validates" `Quick
            test_experiment_e17_quick_report;
          Alcotest.test_case "sessions --count validation" `Quick
            test_sessions_count_validation;
          Alcotest.test_case "sessions usage errors" `Quick test_sessions_usage_errors;
          Alcotest.test_case "sessions jobs-invariant (jobs 1, 2)" `Quick
            test_sessions_jobs_invariant;
          Alcotest.test_case "workload usage errors" `Quick test_workload_usage_errors;
          Alcotest.test_case "workload jobs-invariant (jobs 1, 2)" `Quick
            test_workload_jobs_invariant;
          Alcotest.test_case "check usage errors" `Quick test_check_usage_errors;
          Alcotest.test_case "check holding cell (bracha 4/1)" `Quick test_check_holding_cell;
          Alcotest.test_case "check violated cell (bracha 4/2)" `Quick
            test_check_violated_cell;
          Alcotest.test_case "check reports byte-identical" `Quick
            test_check_reports_deterministic;
          Alcotest.test_case "check counterexample replays" `Quick
            test_check_counterexample_replays;
          Alcotest.test_case "profile prints attribution" `Quick test_profile_runs;
        ] );
    ]
