(* simbcast — command-line front end to the simultaneous-broadcast
   reproduction.

     simbcast list                         catalogue of protocols/dists/adversaries
     simbcast run -p gennaro-constant -x 10110
     simbcast classify -d xor-parity -n 5
     simbcast test -t cr -p naive-sequential -a echo -d uniform
     simbcast experiment e5
     simbcast bench quick tables --csv=out *)

open Cmdliner

(* --- shared argument parsing -------------------------------------- *)

let dist_names = [ "uniform"; "xor-parity"; "copy-pair"; "biased"; "almost-uniform"; "rare-leak" ]

let dist_of_name name n =
  match name with
  | "uniform" -> Ok (Sb_dist.Dist.uniform n)
  | "xor-parity" -> Ok (Sb_dist.Dist.xor_parity ~even:true n)
  | "copy-pair" when n < 2 -> Error (Printf.sprintf "-d copy-pair needs n >= 2 (got %d)" n)
  | "copy-pair" -> Ok (Sb_dist.Dist.copy_pair n)
  | "biased" -> Ok (Sb_dist.Dist.product 0.25 n)
  | "almost-uniform" ->
      Ok ((Sb_dist.Family.almost_uniform n).Sb_dist.Family.ensemble.Sb_dist.Ensemble.at 8)
  | "rare-leak" ->
      Ok ((Sb_dist.Family.rare_leak n).Sb_dist.Family.ensemble.Sb_dist.Ensemble.at 8)
  | other -> Error (Printf.sprintf "unknown distribution %S (try: %s)" other
                      (String.concat ", " dist_names))

let adversary_names = [ "passive"; "semi-honest"; "echo"; "a-star"; "withhold"; "silent" ]

(* Every named adversary but [passive] corrupts the last one or two
   parties, which the bound t must allow. *)
let adversary_of_name name (protocol : Sb_sim.Protocol.t) ~n ~thresh =
  let corrupting k adversary =
    if k <= thresh then Ok adversary
    else
      Error
        (Printf.sprintf "-a %s corrupts %d %s, more than t = %d (n = %d)" name k
           (if k = 1 then "party" else "parties")
           thresh n)
  in
  match name with
  | "passive" -> Ok Core.Adversaries.passive
  | "semi-honest" ->
      corrupting 2 (Core.Adversaries.semi_honest protocol ~corrupt:[ n - 2; n - 1 ])
  | "echo" ->
      let mode =
        if String.equal protocol.Sb_sim.Protocol.name "naive-concurrent" then `Concurrent
        else `Sequential
      in
      corrupting 1 (Core.Adversaries.echo ~mode ~copier:(n - 1) ~target:0 ())
  | "a-star" -> corrupting 2 (Core.Adversaries.a_star ~corrupt:(n - 2, n - 1))
  | "silent" -> corrupting 1 (Core.Adversaries.silent ~corrupt:[ n - 1 ])
  | "withhold" ->
      let reveal_round, prefix, probe =
        if String.equal protocol.Sb_sim.Protocol.name "commit-open" then
          ((fun _ -> 1), "co-open", Core.Adversaries.probe_commit_open_parity)
        else
          ( (fun (ctx : Sb_sim.Ctx.t) ->
              if String.equal protocol.Sb_sim.Protocol.name "cgma-vss" then
                Sb_protocols.Cgma.reveal_round ~n:ctx.Sb_sim.Ctx.n
              else if String.equal protocol.Sb_sim.Protocol.name "chor-rabin-log" then
                Sb_protocols.Chor_rabin.reveal_round ~n:ctx.Sb_sim.Ctx.n
              else Sb_protocols.Gennaro.reveal_round),
            "vss:",
            Core.Adversaries.probe_vss_secret ~dealer:0 )
      in
      corrupting 1
        (Core.Adversaries.reveal_withhold protocol ~corrupt:[ n - 1 ] ~reveal_round
           ~reveal_tag_prefix:prefix ~honest_probe:probe)
  | other ->
      Error (Printf.sprintf "unknown adversary %S (try: %s)" other
               (String.concat ", " adversary_names))

let protocol_of_name name =
  match Sb_protocols.Registry.find name with
  | Some e -> Ok e.Sb_protocols.Registry.protocol
  | None -> (
      if String.equal name "commit-open" then Ok Sb_protocols.Commit_open.protocol
      else
        let substrates = Core.Resilience.substrates () in
        match List.assoc_opt name substrates with
        | Some p -> Ok p
        | None -> (
            (* Substrate shorthand: `bracha` for `concurrent-bracha`. *)
            match List.assoc_opt ("concurrent-" ^ name) substrates with
            | Some p -> Ok p
            | None ->
                Error
                  (Printf.sprintf "unknown protocol %S (try: %s)" name
                     (String.concat ", "
                        (("commit-open" :: Sb_protocols.Registry.names)
                        @ List.map fst substrates)))))

(* [-n] outside the range a subcommand supports fails in its conv: a
   usage error naming the flag. Input distributions are tabulated, so
   a subcommand that draws inputs caps n at [Dist.max_n]. *)
let n_arg ?(lo = 1) ?(hi = Sb_dist.Dist.max_n) () =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | _ when hi = max_int ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
    | _ -> Error (`Msg (Printf.sprintf "expected an integer in %d..%d, got %S" lo hi s))
  in
  let doc = "Number of parties." in
  let parties = Arg.conv ~docv:"N" (parse, Format.pp_print_int) in
  Arg.(value & opt parties 5 & info [ "n"; "parties" ] ~doc)

let thresh_arg =
  let doc = "Corruption bound t (default (n-1)/2)." in
  Arg.(value & opt (some int) None & info [ "t"; "thresh" ] ~doc)

let seed_arg =
  let doc = "Master seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let protocol_arg =
  let doc = "Protocol name (see `simbcast list`)." in
  Arg.(value & opt string "gennaro-constant" & info [ "p"; "protocol" ] ~doc)

let dist_arg =
  let doc = "Input distribution name." in
  Arg.(value & opt string "uniform" & info [ "d"; "dist" ] ~doc)

let adversary_arg =
  let doc = "Adversary name." in
  Arg.(value & opt string "passive" & info [ "a"; "adversary" ] ~doc)

(* A 0- or negative-domain pool is meaningless; reject it at parse
   time with a proper cmdliner diagnostic instead of letting the pool
   constructor blow up mid-run. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some i when i > 0 -> Ok i
    | Some i -> Error (`Msg (Printf.sprintf "expected a positive integer, got %d" i))
    | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo sampling (default: physical cores; must be \
     positive). Results are byte-identical for every value, including 1."
  in
  Arg.(value & opt (some pos_int) None & info [ "j"; "jobs" ] ~doc ~docv:"N")

let samples_arg =
  let doc = "Monte-Carlo sample budget (positive)." in
  Arg.(value & opt pos_int 6000 & info [ "samples" ] ~doc ~docv:"N")

let setup_jobs = function
  | None -> ()
  | Some j -> Sb_par.Pool.set_default_domains j

(* Every usage error goes through cmdliner: a value that alone is
   invalid fails in its Arg.conv, a cross-flag check returns [fail]
   (message only) or [fail_usage] (message plus the usage line) from a
   [Term.ret] term. Both exit 124, the one usage code in [exits]. *)
let fail fmt = Printf.ksprintf (fun s -> `Error (false, s)) fmt
let fail_usage fmt = Printf.ksprintf (fun s -> `Error (true, s)) fmt

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "on a failed cross-check ($(b,check) against the recorded exact cells, or an \
         $(b,experiment) whose paper-shape check prints MISMATCH), a perf regression \
         ($(b,perf-diff)) or an I/O error writing an output file.";
    Cmd.Exit.info Cmd.Exit.cli_error
      ~doc:"on a usage error: an unparseable, out-of-range or inconsistent argument.";
    Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on an unexpected internal error.";
  ]

(* [-t] defaults to (n-1)/2. An explicit bound must satisfy 0 <= t < n,
   as every execution context requires; callers report a violation as
   a usage error. *)
let resolve_thresh n = function
  | None -> Ok ((n - 1) / 2)
  | Some t when t < 0 || t >= n ->
      Error (Printf.sprintf "--thresh %d: must satisfy 0 <= t < n = %d" t n)
  | Some t -> Ok t

(* --- fault plans ---------------------------------------------------- *)

let faults_arg =
  let doc =
    "Inject faults: ';'-separated specs crash:$(i,P)@$(i,R), \
     drop:$(i,PROB)[:$(i,SRC)->$(i,DST)][@$(i,R)], \
     delay:$(i,BY)[:$(i,SRC)->$(i,DST)][@$(i,R)], \
     part:$(i,G)|$(i,G)@$(i,FIRST)-$(i,LAST) ('*' matches any endpoint; @$(i,R) \
     scopes a drop/delay to one sending round), e.g. \
     'crash:4@1;drop:0.1;delay:2:0->3' or the checker-style 'drop:1:2->0@1'."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~doc ~docv:"SPEC")

let plan_of_spec ~n = function
  | None -> Ok []
  | Some s -> (
      match Sb_fault.Plan.of_string s with
      | Error e -> Error (Printf.sprintf "--faults: %s" e)
      | Ok plan -> (
          match Sb_fault.Plan.validate ~n plan with
          | Error e -> Error (Printf.sprintf "--faults: %s" e)
          | Ok () -> Ok plan))

(* --- observability plumbing ---------------------------------------- *)

let metrics_arg =
  let doc = "Collect metrics and print a summary table at the end." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let report_arg =
  let doc = "Write a versioned JSON run report (implies metric collection)." in
  Arg.(value & opt (some string) None & info [ "report" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Record a causal trace (session/round/party/phase span trees, flow edges per \
     delivered envelope) and write it as Chrome trace-event JSON to $(docv) — open in \
     ui.perfetto.dev. Tracing never perturbs seeded protocol outputs."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let setup_obs ?trace metrics report =
  if metrics || report <> None then Sb_obs.Metrics.set_enabled true;
  match trace with
  | Some _ -> Sb_obs.Trace_ctx.set_enabled true
  | None -> ()

(* Output files: a write that fails is an I/O error, exit 1. *)
let write_trace file =
  try
    Sb_obs.Perfetto.write_file file;
    Printf.printf "wrote %s (%d/%d sessions traced)\n" file
      (Sb_obs.Trace_ctx.sessions_traced ())
      (Sb_obs.Trace_ctx.session_total ())
  with Sys_error msg ->
    Printf.eprintf "simbcast: cannot write trace: %s\n" msg;
    exit 1

let write_report file report =
  try
    Sb_obs.Report.write_file file report;
    Printf.printf "wrote %s\n" file
  with Sys_error msg ->
    Printf.eprintf "simbcast: cannot write report: %s\n" msg;
    exit 1

(* [file] under [dir], which is created if missing. *)
let write_csv dir file contents =
  let path = Filename.concat dir file in
  let cannot msg =
    Printf.eprintf "simbcast: cannot write %s: %s\n" path msg;
    exit 1
  in
  try
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Out_channel.with_open_text path (fun oc -> output_string oc contents);
    Printf.printf "wrote %s\n" path
  with
  | Sys_error msg -> cannot msg
  | Unix.Unix_error (e, _, _) -> cannot (Unix.error_message e)

(* Instrumentation never touches the split RNG streams, so the printed
   protocol outputs are identical with or without these flags. *)
let finish_obs ?(experiments = []) ?trace ?sessions ?check ?workload ~tag metrics report =
  Option.iter write_trace trace;
  if metrics then Sb_util.Tabular.print (Sb_obs.Metrics.to_table ());
  Option.iter
    (fun file ->
      let trace_block = Option.map (fun _ -> Sb_obs.Perfetto.summary ()) trace in
      write_report file
        (Sb_obs.Report.make ~tool:"simbcast" ~tag
           ~jobs:(Sb_par.Pool.get_default_domains ())
           ~experiments ?trace:trace_block ?sessions ?check ?workload ()))
    report

(* --- list ---------------------------------------------------------- *)

let claim_cell b = if b then "claims independence" else "parallel only"

let list_cmd =
  let run () =
    let table =
      Sb_util.Tabular.create ~title:"protocols" ~columns:[ "name"; "independence"; "resilience" ]
    in
    List.iter
      (fun (e : Sb_protocols.Registry.entry) ->
        Sb_util.Tabular.add_row table
          [
            e.Sb_protocols.Registry.protocol.Sb_sim.Protocol.name;
            claim_cell e.Sb_protocols.Registry.claims_independence;
            e.Sb_protocols.Registry.min_honest_fraction;
          ])
      Sb_protocols.Registry.all;
    Sb_util.Tabular.add_row table [ "commit-open"; "none (ablation target)"; "t < n/2" ];
    Sb_util.Tabular.print table;
    Printf.printf "distributions: %s\n" (String.concat ", " dist_names);
    Printf.printf "adversaries  : %s\n" (String.concat ", " adversary_names);
    Printf.printf "experiments  : e1..e8, e10..e18  (experiment, bench; e9 = its timing section)\n";
    Printf.printf "workloads    : %s  (workload, quick/full tiers)\n"
      (String.concat ", " Sb_workload.Workload.names);
    Printf.printf "fault plans  : crash:P@R  drop:PROB[:S->D][@R]  delay:BY[:S->D][@R]  part:G|G@A-B  (fault-sweep, run --faults)\n";
    Printf.printf "checkable    : %s  (check, n <= %d)\n"
      (String.concat ", " (List.map fst Sb_check.Checker.schemes))
      Sb_check.Checker.max_n
  in
  Cmd.v (Cmd.info "list" ~exits ~doc:"List protocols, distributions and adversaries")
    Term.(const run $ const ())

(* --- run ------------------------------------------------------------ *)

let verbose_arg =
  let doc = "Log network round events to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logging verbose =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.Src.set_level Sb_sim.Network.log_src (Some Logs.Debug)
  end

(* An explicit [-x] vector: exactly n characters, each 0 or 1. *)
let inputs_of_arg ~n = function
  | None -> Ok None
  | Some s when String.length s <> n ->
      Error (Printf.sprintf "-x %S: length %d, must equal n = %d" s (String.length s) n)
  | Some s when not (String.for_all (fun c -> c = '0' || c = '1') s) ->
      Error (Printf.sprintf "-x %S: inputs must be 0 or 1" s)
  | Some s -> Ok (Some (Sb_util.Bitvec.of_string s))

let run_cmd =
  let inputs_arg =
    let doc = "Input bit vector, e.g. 10110 (defaults to uniform random)." in
    Arg.(value & opt (some string) None & info [ "x"; "inputs" ] ~doc)
  in
  let pos_protocol_arg =
    let doc = "Protocol name (positional alternative to $(b,-p))." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc)
  in
  let run pos_pname pname n thresh seed inputs adversary_name fault_spec verbose metrics
      report trace jobs =
    (* `simbcast run bracha ...` and `simbcast run -p bracha ...` are
       equivalent; the positional wins when both are given. *)
    let pname = Option.value ~default:pname pos_pname in
    setup_logging verbose;
    setup_obs ?trace metrics report;
    setup_jobs jobs;
    match
      ( protocol_of_name pname,
        plan_of_spec ~n fault_spec,
        inputs_of_arg ~n inputs,
        resolve_thresh n thresh )
    with
    | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e -> fail "%s" e
    | Ok protocol, Ok plan, Ok given, Ok thresh -> (
        match adversary_of_name adversary_name protocol ~n ~thresh with
        | Error e -> fail "%s" e
        | Ok adversary ->
            let rng = Sb_util.Rng.create seed in
            let x =
              match given with Some x -> x | None -> Sb_util.Bitvec.random rng n
            in
            let setup = Core.Setup.{ default with n; thresh; seed } in
            let faults =
              if plan = [] then None else Some (Sb_fault.Inject.compile ~n plan)
            in
            let r = Core.Announced.run_once setup ~protocol ~adversary ~x ?faults rng in
            Printf.printf "protocol   : %s\n" protocol.Sb_sim.Protocol.name;
            Printf.printf "adversary  : %s (corrupted %s)\n" adversary.Sb_sim.Adversary.name
              (String.concat "," (List.map string_of_int r.Core.Announced.corrupted));
            if plan <> [] then begin
              match Sb_fault.Plan.crashed_parties plan with
              | [] -> Printf.printf "faults     : %s\n" (Sb_fault.Plan.to_string plan)
              | crashed ->
                  Printf.printf "faults     : %s (crashed %s)\n" (Sb_fault.Plan.to_string plan)
                    (String.concat "," (List.map string_of_int crashed))
            end;
            Printf.printf "inputs     : %s\n" (Sb_util.Bitvec.to_string r.Core.Announced.x);
            Printf.printf "announced  : %s\n" (Sb_util.Bitvec.to_string r.Core.Announced.w);
            Printf.printf "consistent : %b\n" r.Core.Announced.consistent;
            finish_obs ?trace ~tag:"run" metrics report;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Run one protocol execution and print the announced vector")
    Term.(
      ret
        (const run $ pos_protocol_arg $ protocol_arg $ n_arg ~hi:max_int () $ thresh_arg
       $ seed_arg $ inputs_arg $ adversary_arg $ faults_arg $ verbose_arg $ metrics_arg
       $ report_arg $ trace_arg $ jobs_arg))

(* --- classify ------------------------------------------------------- *)

let classify_cmd =
  let run dname n =
    let entries = Sb_dist.Family.battery n in
    let matching =
      List.filter
        (fun (e : Sb_dist.Family.entry) ->
          dname = "all"
          || String.length e.Sb_dist.Family.ensemble.Sb_dist.Ensemble.name >= String.length dname
             && String.sub e.Sb_dist.Family.ensemble.Sb_dist.Ensemble.name 0 (String.length dname)
                = dname)
        entries
    in
    if matching = [] then fail "no battery distribution matches %S" dname
    else begin
      List.iter
        (fun (e : Sb_dist.Family.entry) ->
          let v = Sb_dist.Classes.classify e.Sb_dist.Family.ensemble in
          Format.printf "%-34s %a@." e.Sb_dist.Family.ensemble.Sb_dist.Ensemble.name
            Sb_dist.Classes.pp v;
          Format.printf "  note: %s@." e.Sb_dist.Family.note)
        matching;
      `Ok ()
    end
  in
  let dist_prefix =
    let doc = "Distribution name prefix from the battery, or 'all'." in
    Arg.(value & opt string "all" & info [ "d"; "dist" ] ~doc)
  in
  Cmd.v
    (Cmd.info "classify" ~exits
       ~doc:"Classify input distributions into the paper's classes")
    Term.(ret (const run $ dist_prefix $ n_arg ~lo:3 ()))

(* --- test ----------------------------------------------------------- *)

let test_cmd =
  let tester_arg =
    let doc = "Which definition to test: cr, g, gss, or sb." in
    Arg.(value & opt string "cr" & info [ "t"; "tester" ] ~doc)
  in
  let run tester pname aname dname n samples seed metrics report jobs =
    setup_obs metrics report;
    setup_jobs jobs;
    let done_obs ret =
      finish_obs ~tag:("test-" ^ tester) metrics report;
      ret
    in
    match protocol_of_name pname with
    | Error e -> fail "%s" e
    | Ok protocol -> (
        let thresh = (n - 1) / 2 in
        match (adversary_of_name aname protocol ~n ~thresh, dist_of_name dname n) with
        | Error e, _ | _, Error e -> fail "%s" e
        | Ok adversary, Ok dist -> (
            let setup = Core.Setup.{ default with n; thresh; samples; seed } in
            match tester with
            | "cr" ->
                let r = Core.Cr_test.run setup ~protocol ~adversary ~dist () in
                Printf.printf "CR verdict: %s\n" (Sb_stats.Verdict.to_string r.Core.Cr_test.verdict);
                (match r.Core.Cr_test.worst with
                | Some w ->
                    Format.printf "worst: honest P%d, predicate %s, gap %a@."
                      w.Core.Cr_test.honest_party w.Core.Cr_test.predicate Sb_stats.Estimate.pp
                      w.Core.Cr_test.gap
                | None -> ());
                done_obs (`Ok ())
            | "g" ->
                let r = Core.G_test.run setup ~protocol ~adversary ~dist () in
                Printf.printf "G verdict: %s (buckets %d used, %d skipped)\n"
                  (Sb_stats.Verdict.to_string r.Core.G_test.verdict) r.Core.G_test.buckets_used
                  r.Core.G_test.buckets_skipped;
                (match r.Core.G_test.worst with
                | Some w ->
                    Format.printf "worst bucket %s for P%d: gap %a@."
                      (Sb_util.Bitvec.to_string w.Core.G_test.bucket) w.Core.G_test.corrupted_party
                      Sb_stats.Estimate.pp w.Core.G_test.gap
                | None -> ());
                done_obs (`Ok ())
            | "gss" ->
                let r = Core.Gss_test.run setup ~protocol ~adversary () in
                Printf.printf "G** verdict: %s\n" (Sb_stats.Verdict.to_string r.Core.Gss_test.verdict);
                (match r.Core.Gss_test.worst with
                | Some w ->
                    Format.printf "worst pair x=%s vs x=%s for P%d: gap %a@."
                      (Sb_util.Bitvec.to_string w.Core.Gss_test.r)
                      (Sb_util.Bitvec.to_string w.Core.Gss_test.s)
                      w.Core.Gss_test.corrupted_party Sb_stats.Estimate.pp w.Core.Gss_test.gap
                | None -> ());
                done_obs (`Ok ())
            | "sb" ->
                let r =
                  Core.Sb_test.run setup ~protocol ~adversary ~dist
                    ~simulator:Core.Sb_test.truthful ()
                in
                Printf.printf "Sb verdict: %s\n" (Sb_stats.Verdict.to_string r.Core.Sb_test.verdict);
                List.iter
                  (fun (f : Core.Sb_test.falsifier_result) ->
                    if f.Core.Sb_test.verdict = Sb_stats.Verdict.Fail then
                      Format.printf "falsified by %s: real %a, ideal band [%.3f, %.3f]@."
                        f.Core.Sb_test.falsifier Sb_stats.Estimate.pp f.Core.Sb_test.real_p
                        f.Core.Sb_test.ideal_min f.Core.Sb_test.ideal_max)
                  r.Core.Sb_test.falsifiers;
                (match (r.Core.Sb_test.sim_tvd, r.Core.Sb_test.baseline_tvd) with
                | Some t, Some b ->
                    Printf.printf "joint TVD vs truthful simulator: %.4f (baseline %.4f)\n" t b
                | _ -> ());
                done_obs (`Ok ())
            | other -> fail "unknown tester %S (cr, g, gss, sb)" other))
  in
  Cmd.v
    (Cmd.info "test" ~exits
       ~doc:"Run an independence tester on (protocol, adversary, distribution)")
    Term.(
      ret
        (const run $ tester_arg $ protocol_arg $ adversary_arg $ dist_arg $ n_arg ()
       $ samples_arg $ seed_arg $ metrics_arg $ report_arg $ jobs_arg))

(* --- exact ----------------------------------------------------------- *)

let exact_cmd =
  let scenario_arg =
    let doc = "Closed-form scenario: identity, echo, or pi-g." in
    Arg.(value & opt string "pi-g" & info [ "s"; "scenario" ] ~doc)
  in
  let run scenario dname n =
    match dist_of_name dname n with
    | Error e -> fail "%s" e
    | Ok dist -> (
        let show name w_dist ~honest ~corrupted =
          Format.printf "scenario      : %s over %s (n = %d)@." name dname n;
          Format.printf "exact CR gap  : %.6f (battery of %d predicates)@."
            (Core.Exact.cr_gap_battery w_dist ~honest)
            (List.length (Core.Predicate.battery ~n));
          Format.printf "exact G gap   : %.6f@." (Core.Exact.g_gap w_dist ~corrupted)
        in
        match scenario with
        | "identity" ->
            show "announced = inputs" dist ~honest:(List.init n Fun.id) ~corrupted:[];
            `Ok ()
        | "echo" ->
            let w =
              Core.Exact.push_deterministic dist (Core.Exact.echo_map ~copier:(n - 1) ~target:0)
            in
            show "echo (copier = last, target = 0)" w
              ~honest:(List.init (n - 1) Fun.id)
              ~corrupted:[ n - 1 ];
            `Ok ()
        | "pi-g" when n < 2 ->
            fail "-n %d: the pi-g scenario corrupts two parties, so needs n >= 2" n
        | "pi-g" ->
            let w =
              Core.Exact.push_coin dist (Core.Exact.pi_g_astar_map ~l1:(n - 2) ~l2:(n - 1))
            in
            show "Pi_G under A* (last two corrupted)" w
              ~honest:(List.init (n - 2) Fun.id)
              ~corrupted:[ n - 2; n - 1 ];
            `Ok ()
        | other -> fail "unknown scenario %S (identity, echo, pi-g)" other)
  in
  Cmd.v
    (Cmd.info "exact" ~exits
       ~doc:"Compute CR/G independence gaps in closed form for analytically known scenarios")
    Term.(ret (const run $ scenario_arg $ dist_arg $ n_arg ()))

(* --- experiments: bench, experiment, profile ---------------------------- *)

let quick_arg =
  let doc = "Reduced sample budget." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let budget quick =
  if quick then Core.Setup.with_samples 2000 Core.Setup.default else Core.Setup.default

let find_experiment id =
  match Core.Experiments.find id with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown experiment %S (try: %s)" id
           (String.concat ", " (Core.Experiments.ids ())))

let timed_run (e : Core.Experiments.entry) setup =
  let t0 = Unix.gettimeofday () in
  let o = e.Core.Experiments.run setup in
  (o, Unix.gettimeofday () -. t0)

(* Table, CSV, notes and verdict of one outcome; returns its report
   entry. *)
let print_outcome ?csv ((o : Core.Experiments.outcome), wall) =
  Sb_util.Tabular.print o.table;
  Option.iter
    (fun dir ->
      write_csv dir (String.lowercase_ascii o.id ^ ".csv") (Sb_util.Tabular.to_csv o.table))
    csv;
  List.iter (Printf.printf "note: %s\n") o.notes;
  Printf.printf "%s: paper-shape check %s (%d rows)\n\n" o.id
    (if o.ok then "OK" else "MISMATCH")
    o.rows_checked;
  {
    Sb_obs.Report.id = o.id;
    title = o.title;
    ok = o.ok;
    rows_checked = o.rows_checked;
    wall_clock_s = wall;
    notes = o.notes;
  }

let csv_arg ~doc = Arg.(value & opt (some string) None & info [ "csv" ] ~doc ~docv:"DIR")

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id (e1..e8, e10..e18)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let n_max_arg =
    let doc =
      "Cap the E17 size sweep at $(docv) parties (an integer, at least 128 — the \
       smallest E17 size). Only meaningful with e17."
    in
    let at_least_128 =
      let parse s =
        match int_of_string_opt s with
        | Some m when m >= 128 -> Ok m
        | _ ->
            Error
              (`Msg
                (Printf.sprintf "expected an integer >= 128 (the smallest E17 size), got %S"
                   s))
      in
      Arg.conv ~docv:"N" (parse, Format.pp_print_int)
    in
    Arg.(value & opt (some at_least_128) None & info [ "n-max" ] ~doc ~docv:"N")
  in
  let run id quick seed csv n_max metrics report trace jobs =
    setup_obs ?trace metrics report;
    setup_jobs jobs;
    match (find_experiment id, n_max) with
    | Error e, _ -> fail "%s" e
    | Ok e, Some _ when String.lowercase_ascii e.Core.Experiments.id <> "e17" ->
        fail "--n-max only applies to experiment e17"
    | Ok e, n_max ->
        let e =
          match n_max with
          | None -> e
          | Some m ->
              Core.Experiments.entry "E17" e.Core.Experiments.title
                (Core.Experiments.e17_scaling ~n_max:m)
        in
        let entry = print_outcome ?csv (timed_run e (Core.Setup.with_seed seed (budget quick))) in
        finish_obs ~experiments:[ entry ] ?trace ~tag:(String.lowercase_ascii entry.id) metrics
          report;
        if not entry.ok then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "experiment" ~exits ~doc:"Reproduce one of the paper's claims (E1..E18)")
    Term.(
      ret
        (const run $ id_arg $ quick_arg $ seed_arg
        $ csv_arg ~doc:"Also dump the table as $(docv)/<id>.csv."
        $ n_max_arg $ metrics_arg $ report_arg $ trace_arg $ jobs_arg))

(* --- bench ------------------------------------------------------------ *)

type bench_word = Quick | Timing | Tables | Id of Core.Experiments.entry

let bench_cmd =
  let word =
    let parse = function
      | "quick" -> Ok Quick
      | "timing" -> Ok Timing
      | "tables" -> Ok Tables
      | id -> (
          match find_experiment id with Ok e -> Ok (Id e) | Error m -> Error (`Msg m))
    in
    let print ppf = function
      | Quick -> Format.pp_print_string ppf "quick"
      | Timing -> Format.pp_print_string ppf "timing"
      | Tables -> Format.pp_print_string ppf "tables"
      | Id e -> Format.pp_print_string ppf e.Core.Experiments.id
    in
    Arg.conv ~docv:"WORD" (parse, print)
  in
  let words_arg =
    let doc =
      "$(b,quick) (reduced sample budget), $(b,timing) (only the E9 Bechamel section), \
       $(b,tables) (skip it), or experiment ids to run instead of the whole catalogue."
    in
    Arg.(value & pos_all word [] & info [] ~docv:"WORD" ~doc)
  in
  let count_arg =
    let doc = "Batch size of the sessions probe (must be positive)." in
    Arg.(value & opt pos_int 120 & info [ "count" ] ~doc ~docv:"N")
  in
  let run words csv count jobs =
    (* The bench run is the perf-trajectory artifact: observability on. *)
    Sb_obs.Metrics.set_enabled true;
    setup_jobs jobs;
    let quick = List.mem Quick words and timing_only = List.mem Timing words in
    let ids = List.filter_map (function Id e -> Some e | _ -> None) words in
    let experiments =
      if timing_only then []
      else begin
        let entries =
          List.map
            (fun e -> print_outcome ?csv (timed_run e (budget quick)))
            (if ids = [] then Core.Experiments.catalogue () else ids)
        in
        let bad = List.filter (fun (e : Sb_obs.Report.experiment_entry) -> not e.ok) entries in
        Printf.printf "== summary: %d/%d experiments match the paper's predictions ==\n"
          (List.length entries - List.length bad)
          (List.length entries);
        List.iter
          (fun (e : Sb_obs.Report.experiment_entry) -> Printf.printf "  MISMATCH: %s\n" e.id)
          bad;
        entries
      end
    in
    let e9 =
      if (not (List.mem Tables words)) && (ids = [] || timing_only) then Bench.E9.run () else []
    in
    let crypto = Bench.Crypto.run () in
    Bench.Crypto.print_summary crypto;
    Option.iter (fun dir -> write_csv dir "crypto.csv" (Bench.Crypto.csv crypto)) csv;
    let delivery = Bench.Delivery_probe.run () in
    Bench.Delivery_probe.print_summary delivery;
    let sessions, sessions_block = Bench.Sessions.run ~count () in
    let workloads = Bench.Workloads.run () in
    let gtester = Bench.Gtester_smoke.run () in
    Bench.Comm.print ();
    Option.iter (fun dir -> write_csv dir "comm.csv" (Bench.Comm.csv ())) csv;
    let tag =
      if quick then "quick"
      else if timing_only then "timing"
      else if ids = [] then "full"
      else
        String.concat "_"
          (List.map (fun (e : Core.Experiments.entry) -> String.lowercase_ascii e.id) ids)
    in
    let report =
      Sb_obs.Report.make ~tool:"bench" ~tag
        ~jobs:(Sb_par.Pool.get_default_domains ())
        ~experiments
        ~timings:(e9 @ (gtester :: crypto) @ delivery @ sessions @ workloads)
        ?sessions:sessions_block ()
    in
    write_report (Printf.sprintf "BENCH_%s.json" tag) report;
    (* Perf trajectory: one compact row per bench run, appended to a
       gitignored jsonl log so local runs accumulate a history that
       `perf-diff` endpoints can be picked from. *)
    let utc =
      let t = Unix.gmtime (Unix.time ()) in
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
        (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec
    in
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 "BENCH_history.jsonl"
      (fun oc ->
        output_string oc (Sb_obs.Json.to_string (Sb_obs.Report.history_row ~utc report));
        output_char oc '\n');
    print_endline "appended BENCH_history.jsonl"
  in
  Cmd.v
    (Cmd.info "bench" ~exits
       ~doc:
         "Regenerate the experiment tables (every one, or the ids given), time the E9 \
          substrates with Bechamel, run the crypto, delivery, sessions, workload and \
          G-tester probes, and write the BENCH_<tag>.json report (tag: quick, timing, \
          full, or the ids) plus a BENCH_history.jsonl row. Exits 0 even when an \
          experiment prints MISMATCH; the report's $(i,ok) fields carry the verdicts")
    Term.(
      const run $ words_arg
      $ csv_arg ~doc:"Also dump each table, crypto.csv and comm.csv under $(docv)."
      $ count_arg $ jobs_arg)

(* --- fault-sweep ----------------------------------------------------- *)

let fault_sweep_cmd =
  let drops_arg =
    let doc = "Omission rates for the grid (comma-separated)." in
    Arg.(value & opt (list float) [ 0.0; 0.1; 0.3 ] & info [ "drops" ] ~doc ~docv:"RATES")
  in
  let crashes_arg =
    let doc = "Crash counts for the grid (comma-separated; crashes are staggered \
               starting from the highest party id)." in
    Arg.(value & opt (list int) [ 0; 1; 2 ] & info [ "crashes" ] ~doc ~docv:"COUNTS")
  in
  let sweep_protocol_arg =
    let doc = "Protocol to sweep, or 'all' for every substrate and VSS protocol." in
    Arg.(value & opt string "all" & info [ "p"; "protocol" ] ~doc)
  in
  let catalogue () = Core.Resilience.substrates () @ Core.Resilience.vss_protocols () in
  let run pname n thresh seed samples fault_spec drops crashes metrics report trace jobs =
    setup_obs ?trace metrics report;
    setup_jobs jobs;
    let protocols =
      if pname = "all" then Ok (catalogue ())
      else
        match List.assoc_opt pname (catalogue ()) with
        | Some p -> Ok [ (pname, p) ]
        | None ->
            Error
              (Printf.sprintf "unknown protocol %S (try: all, %s)" pname
                 (String.concat ", " (List.map fst (catalogue ()))))
    in
    match (protocols, plan_of_spec ~n fault_spec, resolve_thresh n thresh) with
    | Error e, _, _ | _, Error e, _ | _, _, Error e -> fail "%s" e
    | Ok protocols, Ok spec_plan, Ok thresh ->
        if List.exists (fun c -> c < 0 || c >= n) crashes then
          fail "--crashes: counts must lie in [0, %d)" n
        else if List.exists (fun r -> r < 0.0 || r > 1.0) drops then
          fail "--drops: rates must lie in [0, 1]"
        else begin
          let setup = Core.Setup.{ default with n; thresh; seed; samples } in
          let plans =
            (* A --faults spec replaces the grid: one cell per protocol. *)
            if fault_spec <> None then [ spec_plan ]
            else
              List.concat_map
                (fun c ->
                  List.map
                    (fun r ->
                      Core.Resilience.drop_plan r @ Core.Resilience.crash_plan ~n ~count:c)
                    drops)
                crashes
          in
          let table =
            Sb_util.Tabular.create
              ~title:
                (Printf.sprintf "fault sweep (n = %d, t = %d, %d samples/cell)" n thresh
                   samples)
              ~columns:[ "protocol"; "faults"; "agreement"; "validity" ]
          in
          let t0 = Unix.gettimeofday () in
          let cells =
            List.concat_map
              (fun (name, protocol) ->
                List.map
                  (fun plan ->
                    let c =
                      Core.Resilience.measure setup ~protocol
                        ~adversary:Core.Adversaries.passive
                        ~dist:(Sb_dist.Dist.uniform n) ~plan (Sb_util.Rng.create seed)
                    in
                    Sb_util.Tabular.add_row table
                      [
                        name;
                        (match Sb_fault.Plan.to_string plan with "" -> "none" | s -> s);
                        Format.asprintf "%a" Sb_stats.Estimate.pp c.Core.Resilience.agree;
                        Format.asprintf "%a" Sb_stats.Estimate.pp c.Core.Resilience.valid;
                      ];
                    c)
                  plans)
              protocols
          in
          let wall = Unix.gettimeofday () -. t0 in
          Sb_util.Tabular.print table;
          let experiments =
            [
              {
                Sb_obs.Report.id = "FAULT-SWEEP";
                title = "Resilience sweep over injected fault plans";
                ok = true;
                rows_checked = List.length cells;
                wall_clock_s = wall;
                notes = [];
              };
            ]
          in
          finish_obs ~experiments ?trace ~tag:"fault-sweep" metrics report;
          `Ok ()
        end
  in
  Cmd.v
    (Cmd.info "fault-sweep" ~exits
       ~doc:
         "Measure agreement/validity resilience curves under injected faults (crash-stop, \
          omission, delay, partition); see also experiment e15")
    Term.(
      ret
        (const run $ sweep_protocol_arg $ n_arg () $ thresh_arg $ seed_arg $ samples_arg
       $ faults_arg $ drops_arg $ crashes_arg $ metrics_arg $ report_arg $ trace_arg
       $ jobs_arg))

(* --- profile --------------------------------------------------------- *)

let profile_cmd =
  let id_arg =
    let doc = "Experiment id to profile (e1..e8, e10..e18)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let top_arg =
    let doc = "Rows of the phase-time attribution table to print." in
    Arg.(value & opt int 20 & info [ "top" ] ~doc ~docv:"K")
  in
  let run id quick top trace jobs =
    setup_jobs jobs;
    Sb_obs.Metrics.set_enabled true;
    Sb_obs.Trace_ctx.set_enabled true;
    match find_experiment id with
    | Error e -> fail "%s" e
    | Ok e ->
        let o, wall = timed_run e (budget quick) in
        Printf.printf "%s: %s — %s in %.2fs\n" o.Core.Experiments.id o.Core.Experiments.title
          (if o.Core.Experiments.ok then "OK" else "MISMATCH")
          wall;
        Sb_util.Tabular.print (Sb_obs.Perfetto.flame_table ~top ());
        Option.iter write_trace trace;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:
         "Run one experiment with causal tracing on and print the phase-time attribution \
          table (self/total wall time per span path); --trace additionally saves the \
          Perfetto trace")
    Term.(ret (const run $ id_arg $ quick_arg $ top_arg $ trace_arg $ jobs_arg))

(* --- session batches (sessions, workload) ---------------------------- *)

let session_log_arg =
  let doc =
    "Write one JSON object per session (JSON Lines) to $(docv) — byte-identical at \
     every --jobs value."
  in
  Arg.(value & opt (some string) None & info [ "session-log" ] ~doc ~docv:"FILE")

(* What both batch commands print after their deterministic lines: the
   wall-clock throughput line and the scheduling-race sched line (CI's
   jobs-invariance diffs filter both), then the optional JSONL session
   log. *)
let print_batch_tail (agg : Sb_session.Engine.aggregate) reports session_log =
  let open Sb_session.Engine in
  Printf.printf "throughput : %.1f sessions/s, %.1f msgs/s, %.1f B/s (wall %.3fs)\n"
    agg.sessions_per_sec agg.msgs_per_sec agg.bytes_per_sec agg.wall_s;
  Printf.printf "sched      : steal, %d workers, %d steals\n" agg.workers agg.steals;
  match session_log with
  | None -> ()
  | Some file -> (
      try
        Out_channel.with_open_text file (fun oc ->
            Array.iter
              (fun r ->
                output_string oc (Sb_obs.Json.to_string (session_report_to_json r));
                output_char oc '\n')
              reports);
        Printf.printf "wrote %s\n" file
      with Sys_error msg ->
        Printf.eprintf "simbcast: cannot write session log: %s\n" msg;
        exit 1)

let sessions_cmd =
  let protos_arg =
    let doc =
      "Comma-separated protocol names; the session budget is split evenly across them \
       (earlier protocols absorb the remainder)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOLS" ~doc)
  in
  let count_arg =
    let doc = "Total number of sessions to run (must be positive)." in
    Arg.(value & opt pos_int 256 & info [ "count" ] ~doc ~docv:"N")
  in
  let run pnames count n thresh seed dname metrics report session_log jobs =
    let names = List.filter (fun s -> s <> "") (String.split_on_char ',' pnames) in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
          match protocol_of_name name with
          | Ok p -> resolve (p :: acc) rest
          | Error e -> Error e)
    in
    match (resolve_thresh n thresh, resolve [] names, dist_of_name dname n) with
    | _, Error e, _ -> fail_usage "%s" e
    | _, Ok [], _ -> fail_usage "no protocol names given"
    | Error e, _, _ | _, _, Error e -> fail "%s" e
    | Ok thresh, Ok protocols, Ok dist ->
        let open Sb_session in
        setup_obs metrics report;
        (* Comm totals and throughput rates come off the sim.* counter
           deltas, so the engine needs metrics on even without
           --metrics; the summary table still prints only when asked
           for. *)
        Sb_obs.Metrics.set_enabled true;
        setup_jobs jobs;
        let setup = Core.Setup.{ default with n; thresh; seed } in
        let k = List.length protocols in
        let base = count / k and extra = count mod k in
        let specs =
          List.filteri
            (fun i _ -> base > 0 || i < extra)
            (List.mapi
               (fun i protocol ->
                 Engine.spec protocol (base + if i < extra then 1 else 0))
               protocols)
        in
        let agg, reports = Engine.run ~setup ~dist specs (Sb_util.Rng.create seed) in
        Printf.printf "sessions   : %d total, %d consistent, %d shards\n"
          agg.Engine.sessions agg.Engine.consistent agg.Engine.shards;
        Printf.printf "protocols  : %s\n"
          (String.concat ", "
             (List.map
                (fun (s : Engine.spec) ->
                  Printf.sprintf "%s x%d" s.protocol.Sb_sim.Protocol.name s.count)
                specs));
        Printf.printf "comm       : %d broadcasts (%d B), %d p2p (%d B)\n"
          agg.Engine.broadcasts agg.Engine.broadcast_bytes agg.Engine.p2p
          agg.Engine.p2p_bytes;
        print_batch_tail agg reports session_log;
        finish_obs ~tag:"sessions" ~sessions:(Engine.aggregate_to_json agg) metrics report;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "sessions" ~exits
       ~doc:
         "Run a batch of whole protocol sessions sharded across the domain pool — \
          shared per-shard setup, per-session RNG streams, aggregate throughput in the \
          report's sessions block; results are byte-identical at every --jobs value")
    Term.(
      ret
        (const run $ protos_arg $ count_arg $ n_arg () $ thresh_arg $ seed_arg $ dist_arg
       $ metrics_arg $ report_arg $ session_log_arg $ jobs_arg))

(* --- workload -------------------------------------------------------- *)

let workload_cmd =
  let name_arg =
    let doc =
      "Workload name: election (Broadbent–Tapp-style referendum), auction (sealed-bid \
       lots), or lottery (XOR-coin draws)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let quick_arg =
    let doc = "CI-sized tier (50k voters instead of 2M, etc.)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let run name quick seed fault_spec metrics report session_log jobs =
    (* Party bounds are checked by the engine against the heavy spec's
       own n, which varies per workload — only the syntax is checked
       here. *)
    let faults =
      match fault_spec with
      | None -> Ok None
      | Some s -> (
          match Sb_fault.Plan.of_string s with
          | Error e -> Error (Printf.sprintf "--faults: %s" e)
          | Ok plan -> Ok (Some plan))
    in
    match faults with
    | _ when not (List.mem name Sb_workload.Workload.names) ->
        fail_usage "unknown workload %S (try: %s)" name
          (String.concat ", " Sb_workload.Workload.names)
    | Error e -> fail "%s" e
    | Ok faults -> (
        setup_obs metrics report;
        (* Comm totals and throughput come off the sim.* counter deltas,
           exactly as in `sessions`. *)
        Sb_obs.Metrics.set_enabled true;
        setup_jobs jobs;
        match Sb_workload.Workload.run ?faults ~quick ~seed name with
        | Error e -> fail "%s" e
        | Ok o ->
            let agg = o.Sb_workload.Workload.aggregate in
            List.iter print_endline (Sb_workload.Workload.deterministic_lines o);
            print_batch_tail agg o.Sb_workload.Workload.reports session_log;
            finish_obs ~tag:"workload"
              ~sessions:(Sb_session.Engine.aggregate_to_json agg)
              ~workload:(Sb_workload.Workload.to_json o)
              metrics report;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "workload" ~exits
       ~doc:
         "Run a benchmarked application workload (election / auction / lottery) — a \
          heavy-tailed mix of broadcast sessions fed with application data, executed by \
          the work-stealing session scheduler; the summary, session log and report \
          workload block are byte-identical at every --jobs value")
    Term.(
      ret
        (const run $ name_arg $ quick_arg $ seed_arg $ faults_arg $ metrics_arg
       $ report_arg $ session_log_arg $ jobs_arg))

(* --- check ----------------------------------------------------------- *)

let check_cmd =
  let proto_arg =
    let doc =
      "Substrate to check — one of the session schemes (bare name or the composed \
       concurrent- form); see `simbcast list`."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc)
  in
  let max_states_arg =
    let doc =
      "State budget across all configurations; when exhausted, still-unviolated \
       properties report inconclusive instead of exact-pass."
    in
    Arg.(value & opt int 200_000 & info [ "max-states" ] ~doc ~docv:"N")
  in
  (* Local copies of -n / -t with long aliases whose unambiguous
     prefixes make `--n 4 --t 1` work (the shared args only define the
     short forms, and `--t` would collide with `--trace`). *)
  let check_n_arg =
    let doc = "Number of parties (exhaustive checking supports up to 5)." in
    Arg.(value & opt int 4 & info [ "n"; "num"; "parties" ] ~doc)
  in
  let check_t_arg =
    let doc = "Corruption bound t (default (n-1)/2)." in
    Arg.(value & opt (some int) None & info [ "t"; "thresh" ] ~doc)
  in
  let verdict_cell = function
    | Sb_check.Checker.Holds -> "exact-pass"
    | Sb_check.Checker.Violated _ -> "VIOLATED"
    | Sb_check.Checker.Inconclusive -> "inconclusive (state budget)"
  in
  let run pname n thresh seed max_states metrics report =
    match (Sb_check.Checker.find_scheme pname, resolve_thresh n thresh) with
    | None, _ ->
        fail_usage "unknown checkable protocol %S (try: %s)" pname
          (String.concat ", " (List.map fst Sb_check.Checker.schemes))
    | Some _, _ when n <= 0 || n > Sb_check.Checker.max_n ->
        fail_usage "--n %d is out of exhaustive-checking range (1..%d)" n
          Sb_check.Checker.max_n
    | Some _, Error e -> fail_usage "%s" e
    | Some scheme, Ok thresh ->
        setup_obs metrics report;
        let setup = Core.Setup.{ default with n; thresh; seed } in
        let ctx =
          Core.Setup.fresh_ctx setup (Sb_util.Rng.split (Sb_util.Rng.create seed))
        in
        let r = Sb_check.Checker.check ~max_states ~scheme ctx in
        let open Sb_check.Checker in
        Printf.printf "protocol       : %s (n=%d, t=%d)\n" r.protocol r.n r.t;
        Printf.printf "states         : %d explored, %d memo hits, %d terminals, %d configs%s\n"
          r.stats.explored r.stats.memo_hits r.stats.terminals r.stats.configs
          (if r.capped then Printf.sprintf " (budget %d EXHAUSTED)" r.max_states else "");
        List.iter
          (fun (name, verdict) ->
            Printf.printf "%-15s: %s\n" name (verdict_cell verdict);
            match verdict with
            | Violated w ->
                Printf.printf "  witness      : %s\n"
                  (Format.asprintf "%a" pp_witness w);
                let faults = Sb_fault.Plan.to_string (plan_of_witness w) in
                Printf.printf "  replay       : simbcast run %s -n %d -t %d -x %s%s\n"
                  r.protocol r.n r.t (witness_inputs ~n:r.n w)
                  (if faults = "" then "" else Printf.sprintf " --faults '%s'" faults)
            | Holds | Inconclusive -> ())
          [
            ("agreement", r.agreement);
            ("validity", r.validity);
            ("unforgeability", r.unforgeability);
          ];
        (* Cross-validate against the hand-derived E15 exact cells where
           this (protocol, n, t) point has recorded ground truth. *)
        let mismatches =
          match
            List.find_opt
              (fun (c : Core.Resilience.exact_cell) ->
                c.cell_protocol = r.protocol && c.cell_n = r.n && c.cell_t = r.t)
              Core.Resilience.exact_cells
          with
          | None ->
              Printf.printf "cross-check    : no exact cell recorded for this point\n";
              []
          | Some cell ->
              List.filter_map
                (fun (name, expected, verdict) ->
                  match (expected, verdict) with
                  | None, _ | _, Inconclusive -> None
                  | Some true, Holds | Some false, Violated _ -> None
                  | Some e, _ ->
                      Some
                        (Printf.sprintf "%s: checker says %s, exact cell says %s" name
                           (verdict_name verdict)
                           (if e then "holds" else "violated")))
                [
                  ("agreement", cell.exp_agreement, r.agreement);
                  ("validity", cell.exp_validity, r.validity);
                  ("unforgeability", cell.exp_unforgeability, r.unforgeability);
                ]
        in
        (match mismatches with
        | [] ->
            if
              List.exists
                (fun (c : Core.Resilience.exact_cell) ->
                  c.cell_protocol = r.protocol && c.cell_n = r.n && c.cell_t = r.t)
                Core.Resilience.exact_cells
            then Printf.printf "cross-check    : consistent with recorded exact cells\n"
        | ms -> List.iter (Printf.printf "cross-check    : MISMATCH %s\n") ms);
        finish_obs ~tag:"check" ~check:(result_to_json r) metrics report;
        if mismatches <> [] then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "check" ~exits
       ~doc:
         "Exhaustively model-check a broadcast substrate's agreement, validity and \
          unforgeability at small n: every faulty set up to t, every sender and value, \
          every per-round crash/omission/delay schedule — exact verdicts, with a \
          minimal replayable --faults counterexample on violation")
    Term.(
      ret
        (const run $ proto_arg $ check_n_arg $ check_t_arg $ seed_arg $ max_states_arg
       $ metrics_arg $ report_arg))

(* --- perf-diff -------------------------------------------------------- *)

let perf_diff_cmd =
  let base_arg =
    let doc = "Baseline report (e.g. the committed BENCH_quick.json)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASE" ~doc)
  in
  let fresh_arg =
    let doc = "Fresh report to compare against the baseline." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FRESH" ~doc)
  in
  let threshold_arg =
    let doc =
      "Allowed relative slowdown per timing entry; a fresh/base ratio above \
       1 + $(docv) is a regression and the command exits 1."
    in
    Arg.(value & opt float 0.2 & info [ "threshold" ] ~doc ~docv:"FRAC")
  in
  let match_arg =
    let doc =
      "Comma-separated name prefixes to compare (default: every baseline entry), e.g. \
       'gtester-smoke,crypto/'."
    in
    Arg.(value & opt (list string) [] & info [ "match" ] ~doc ~docv:"PREFIXES")
  in
  let read_report path =
    match
      In_channel.with_open_bin path (fun ic -> Sb_obs.Json.of_string (In_channel.input_all ic))
    with
    | Ok json -> Ok json
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | exception Sys_error msg -> Error msg
  in
  let run base_path fresh_path threshold prefixes =
    if threshold < 0.0 then fail "--threshold must be non-negative"
    else
      match (read_report base_path, read_report fresh_path) with
      | Error e, _ | _, Error e -> fail "%s" e
      | Ok base, Ok fresh ->
          let deltas, missing = Sb_obs.Report.perf_diff ~prefixes ~base ~fresh () in
          if deltas = [] && missing = [] then
            fail "no baseline timing entries match%s"
              (if prefixes = [] then "" else " --match " ^ String.concat "," prefixes)
          else begin
            let table =
              Sb_util.Tabular.create
                ~title:
                  (Printf.sprintf "perf diff vs %s (threshold %+.0f%%)" base_path
                     (100.0 *. threshold))
                ~columns:[ "name"; "base ns/run"; "fresh ns/run"; "ratio"; "verdict" ]
            in
            let regressions = ref [] in
            List.iter
              (fun (d : Sb_obs.Report.perf_delta) ->
                let bad = Float.is_nan d.ratio || d.ratio > 1.0 +. threshold in
                if bad then regressions := d.name :: !regressions;
                Sb_util.Tabular.add_row table
                  [
                    d.name;
                    Printf.sprintf "%.0f" d.base_ns;
                    Printf.sprintf "%.0f" d.fresh_ns;
                    Printf.sprintf "%.3f" d.ratio;
                    (if bad then "REGRESSION" else "ok");
                  ])
              deltas;
            List.iter
              (fun name ->
                regressions := name :: !regressions;
                Sb_util.Tabular.add_row table [ name; "-"; "missing"; "-"; "REGRESSION" ])
              missing;
            Sb_util.Tabular.print table;
            if !regressions <> [] then begin
              Printf.eprintf "simbcast: perf regression in: %s\n"
                (String.concat ", " (List.rev !regressions));
              exit 1
            end;
            `Ok ()
          end
  in
  Cmd.v
    (Cmd.info "perf-diff" ~exits
       ~doc:
         "Compare the timings blocks of two run reports entry-by-entry and fail (exit 1) \
          on any slowdown beyond the threshold — the perf-trajectory guard used by CI")
    Term.(ret (const run $ base_arg $ fresh_arg $ threshold_arg $ match_arg))

let () =
  (* E18 lives in sb_workload (it needs the session engine, which core
     cannot depend on); adding it to the catalogue here makes
     `experiment e18`, `profile e18` and `bench` see it like any core
     entry. *)
  Sb_workload.E18.register ();
  let info =
    Cmd.info "simbcast" ~version:"1.0.0" ~exits
      ~doc:"Simultaneous broadcast protocols and independence definitions (PODC 2005 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            classify_cmd;
            test_cmd;
            exact_cmd;
            experiment_cmd;
            bench_cmd;
            fault_sweep_cmd;
            profile_cmd;
            sessions_cmd;
            workload_cmd;
            check_cmd;
            perf_diff_cmd;
          ]))
