(* Smoke check of the benchmark driver, at a size of a few seconds:

     dune build @simbench/bench-smoke

   For every workload it runs simbench --smoke untraced, then traced at
   --jobs 1 and --jobs 2, and checks that each result line names exactly
   the metrics BENCHMARK.json lists, that no operation failed, and that
   every count repeats exactly across the two --jobs values. It then
   checks the usage contract: bad arguments exit 2 with the usage line
   and the workload list. It also checks the tail percentile on edge
   cases.

   Usage: smoke.exe PATH/TO/simbench.exe PATH/TO/BENCHMARK.json *)

module Json = Sb_obs.Json

let failures = ref 0

let check ok what =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let run exe args =
  let ic, oc, ec =
    Unix.open_process_args_full exe (Array.of_list (exe :: args)) (Unix.environment ())
  in
  close_out oc;
  let out = In_channel.input_all ic in
  let err = In_channel.input_all ec in
  let code = match Unix.close_process_full (ic, oc, ec) with Unix.WEXITED c -> c | _ -> -1 in
  (code, out, err)

let member k j = Option.get (Json.member k j)
let str j = Option.get (Json.to_str_opt j)
let names_of section bench =
  List.map (fun m -> str (member "name" m)) (Option.get (Json.to_list_opt (member section bench)))

let result_line out =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  match Json.of_string (List.nth lines (List.length lines - 1)) with
  | Ok j -> j
  | Error e -> failwith ("unparsable result line: " ^ e)

let metric_names j =
  match member "metrics" j with Json.Obj fields -> List.map fst fields | _ -> []

(* Counts that may legitimately differ between runs: steals race, and
   collections depend on when the heap fills. *)
let racy name = name = "sb_session.steals" || String.starts_with ~prefix:"gc." name

let counts j =
  match member "metrics" j with
  | Json.Obj fields ->
      List.filter_map
        (fun (name, m) ->
          if str (member "unit" m) = "count" && not (racy name) then
            Some (name, Option.get (Json.to_float_opt (member "value" m)))
          else None)
        fields
  | _ -> []

let () =
  let exe =
    let p = Sys.argv.(1) in
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  let bench =
    match Json.of_string (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  (* A sessions run whose every pass fails has no session walls. *)
  check (Stats.tail [] = None) "no tail percentile without samples";
  check
    (Stats.tail (List.init 1000 float_of_int) = Some ("p99", 990.0))
    "tail of 1000 samples is p99";
  let sorted = List.sort String.compare in
  let end_to_end = sorted (names_of "end_to_end" bench) in
  let per_layer = sorted (names_of "per_layer" bench) in
  List.iter
    (fun w ->
      let smoke trace jobs =
        let what = Printf.sprintf "%s --trace %s --jobs %s" w trace jobs in
        let code, out, err =
          run exe
            [ w; "--smoke"; "--seconds"; "0.1"; "--trace"; trace; "--jobs"; jobs; "--seed"; "3" ]
        in
        if code <> 0 then prerr_string err;
        check (code = 0) (what ^ " exits 0");
        let j = result_line out in
        check
          (member "correct" j = Json.Bool true && member "failed" j = Json.Int 0)
          (what ^ ": correct, nothing failed");
        j
      in
      let plain = smoke "0" "2" in
      check (sorted (metric_names plain) = end_to_end) (w ^ ": untraced metrics match end_to_end");
      let t1 = smoke "1" "1" and t2 = smoke "1" "2" in
      check (sorted (metric_names t2) = per_layer) (w ^ ": traced metrics match per_layer");
      check
        (List.assoc "trace.identity_violations" (counts t2) = 0.0)
        (w ^ ": traced identities hold");
      List.iter2
        (fun (name, a) (_, b) ->
          if a <> b then Printf.printf "     %s: %g at --jobs 1, %g at --jobs 2\n" name a b)
        (counts t1) (counts t2);
      check (counts t1 = counts t2) (w ^ ": counts identical at --jobs 1 and 2"))
    (names_of "workloads" bench);
  List.iter
    (fun args ->
      let code, _, err = run exe args in
      let mentions s =
        List.exists (String.starts_with ~prefix:s) (String.split_on_char '\n' err)
      in
      check
        (code = 2 && mentions "usage: simbench" && mentions "workloads:")
        (Printf.sprintf "simbench %s exits 2 with usage" (String.concat " " args)))
    [
      [ "no-such-workload" ];
      [ "claims"; "--seed"; "-1" ];
      [ "claims"; "--jobs"; "0" ];
      [ "claims"; "--bogus" ];
      [ "claims"; "--trace"; "2" ];
      [];
    ];
  if !failures > 0 then begin
    Printf.printf "%d smoke check(s) failed\n" !failures;
    exit 1
  end
