let schema_version = 8

type experiment_entry = {
  id : string;
  title : string;
  ok : bool;
  rows_checked : int;
  wall_clock_s : float;
  notes : string list;
}

type timing_entry = { bench_name : string; ns_per_run : float; r_square : float }

let experiment_to_json (e : experiment_entry) =
  Json.Obj
    [
      ("id", Json.Str e.id);
      ("title", Json.Str e.title);
      ("ok", Json.Bool e.ok);
      ("rows_checked", Json.Int e.rows_checked);
      ("wall_clock_s", Json.Float e.wall_clock_s);
      ("notes", Json.List (List.map (fun n -> Json.Str n) e.notes));
    ]

let timing_to_json (t : timing_entry) =
  Json.Obj
    [
      ("name", Json.Str t.bench_name);
      ("ns_per_run", Json.Float t.ns_per_run);
      ("r_square", Json.Float t.r_square);
    ]

(* Schema v2: the communication-cost block, read off the sim.* counters
   as they stand. Counters that never fired read as 0, so the block is
   always present and always complete. *)
let comm_to_json () =
  let c name = Json.Int (Metrics.counter_value (Metrics.counter name)) in
  Json.Obj
    [
      ("broadcasts", c "sim.broadcasts");
      ("p2p_messages", c "sim.p2p");
      ("broadcast_bytes", c "sim.bytes.broadcast");
      ("p2p_bytes", c "sim.bytes.p2p");
    ]

let make ?(tool = "simbcast") ?(tag = "run") ?jobs ?(experiments = []) ?(timings = [])
    ?trace ?sessions ?check ?workload () =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("tool", Json.Str tool);
       ("tag", Json.Str tag);
     ]
    @ (match jobs with
      | None -> []
      | Some j -> [ ("parallel", Json.Obj [ ("jobs", Json.Int j) ]) ])
    @ [ ("experiments", Json.List (List.map experiment_to_json experiments)) ]
    @ [ ("comm", comm_to_json ()) ]
    @ (if timings = [] then []
       else [ ("timings", Json.List (List.map timing_to_json timings)) ])
    @ (match trace with None -> [] | Some t -> [ ("trace", t) ])
    @ (match sessions with None -> [] | Some s -> [ ("sessions", s) ])
    @ (match check with None -> [] | Some c -> [ ("check", c) ])
    @ (match workload with None -> [] | Some w -> [ ("workload", w) ])
    @ [ ("metrics", Metrics.to_json ()) ])

let write_file path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:true json);
      output_char oc '\n')

let validate json =
  let ( let* ) r f = Result.bind r f in
  let require msg = function Some x -> Ok x | None -> Error msg in
  let* v = require "missing schema_version" (Json.member "schema_version" json) in
  let* v = require "schema_version not an int" (Json.to_int_opt v) in
  let* () =
    if v = schema_version then Ok ()
    else Error (Printf.sprintf "schema_version %d, expected %d" v schema_version)
  in
  let* exps = require "missing experiments" (Json.member "experiments" json) in
  let* exps = require "experiments not a list" (Json.to_list_opt exps) in
  let* () =
    List.fold_left
      (fun acc e ->
        let* () = acc in
        let* id = require "experiment missing id" (Json.member "id" e) in
        let* id = require "experiment id not a string" (Json.to_str_opt id) in
        let* _ = require (id ^ ": missing ok") (Json.member "ok" e) in
        let* wc = require (id ^ ": missing wall_clock_s") (Json.member "wall_clock_s" e) in
        let* _ = require (id ^ ": wall_clock_s not numeric") (Json.to_float_opt wc) in
        Ok ())
      (Ok ()) exps
  in
  let* comm = require "missing comm" (Json.member "comm" json) in
  let* () =
    List.fold_left
      (fun acc field ->
        let* () = acc in
        let* v = require ("comm missing " ^ field) (Json.member field comm) in
        let* _ = require ("comm " ^ field ^ " not an int") (Json.to_int_opt v) in
        Ok ())
      (Ok ())
      [ "broadcasts"; "p2p_messages"; "broadcast_bytes"; "p2p_bytes" ]
  in
  let* metrics = require "missing metrics" (Json.member "metrics" json) in
  let* _ = require "metrics missing counters" (Json.member "counters" metrics) in
  (* Schema v3: the trace block is optional (only traced runs carry
     it), but when present it must be well-formed. *)
  let* () =
    match Json.member "trace" json with
    | None -> Ok ()
    | Some t ->
        List.fold_left
          (fun acc field ->
            let* () = acc in
            let* v = require ("trace missing " ^ field) (Json.member field t) in
            let* _ = require ("trace " ^ field ^ " not an int") (Json.to_int_opt v) in
            Ok ())
          (Ok ())
          [ "sessions_traced"; "sessions_total"; "spans"; "flows" ]
  in
  (* Schema v4: the sessions block is optional (only session-engine
     runs carry it); when present it must carry the batch totals. *)
  let* () =
    match Json.member "sessions" json with
    | None -> Ok ()
    | Some s ->
        let* () =
          List.fold_left
            (fun acc field ->
              let* () = acc in
              let* v = require ("sessions missing " ^ field) (Json.member field s) in
              let* _ = require ("sessions " ^ field ^ " not an int") (Json.to_int_opt v) in
              Ok ())
            (Ok ())
            [
              "sessions";
              "consistent";
              "shards";
              "broadcasts";
              "p2p_messages";
              "broadcast_bytes";
              "p2p_bytes";
            ]
        in
        List.fold_left
          (fun acc field ->
            let* () = acc in
            let* v = require ("sessions missing " ^ field) (Json.member field s) in
            let* _ = require ("sessions " ^ field ^ " not numeric") (Json.to_float_opt v) in
            Ok ())
          (Ok ())
          [ "sessions_per_sec"; "msgs_per_sec"; "bytes_per_sec" ]
  in
  (* Schema v5: the check block is optional (only model-checker runs
     carry it); when present it must carry the state counts and one
     verdict string per property. *)
  let* () =
    match Json.member "check" json with
    | None -> Ok ()
    | Some c ->
        let* () =
          List.fold_left
            (fun acc field ->
              let* () = acc in
              let* v = require ("check missing " ^ field) (Json.member field c) in
              let* _ = require ("check " ^ field ^ " not an int") (Json.to_int_opt v) in
              Ok ())
            (Ok ())
            [ "n"; "t"; "max_states"; "configs"; "explored"; "memo_hits"; "terminals" ]
        in
        List.fold_left
          (fun acc field ->
            let* () = acc in
            let* v = require ("check missing " ^ field) (Json.member field c) in
            let* s = require ("check " ^ field ^ " not a string") (Json.to_str_opt v) in
            if List.mem s [ "pass"; "violated"; "inconclusive" ] then Ok ()
            else Error (Printf.sprintf "check %s: bad verdict %S" field s))
          (Ok ())
          [ "agreement"; "validity"; "unforgeability" ]
  in
  (* Schema v6: the timings block is optional (only bench runs carry
     it); when present every entry must be a {name, ns_per_run} pair —
     the perf-diff guards key on names like "delivery/..." and
     "crypto/pow", so a malformed entry must fail validation rather
     than silently drop out of the diff. *)
  let* () =
    match Json.member "timings" json with
    | None -> Ok ()
    | Some t ->
        let* entries = require "timings not a list" (Json.to_list_opt t) in
        List.fold_left
          (fun acc e ->
            let* () = acc in
            let* name = require "timing entry missing name" (Json.member "name" e) in
            let* name = require "timing entry name not a string" (Json.to_str_opt name) in
            let* ns = require (name ^ ": missing ns_per_run") (Json.member "ns_per_run" e) in
            let* _ = require (name ^ ": ns_per_run not numeric") (Json.to_float_opt ns) in
            Ok ())
          (Ok ()) entries
  in
  (* Schema v7: the workload block is optional (only [simbcast
     workload] runs carry it); when present it must carry the workload
     name, the tier, and the integer session totals — the CI workload
     smoke diffs this block across --jobs values, so a malformed block
     must fail validation rather than vacuously compare. *)
  let* () =
    match Json.member "workload" json with
    | None -> Ok ()
    | Some w ->
        let* name = require "workload missing name" (Json.member "name" w) in
        let* _ = require "workload name not a string" (Json.to_str_opt name) in
        let* tier = require "workload missing tier" (Json.member "tier" w) in
        let* tier = require "workload tier not a string" (Json.to_str_opt tier) in
        let* () =
          if List.mem tier [ "quick"; "full" ] then Ok ()
          else Error (Printf.sprintf "workload: bad tier %S" tier)
        in
        let* () =
          List.fold_left
            (fun acc field ->
              let* () = acc in
              let* v = require ("workload missing " ^ field) (Json.member field w) in
              let* _ = require ("workload " ^ field ^ " not an int") (Json.to_int_opt v) in
              Ok ())
            (Ok ())
            [ "sessions"; "consistent" ]
        in
        let* _ = require "workload missing summary" (Json.member "summary" w) in
        Ok ()
  in
  Ok ()

(* --- perf trajectory ------------------------------------------------ *)

type perf_delta = {
  name : string;
  base_ns : float;
  fresh_ns : float;
  ratio : float;  (* fresh / base; > 1 is a slowdown *)
}

let timings_of json =
  match Json.member "timings" json with
  | None -> []
  | Some t -> (
      match Json.to_list_opt t with
      | None -> []
      | Some l ->
          List.filter_map
            (fun e ->
              match
                ( Option.bind (Json.member "name" e) Json.to_str_opt,
                  Option.bind (Json.member "ns_per_run" e) Json.to_float_opt )
              with
              | Some name, Some ns -> Some (name, ns)
              | _ -> None)
            l)

let perf_diff ?(prefixes = []) ~base ~fresh () =
  let keep name =
    prefixes = [] || List.exists (fun p -> String.starts_with ~prefix:p name) prefixes
  in
  let b = List.filter (fun (n, _) -> keep n) (timings_of base) in
  let f = timings_of fresh in
  let deltas, missing =
    List.fold_left
      (fun (ds, ms) (name, base_ns) ->
        match List.assoc_opt name f with
        | Some fresh_ns ->
            let ratio = if base_ns > 0.0 then fresh_ns /. base_ns else Float.nan in
            ({ name; base_ns; fresh_ns; ratio } :: ds, ms)
        | None -> (ds, name :: ms))
      ([], []) b
  in
  (List.rev deltas, List.rev missing)

(* One compact line per bench run, for append-only BENCH_history.jsonl:
   enough to plot a perf trajectory without parsing full reports. *)
let history_row ?utc json =
  let str_at path = Option.bind (Json.member path json) Json.to_str_opt in
  Json.Obj
    ((match utc with None -> [] | Some u -> [ ("utc", Json.Str u) ])
    @ [
        ("tag", Json.Str (Option.value ~default:"?" (str_at "tag")));
        ( "schema_version",
          Json.Int
            (Option.value ~default:0
               (Option.bind (Json.member "schema_version" json) Json.to_int_opt)) );
        ( "timings",
          Json.Obj
            (List.map (fun (n, ns) -> (n, Json.Float ns)) (timings_of json)) );
      ])
