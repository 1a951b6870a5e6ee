(* Tests for sb_session: the work-stealing whole-session scheduler.

   The load-bearing property is the determinism contract: per-session
   reports and every deterministic aggregate field are byte-identical
   at every pool size (the shard layout and the RNG streams are pure
   functions of the spec counts and the master seed). The scheduler
   only decides which worker drives which shard, via a shared atomic
   claim counter. *)

open Sb_session

let substrate = Sb_protocols.Registry.get

let setup = Core.Setup.{ default with n = 5; thresh = 2; seed = 33 }
let dist = Sb_dist.Dist.uniform 5

let mixed_specs =
  [
    Engine.spec (substrate "concurrent-bracha") 17;
    Engine.spec (substrate "concurrent-dolev-strong") 11;
    Engine.spec Sb_protocols.Commit_open.protocol 7;
  ]

(* A heavy-tailed mix in the E18 sense: a few expensive large-n
   Dolev-Strong sessions among many cheap n=5 Bracha votes, plus a
   faulted spec exercising the per-spec fault-plan path. *)
let heavy_specs =
  [
    Engine.spec ~parties:9
      ~dist:(Sb_dist.Dist.uniform 9)
      (substrate "concurrent-dolev-strong")
      3;
    Engine.spec (substrate "concurrent-bracha") 40;
    Engine.spec
      ~faults:[ Sb_fault.Plan.crash ~party:4 ~round:1 ]
      (substrate "concurrent-bracha") 8;
  ]

let run_with_jobs specs jobs =
  let pool = Sb_par.Pool.create ~domains:jobs () in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () -> Engine.run ~pool ~setup ~dist specs (Sb_util.Rng.create 33))

let report_lines reports =
  Array.to_list
    (Array.map (fun r -> Sb_obs.Json.to_string (Engine.session_report_to_json r)) reports)

(* The jobs-invariant slice of the aggregate: everything except the
   wall clocks, the rates derived from them, and the scheduling-race
   fields (steals, worker stats). *)
let deterministic_slice (a : Engine.aggregate) =
  ( (a.Engine.sessions, a.Engine.consistent, a.Engine.shards),
    Array.to_list a.Engine.per_shard,
    ((a.Engine.broadcasts, a.Engine.p2p), (a.Engine.broadcast_bytes, a.Engine.p2p_bytes)) )

let agg_t =
  Alcotest.(
    triple (triple int int int) (list int) (pair (pair int int) (pair int int)))

let check_jobs_invariant name specs =
  let agg1, reports1 = run_with_jobs specs 1 in
  let lines1 = report_lines reports1 in
  List.iter
    (fun jobs ->
      let agg, reports = run_with_jobs specs jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "%s session reports at jobs=%d" name jobs)
        lines1 (report_lines reports);
      Alcotest.check agg_t
        (Printf.sprintf "%s aggregate at jobs=%d" name jobs)
        (deterministic_slice agg1) (deterministic_slice agg))
    [ 2; 4 ]

let test_reports_jobs_invariant () = check_jobs_invariant "uniform" mixed_specs

let test_heavy_tail_jobs_invariant () =
  (* Mixed party counts, per-spec dist and a per-spec fault plan stay
     byte-identical across pool sizes. *)
  check_jobs_invariant "heavy-tailed" heavy_specs

(* MD5 of the newline-joined session reports (shard field included) at
   seed 33, recorded while a second, static scheduler still existed and
   a differential test held the two in step. The engine now has one
   scheduler; these digests are what keeps its output from drifting.
   Never re-record them: a drift means session outcomes, RNG stream
   assignment or the shard layout changed. *)
let pinned_digests =
  [
    ("mixed", mixed_specs, "ce138293d44a4a2f61447234d0d0a7d5");
    ("heavy-tailed", heavy_specs, "2213ee5acaaf73ac10df4bc357117cdb");
  ]

let test_reports_pinned () =
  List.iter
    (fun (name, specs, digest) ->
      List.iter
        (fun jobs ->
          let _, reports = run_with_jobs specs jobs in
          Alcotest.(check string)
            (Printf.sprintf "%s report digest at jobs=%d" name jobs)
            digest
            (Digest.to_hex (Digest.string (String.concat "\n" (report_lines reports)))))
        [ 1; 2; 4 ])
    pinned_digests

let test_steal_counters_sane () =
  (* One worker: everything is a home claim. *)
  let agg1, _ = run_with_jobs mixed_specs 1 in
  Alcotest.(check int) "no steals at jobs=1" 0 agg1.Engine.steals;
  Alcotest.(check int) "one worker stat" 1 (Array.length agg1.Engine.worker_stats);
  let ws = agg1.Engine.worker_stats.(0) in
  Alcotest.(check int) "sole worker claims all shards" agg1.Engine.shards
    ws.Engine.shards_run;
  Alcotest.(check int) "sole worker runs all sessions" agg1.Engine.sessions
    ws.Engine.sessions_run;
  Alcotest.(check int) "sole worker steals nothing" 0 ws.Engine.stolen;
  (* Any pool: claims partition the shards, sessions partition the
     batch, and the steal total matches the per-worker tallies. *)
  let agg4, _ = run_with_jobs mixed_specs 4 in
  Alcotest.(check int) "worker stats per slot" 4 (Array.length agg4.Engine.worker_stats);
  let sum f = Array.fold_left (fun acc ws -> acc + f ws) 0 agg4.Engine.worker_stats in
  Alcotest.(check int) "claims cover the shards" agg4.Engine.shards
    (sum (fun ws -> ws.Engine.shards_run));
  Alcotest.(check int) "sessions cover the batch" agg4.Engine.sessions
    (sum (fun ws -> ws.Engine.sessions_run));
  Alcotest.(check int) "steal total matches tallies" agg4.Engine.steals
    (sum (fun ws -> ws.Engine.stolen))

let test_spec_order_and_protocols () =
  let _, reports = run_with_jobs mixed_specs 2 in
  Alcotest.(check int) "total sessions" 35 (Array.length reports);
  (* Sessions are laid out in spec order, and the report index is the
     global session index. *)
  Array.iteri
    (fun i (r : Engine.session_report) ->
      Alcotest.(check int) "index = position" i r.Engine.index;
      let expected =
        if i < 17 then "concurrent-bracha"
        else if i < 28 then "concurrent-dolev-strong"
        else "commit-open"
      in
      Alcotest.(check string) "protocol by spec bounds" expected r.Engine.protocol)
    reports

let test_spec_at_binary_search () =
  let b = Engine.bounds mixed_specs in
  Alcotest.(check (list int)) "cumulative bounds" [ 0; 17; 28; 35 ] (Array.to_list b);
  List.iter
    (fun (i, expect) ->
      Alcotest.(check int) (Printf.sprintf "spec_at %d" i) expect (Engine.spec_at b i))
    [ (0, 0); (16, 0); (17, 1); (27, 1); (28, 2); (34, 2) ];
  Alcotest.check_raises "out of range"
    (Invalid_argument "Engine.spec_at: session 35 out of range") (fun () ->
      ignore (Engine.spec_at b 35))

let test_shard_layout_static () =
  (* E18's model of the historical coarse layout, single spec: at most
     Shard.width contiguous shards, sizes differing by at most one. *)
  let shards = Sb_workload.E18.static_layout [| 100 |] in
  Alcotest.(check int) "shard count" Shard.width (Array.length shards);
  let covered = ref 0 in
  Array.iter
    (fun (lo, len) ->
      Alcotest.(check int) "contiguous" !covered lo;
      Alcotest.(check bool) "balanced" true (len >= 3 && len <= 4);
      covered := !covered + len)
    shards;
  Alcotest.(check int) "covers batch" 100 !covered;
  (* Small batches degenerate to one session per shard. *)
  Alcotest.(check int)
    "small batch" 7
    (Array.length (Sb_workload.E18.static_layout [| 7 |]));
  (* Two specs share the 32-shard budget in proportion (at least one
     each): E18's quick mix. The ranges were recorded from the engine's
     static layout before it was retired. *)
  let expected =
    [
      (0, 6); (6, 20); (26, 20); (46, 20); (66, 20); (86, 20); (106, 20); (126, 20);
      (146, 20); (166, 20); (186, 20); (206, 20); (226, 19); (245, 19); (264, 19);
      (283, 19); (302, 19); (321, 19); (340, 19); (359, 19); (378, 19); (397, 19);
      (416, 19); (435, 19); (454, 19); (473, 19); (492, 19); (511, 19); (530, 19);
      (549, 19); (568, 19); (587, 19)
    ]
  in
  Alcotest.(check (list (pair int int)))
    "[|6; 600|] ranges" expected
    (Array.to_list (Sb_workload.E18.static_layout [| 6; 600 |]))

let test_shard_layout_steal () =
  (* Steal cuts each spec into at least Shard.width shards (capped at
     one session per shard) and never straddles a spec boundary. *)
  let counts = [| 40; 40; 40 |] in
  let shards = Shard.layout ~counts ~rng:(Sb_util.Rng.create 1) in
  Alcotest.(check int) "three specs x 32 shards" 96 (Array.length shards);
  let covered = ref 0 in
  Array.iteri
    (fun k (s : Shard.t) ->
      Alcotest.(check int) "contiguous" !covered s.Shard.lo;
      Alcotest.(check int) "indexed" k s.Shard.index;
      Alcotest.(check int) "spec by thirds" (k / 32) s.Shard.spec;
      Alcotest.(check bool) "within spec range" true
        (s.Shard.lo >= s.Shard.spec * 40 && s.Shard.lo + s.Shard.len <= (s.Shard.spec + 1) * 40);
      covered := !covered + s.Shard.len)
    shards;
  Alcotest.(check int) "covers batch" 120 !covered;
  (* A large spec lands near the steal_target granularity. *)
  let big = Shard.layout ~counts:[| 2048 |] ~rng:(Sb_util.Rng.create 1) in
  Alcotest.(check int) "2048 sessions -> 256 shards" 256 (Array.length big)

let test_parties_and_inputs_override () =
  (* Per-spec party counts and explicit inputs: a 7-party spec fed
     fixed vectors announces exactly those vectors under the passive
     adversary. *)
  let specs =
    [
      Engine.spec ~parties:7
        ~inputs:(fun j -> Sb_util.Bitvec.of_int 7 (j * 11 mod 128))
        (substrate "concurrent-bracha") 9;
      Engine.spec (substrate "concurrent-bracha") 5;
    ]
  in
  let agg, reports = run_with_jobs specs 2 in
  Alcotest.(check int) "all consistent" agg.Engine.sessions agg.Engine.consistent;
  Array.iteri
    (fun i (r : Engine.session_report) ->
      if i < 9 then begin
        Alcotest.(check int) "override n" 7 r.Engine.n;
        Alcotest.(check string) "explicit input"
          (Sb_util.Bitvec.to_string (Sb_util.Bitvec.of_int 7 (i * 11 mod 128)))
          (Sb_util.Bitvec.to_string r.Engine.x)
      end
      else Alcotest.(check int) "batch n" 5 r.Engine.n;
      Alcotest.(check string) "announced = input"
        (Sb_util.Bitvec.to_string r.Engine.x)
        (Sb_util.Bitvec.to_string r.Engine.w))
    reports

let test_passive_batches_consistent () =
  (* Under the passive adversary every session announces its input
     vector and all honest parties agree. *)
  let agg, reports = run_with_jobs mixed_specs 2 in
  Alcotest.(check int) "all consistent" agg.Engine.sessions agg.Engine.consistent;
  Array.iter
    (fun (r : Engine.session_report) ->
      Alcotest.(check bool) "consistent" true r.Engine.consistent;
      Alcotest.(check string) "announced = input"
        (Sb_util.Bitvec.to_string r.Engine.x)
        (Sb_util.Bitvec.to_string r.Engine.w))
    reports

let test_rejects_bad_specs () =
  let rng = Sb_util.Rng.create 1 in
  let bracha = substrate "concurrent-bracha" in
  Alcotest.check_raises "empty spec list"
    (Invalid_argument "Engine.run: empty spec list") (fun () ->
      ignore (Engine.run ~setup ~dist [] rng));
  Alcotest.check_raises "non-positive count"
    (Invalid_argument "Engine.run: spec 0 count must be positive") (fun () ->
      ignore (Engine.run ~setup ~dist [ Engine.spec bracha 0 ] rng));
  (* The dist-dimension mismatch is caught up front with a clear
     message instead of a downstream Bitvec failure. *)
  Alcotest.check_raises "batch dist dimension mismatch"
    (Invalid_argument
       "Engine.run: spec 0 (concurrent-bracha) draws inputs over 6 bits but the \
        session has n = 5 parties") (fun () ->
      ignore
        (Engine.run ~setup ~dist:(Sb_dist.Dist.uniform 6) [ Engine.spec bracha 4 ] rng));
  Alcotest.check_raises "per-spec dist dimension mismatch"
    (Invalid_argument
       "Engine.run: spec 1 (concurrent-bracha) draws inputs over 5 bits but the \
        session has n = 8 parties") (fun () ->
      ignore
        (Engine.run ~setup ~dist
           [
             Engine.spec bracha 4;
             Engine.spec ~parties:8 ~dist:(Sb_dist.Dist.uniform 5) bracha 2;
           ]
           rng));
  Alcotest.check_raises "parties below 2"
    (Invalid_argument "Engine.run: spec 0 parties must be >= 2 (got 1)") (fun () ->
      ignore (Engine.run ~setup ~dist [ Engine.spec ~parties:1 bracha 2 ] rng))

let () =
  Alcotest.run "sb_session"
    [
      ( "determinism",
        [
          Alcotest.test_case "reports and aggregate jobs-invariant" `Quick
            test_reports_jobs_invariant;
          Alcotest.test_case "heavy-tailed mix jobs-invariant" `Quick
            test_heavy_tail_jobs_invariant;
          Alcotest.test_case "reports pinned to recorded digests" `Quick
            test_reports_pinned;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "steal counters sane" `Quick test_steal_counters_sane;
          Alcotest.test_case "spec_at binary search" `Quick test_spec_at_binary_search;
          Alcotest.test_case "static shard layout" `Quick test_shard_layout_static;
          Alcotest.test_case "steal shard layout" `Quick test_shard_layout_steal;
        ] );
      ( "engine",
        [
          Alcotest.test_case "spec order and protocol bounds" `Quick
            test_spec_order_and_protocols;
          Alcotest.test_case "parties and inputs overrides" `Quick
            test_parties_and_inputs_override;
          Alcotest.test_case "passive batches consistent" `Quick
            test_passive_batches_consistent;
          Alcotest.test_case "rejects bad specs" `Quick test_rejects_bad_specs;
        ] );
    ]
