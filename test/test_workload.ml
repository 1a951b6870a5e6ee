(* Byte-identity pins for the application workloads.

   Every full-tier workload at seed 1 must print the same summary
   lines, emit the same schema-v7 workload block and produce the same
   per-session outcomes at pool sizes 1 and 2. The expected values were
   recorded before Dolev-Strong reordered its acceptance guard and
   before [Dist.bernoulli_product] built its table by prefix doubling;
   a perf change that moves any of them changed results — fix the
   code, never re-record the pins. *)

open Sb_workload

(* (workload, deterministic stdout lines, workload JSON block, MD5 of
   every session report's (x, w, consistent, rounds, p2p)). *)
let pins =
  [
    ( "election",
      [
        "workload   : election (full)";
        "scale      : voters=2000000 precincts=2000 audited=8 trustees=20";
        "specs      : concurrent-dolev-strong x8, concurrent-bracha x1992";
        "sessions   : 2000 total, 2000 consistent, 257 shards";
        "summary    : yes=1041033 no=958967 margin=82066 certified_sessions=2000 \
         certified=true";
        "comm       : 0 broadcasts (0 B), 611800 p2p (27156200 B)";
      ],
      "{\"name\":\"election\",\"tier\":\"full\",\"sessions\":2000,\"consistent\":2000,\
       \"scale\":{\"voters\":2000000,\"precincts\":2000,\"audited\":8,\"trustees\":20},\
       \"summary\":{\"yes\":1041033,\"no\":958967,\"margin\":82066,\
       \"certified_sessions\":2000,\"certified\":true}}",
      "1b68d4407dbb8787c8086c605713d274" );
    ( "auction",
      [
        "workload   : auction (full)";
        "scale      : lots=2110 premium=10 standard=100 micro=2000 premium_bidders=20";
        "specs      : concurrent-dolev-strong x10, gennaro-constant x100, commit-open x2000";
        "sessions   : 2110 total, 2110 consistent, 292 shards";
        "summary    : sold=2102 no_sale=8 premium_sold=10 winner_checksum=944332";
        "comm       : 25500 broadcasts (1373108 B), 82000 p2p (11840096 B)";
      ],
      "{\"name\":\"auction\",\"tier\":\"full\",\"sessions\":2110,\"consistent\":2110,\
       \"scale\":{\"lots\":2110,\"premium\":10,\"standard\":100,\"micro\":2000,\
       \"premium_bidders\":20},\"summary\":{\"sold\":2102,\"no_sale\":8,\
       \"premium_sold\":10,\"winner_checksum\":944332}}",
      "c0b7f3d5ca6ecfa4a2a03b1a1a6af366" );
    ( "lottery",
      [
        "workload   : lottery (full)";
        "scale      : draws=4008 jackpot=8 regular=3000 faulty_link=1000";
        "specs      : concurrent-phase-king x8, concurrent-bracha x3000, concurrent-bracha x1000";
        "sessions   : 4008 total, 3167 consistent, 508 shards";
        "summary    : heads=1558 tails=1609 void=841 bias_bp=161";
        "comm       : 0 broadcasts (0 B), 1373156 p2p (44486087 B)";
      ],
      "{\"name\":\"lottery\",\"tier\":\"full\",\"sessions\":4008,\"consistent\":3167,\
       \"scale\":{\"draws\":4008,\"jackpot\":8,\"regular\":3000,\"faulty_link\":1000},\
       \"summary\":{\"heads\":1558,\"tails\":1609,\"void\":841,\"bias_bp\":161}}",
      "8b21000d9eb9b1bf963a29f5cf7e91ae" );
  ]

let outcome_digest (o : Workload.outcome) =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (r : Sb_session.Engine.session_report) ->
      Printf.bprintf buf "%s %s %b %d %d\n"
        (Sb_util.Bitvec.to_string r.Sb_session.Engine.x)
        (Sb_util.Bitvec.to_string r.Sb_session.Engine.w)
        r.Sb_session.Engine.consistent r.Sb_session.Engine.rounds r.Sb_session.Engine.p2p)
    o.Workload.reports;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_full name jobs =
  let saved = Sb_par.Pool.get_default_domains () in
  Sb_par.Pool.set_default_domains jobs;
  Sb_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Sb_obs.Metrics.set_enabled false;
      Sb_par.Pool.set_default_domains saved)
    (fun () ->
      match Workload.run ~seed:1 name with
      | Ok o -> o
      | Error e -> Alcotest.failf "workload %s: %s" name e)

let test_pinned name () =
  let _, lines, json, digest =
    List.find (fun (w, _, _, _) -> String.equal w name) pins
  in
  List.iter
    (fun jobs ->
      let o = run_full name jobs in
      let ctx what = Printf.sprintf "%s %s at jobs=%d" name what jobs in
      Alcotest.(check (list string)) (ctx "stdout lines") lines
        (Workload.deterministic_lines o);
      Alcotest.(check string) (ctx "workload block") json
        (Sb_obs.Json.to_string (Workload.to_json o));
      Alcotest.(check string) (ctx "session digest") digest (outcome_digest o))
    [ 1; 2 ]

let () =
  Alcotest.run "sb_workload"
    [
      ( "pins",
        List.map
          (fun (name, _, _, _) ->
            Alcotest.test_case (name ^ " full tier seed 1") `Quick (test_pinned name))
          pins );
    ]
