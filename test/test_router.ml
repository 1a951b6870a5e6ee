(* The route-indexed delivery engine vs the seed's flat-list filter
   semantics.

   The Router's contract is that every read is byte-identical to what
   the original engine computed by re-filtering the whole round queue
   per party. The unit tests pin that on synthetic queues; the
   differential tests pin it end-to-end: they run the five Byzantine
   broadcast substrates through the real network — with and without a
   fault plan exercising crash silencing, Bernoulli omission, and
   delayed re-injection — while a spy interceptor captures each round's
   flattened post-fault queue, and then check that every party's inbox
   of round r+1 equals [List.filter (delivered_to id)] of that queue.
   A jobs-invariance check closes the loop at the sampling layer:
   Resilience cells from 1-domain and 2-domain pools must be equal. *)

open Sb_sim

let env_equal (a : Envelope.t) (b : Envelope.t) =
  a.Envelope.src = b.Envelope.src && a.Envelope.dst = b.Envelope.dst
  && Msg.equal a.Envelope.body b.Envelope.body

let env_list_equal xs ys =
  List.length xs = List.length ys && List.for_all2 env_equal xs ys

let pp_envs fmt envs =
  Format.fprintf fmt "[%a]" (Format.pp_print_list ~pp_sep:Format.pp_print_space Envelope.pp)
    envs

let envs_testable = Alcotest.testable pp_envs env_list_equal

(* --- Router unit tests -------------------------------------------- *)

let to_all ~n ~src body = List.init n (fun dst -> Envelope.make ~src ~dst body)

let to_others ~n ~src body =
  List.filter (fun (e : Envelope.t) -> not (Envelope.delivered_to e src)) (to_all ~n ~src body)

(* The oracle every inbox read must equal: the flat queue filtered to
   what reaches party [i], in enqueue order. *)
let filtered queue i = List.filter (fun e -> Envelope.delivered_to e i) queue
let inbox r i = Inbox.to_list (Router.inbox r i)

(* A mixed queue touching every addressing mode the router accepts:
   direct, broadcast, self-sends, functionality replies. *)
let mixed_queue n =
  List.concat
    [
      [ Envelope.make ~src:0 ~dst:1 (Msg.Str "a") ];
      [ Envelope.broadcast ~src:1 (Msg.Int 1) ];
      to_all ~n ~src:2 (Msg.Str "fan");
      [ Envelope.make ~src:3 ~dst:3 (Msg.Bit true) ];
      [ Envelope.from_func ~dst:0 (Msg.Str "reply") ];
      [ Envelope.broadcast ~src:0 (Msg.Int 2) ];
      to_others ~n ~src:1 (Msg.Str "rest");
    ]

let test_router_inbox_matches_filter () =
  let n = 4 in
  let queue = mixed_queue n in
  let r = Router.create n in
  List.iter (Router.route r) queue;
  for i = 0 to n - 1 do
    Alcotest.check envs_testable (Printf.sprintf "inbox %d" i) (filtered queue i) (inbox r i)
  done;
  Alcotest.check envs_testable "to_list is the queue" queue (Router.to_list r)

(* The per-destination oracle: every send-all record as its n copies. *)
let expanded queue = List.concat_map (fun e -> Envelope.expand_onto e []) queue

(* Random mixes of direct, broadcast, send-all and functionality-sourced
   traffic, on routers built fresh and on one reused across queues from
   a stash: every inbox slice is the filtered record queue, record for
   record (physically the same records: a send-all sits in the shared
   lane as its one record), reading one party's inbox never disturbs
   another's, and the list views — [to_list] and [delivered_to_any]
   for every subset of parties — equal the filtered per-destination
   queue. Then rounds of broadcasts and full send-alls only (the
   substrates' shape), where every inbox is the lane itself, alone and
   with one direct envelope or one short send-all added. *)
let test_router_inbox_random_mixes () =
  let rng = Sb_util.Rng.create 9090 in
  List.iter
    (fun n ->
      let stash = Array.init (n + 2) (fun _ -> Envelope.Buf.create ()) in
      let reused = Router.create ~stash n in
      let check queue =
        let flat = expanded queue in
        Router.clear reused;
        List.iter
          (fun r ->
            List.iter (Router.route r) queue;
            for i = 0 to n - 1 do
              let got = inbox r i in
              Alcotest.(check int)
                (Printf.sprintf "n=%d inbox %d length" n i)
                (List.length (filtered queue i)) (List.length got);
              List.iter2
                (fun a b ->
                  Alcotest.(check bool) (Printf.sprintf "n=%d inbox %d: same envelope" n i) true
                    (a == b))
                (filtered queue i) got
            done;
            Alcotest.(check int) "total" (List.length (List.concat_map (filtered flat) (List.init n Fun.id)))
              (Router.total r);
            Alcotest.check envs_testable (Printf.sprintf "n=%d to_list" n) flat (Router.to_list r);
            for mask = 0 to (1 lsl n) - 1 do
              let ids = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
              Alcotest.check envs_testable
                (Printf.sprintf "n=%d delivered_to_any mask %d" n mask)
                (List.filter (fun e -> List.exists (Envelope.delivered_to e) ids) flat)
                (Router.delivered_to_any r (if mask land 1 = 1 then List.rev ids else ids))
            done)
          [ Router.create n; reused ]
      in
      for _ = 1 to 40 do
        check
          (List.init (Sb_util.Rng.int rng 60) (fun k ->
               let src = Sb_util.Rng.int rng n and dst = Sb_util.Rng.int rng n in
               match Sb_util.Rng.int rng 4 with
               | 0 -> Envelope.make ~src ~dst (Msg.Int k)
               | 1 -> Envelope.broadcast ~src (Msg.Int k)
               | 2 -> Envelope.to_all ~n:(1 + Sb_util.Rng.int rng n) ~src (Msg.Int k)
               | _ -> Envelope.from_func ~dst (Msg.Int k)))
      done;
      let lane =
        Envelope.broadcast ~src:0 (Msg.Str "b")
        :: List.init n (fun src -> Envelope.to_all ~n ~src (Msg.Int src))
      in
      List.iter check
        [
          lane;
          lane @ [ Envelope.make ~src:0 ~dst:(n - 1) (Msg.Str "direct") ];
          Envelope.to_all ~n:((n + 1) / 2) ~src:0 (Msg.Str "short") :: lane;
        ])
    [ 1; 2; 5; 9 ]

let test_router_delivered_to_any () =
  let n = 4 in
  let queue = mixed_queue n in
  let r = Router.create n in
  List.iter (Router.route r) queue;
  let expect ids =
    List.filter (fun e -> List.exists (fun i -> Envelope.delivered_to e i) ids) queue
  in
  List.iter
    (fun ids ->
      Alcotest.check envs_testable
        ("ids " ^ String.concat "," (List.map string_of_int ids))
        (expect ids)
        (Router.delivered_to_any r ids))
    [ []; [ 2 ]; [ 0; 3 ]; [ 3; 1 ]; [ 0; 1; 2; 3 ] ]

let test_router_rejects_func_bound () =
  let r = Router.create 3 in
  Alcotest.check_raises "func-bound"
    (Invalid_argument "Router.route: functionality-bound envelope") (fun () ->
      Router.route r (Envelope.to_func ~src:0 Msg.Unit))

let test_router_clear_and_reuse () =
  let n = 3 in
  let r = Router.create n in
  List.iter (Router.route r) (to_all ~n ~src:0 Msg.Unit);
  Router.clear r;
  Alcotest.check envs_testable "empty after clear" [] (Router.to_list r);
  let queue = [ Envelope.broadcast ~src:2 (Msg.Str "x"); Envelope.make ~src:1 ~dst:0 Msg.Unit ] in
  List.iter (Router.route r) queue;
  Alcotest.check envs_testable "reused inbox 0" (filtered queue 0) (inbox r 0)

let test_router_total () =
  (* [total] counts deliveries — broadcasts once per party — so it must
     equal the sum of all inbox lengths, without materializing them. *)
  let n = 4 in
  let queue = mixed_queue n in
  let r = Router.create n in
  List.iter (Router.route r) queue;
  let by_inbox = ref 0 in
  for i = 0 to n - 1 do
    by_inbox := !by_inbox + Inbox.length (Router.inbox r i)
  done;
  Alcotest.(check int) "total" !by_inbox (Router.total r);
  Router.clear r;
  Alcotest.(check int) "total after clear" 0 (Router.total r)

(* --- Differential: engine vs flat-filter semantics ---------------- *)

(* Wrap a protocol so every honest party records the inbox the engine
   handed it, keyed by (round, id). *)
let recording tbl (p : Protocol.t) =
  {
    p with
    Protocol.make_party =
      (fun ctx ~rng ~id ~input ->
        let inner = p.Protocol.make_party ctx ~rng ~id ~input in
        {
          Party.step =
            (fun ~round ~inbox ~out ->
              Hashtbl.replace tbl (round, id) (Inbox.to_list inbox);
              inner.Party.step ~round ~inbox ~out);
          output = inner.Party.output;
        });
  }

(* A fault hook that compiles [plan] and records each round's
   post-fault flattened queue — the ground truth the next round's
   inboxes must be a filter of. *)
let spy_faults ~n ~plan qtbl ~rng =
  let inner = Sb_fault.Inject.compile ~n plan ~rng in
  fun ~round envs ->
    let envs = inner ~round envs in
    Hashtbl.replace qtbl round envs;
    envs

let check_differential ~name ~plan (protocol : Protocol.t) =
  let n = 5 and thresh = 1 in
  let rng = Sb_util.Rng.create 4242 in
  let ctx = Ctx.make ~rng ~n ~thresh ~k:8 () in
  let inputs = Array.init n (fun i -> Msg.Bit (i mod 2 = 0)) in
  let inboxes = Hashtbl.create 64 in
  let queues = Hashtbl.create 16 in
  let r =
    Network.run ctx ~rng
      ~protocol:(recording inboxes protocol)
      ~adversary:(Adversary.passive protocol) ~inputs
      ~faults:(spy_faults ~n ~plan queues)
      ()
  in
  let total_rounds = r.Network.rounds_used in
  for round = 0 to total_rounds do
    let expected id =
      if round = 0 then []
      else
        match Hashtbl.find_opt queues (round - 1) with
        | None -> []
        | Some q ->
            List.filter
              (fun e -> (not (Envelope.is_func_bound e)) && Envelope.delivered_to e id)
              q
    in
    for id = 0 to n - 1 do
      match Hashtbl.find_opt inboxes (round, id) with
      | None -> Alcotest.failf "%s: party %d never stepped in round %d" name id round
      | Some got ->
          Alcotest.check envs_testable
            (Printf.sprintf "%s: inbox of party %d, round %d" name id round)
            (expected id) got
    done
  done

(* Crash one party mid-run, drop a fifth of party 1's outgoing links,
   and hold everything party 0 sends back one round: together these
   exercise silencing, omission, and the held/release reordering the
   router must reproduce verbatim. *)
let faulty_plan =
  Sb_fault.Plan.crash ~party:4 ~round:1
  :: Sb_fault.Plan.drop ~src:1 0.2
  :: [ Sb_fault.Plan.delay ~src:0 1 ]

let differential_cases =
  List.concat_map
    (fun (protocol : Sb_sim.Protocol.t) ->
      let name = protocol.name in
      [
        Alcotest.test_case (name ^ " (fault-free)") `Quick (fun () ->
            check_differential ~name ~plan:[] protocol);
        Alcotest.test_case (name ^ " (crash+drop+delay)") `Quick (fun () ->
            check_differential ~name ~plan:faulty_plan protocol);
      ])
    Sb_protocols.Registry.substrates

(* --- Jobs invariance at the sampling layer ------------------------ *)

let test_jobs_invariance () =
  let setup =
    Core.Setup.with_samples 200 (Core.Setup.with_n ~n:5 ~thresh:1 Core.Setup.default)
  in
  let protocol = List.hd Sb_protocols.Registry.substrates in
  let plan = Core.Resilience.crash_plan ~n:5 ~count:1 in
  let cell domains =
    let saved = Sb_par.Pool.get_default_domains () in
    Sb_par.Pool.set_default_domains domains;
    Fun.protect
      ~finally:(fun () -> Sb_par.Pool.set_default_domains saved)
      (fun () ->
        Core.Resilience.measure setup ~protocol ~adversary:Core.Adversaries.passive
          ~dist:(Sb_dist.Dist.uniform 5) ~plan (Sb_util.Rng.create 42))
  in
  let c1 = cell 1 in
  List.iter
    (fun domains ->
      let c = cell domains in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "agreement identical at %d domains" domains)
        c1.Core.Resilience.agree.Sb_stats.Estimate.point
        c.Core.Resilience.agree.Sb_stats.Estimate.point;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "validity identical at %d domains" domains)
        c1.Core.Resilience.valid.Sb_stats.Estimate.point
        c.Core.Resilience.valid.Sb_stats.Estimate.point)
    [ 2; 4 ]

let () =
  Alcotest.run "sb_router"
    [
      ( "router",
        [
          Alcotest.test_case "inbox = filtered queue" `Quick test_router_inbox_matches_filter;
          Alcotest.test_case "inbox slices = filtered random mixes" `Quick
            test_router_inbox_random_mixes;
          Alcotest.test_case "delivered_to_any" `Quick test_router_delivered_to_any;
          Alcotest.test_case "rejects func-bound" `Quick test_router_rejects_func_bound;
          Alcotest.test_case "clear and reuse" `Quick test_router_clear_and_reuse;
          Alcotest.test_case "total = sum of inboxes" `Quick test_router_total;
        ] );
      ("differential", differential_cases);
      ("parallel", [ Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance ]);
    ]
