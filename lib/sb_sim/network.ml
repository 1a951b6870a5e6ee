type comm = {
  broadcasts : int;
  broadcast_bytes : int;
  p2p_bytes : int;
  deliveries : int;
}

type result = {
  outputs : (int * Msg.t) list;
  adv_output : Msg.t;
  corrupted : int list;
  rounds_used : int;
  p2p_messages : int;
  trace : Trace.t;
  comm : comm option;
}

let log_src = Logs.Src.create "sb.network" ~doc:"simulated network round events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Observability handles. Interned once; every update is guarded by
   [Metrics.enabled] so a disabled run pays one boolean load per round.
   None of this touches the split RNG streams: seeded protocol outputs
   are identical with metrics on or off. *)
let m_runs = Sb_obs.Metrics.counter "sim.runs"
let m_rounds = Sb_obs.Metrics.counter "sim.rounds"
let m_honest = Sb_obs.Metrics.counter "sim.envelopes.honest"
let m_adv = Sb_obs.Metrics.counter "sim.envelopes.adv"
let m_func = Sb_obs.Metrics.counter "sim.envelopes.func"
let m_bcast = Sb_obs.Metrics.counter "sim.broadcasts"
let m_p2p = Sb_obs.Metrics.counter "sim.p2p"
let m_bytes_bcast = Sb_obs.Metrics.counter "sim.bytes.broadcast"
let m_bytes_p2p = Sb_obs.Metrics.counter "sim.bytes.p2p"
let m_forged = Sb_obs.Metrics.counter "sim.forgeries_dropped"
let h_round_us = Sb_obs.Metrics.histogram "sim.round_duration_us"

(* Aggregate throughput gauges, recomputed at every run completion
   from the cumulative counters and the cumulative in-run wall clock
   (itself a gauge, so Metrics.reset rebases the rates too). The
   mutex serialises the read-modify-write of the wall total across
   sampler domains. *)
let g_wall = Sb_obs.Metrics.gauge "sim.run_wall_s_total"
let g_sessions_ps = Sb_obs.Metrics.gauge "sim.sessions_per_sec"
let g_msgs_ps = Sb_obs.Metrics.gauge "sim.msgs_per_sec"
let g_bytes_ps = Sb_obs.Metrics.gauge "sim.bytes_per_sec"
let wall_lock = Mutex.create ()

(* count_channels runs on every round of every run, metrics on or off.
   These tallies count into int refs: without flambda a tuple
   accumulator would allocate once per envelope. *)
let count_channels envs =
  (* (broadcast, p2p) among party-sourced traffic; ideal-channel
     envelopes are counted separately under sim.envelopes.func. *)
  let b = ref 0 and p = ref 0 in
  List.iter
    (fun e ->
      if Envelope.is_func_bound e then ()
      else if Envelope.is_broadcast e then incr b
      else incr p)
    envs;
  (!b, !p)

let count_bytes envs =
  (* (broadcast, p2p) wire bytes; a broadcast envelope is one channel
     use and counted once, matching sim.broadcasts. *)
  let b = ref 0 and p = ref 0 in
  List.iter
    (fun e ->
      if Envelope.is_func_bound e then ()
      else if Envelope.is_broadcast e then b := !b + Envelope.wire_size e
      else p := !p + Envelope.wire_size e)
    envs;
  (!b, !p)

(* Per-run communication tally for [?record_comm]: like count_channels
   + count_bytes in one pass, added into the caller's counters, with a
   one-slot physical-equality cache for body sizes — a send-all
   fan-out shares one body across n envelopes, so the size walk runs
   once per distinct body instead of once per envelope. Independent of
   the global metrics registry: the large-n experiments need per-run
   numbers without retaining traces and without adding counters to
   every report's metrics block. *)
let comm_tally cached_body cached_size ~bcast ~bcast_bytes ~p2p_bytes envs =
  List.iter
    (fun e ->
      if not (Envelope.is_func_bound e) then begin
        let body = e.Envelope.body in
        let size =
          if body == !cached_body then !cached_size
          else begin
            let s = Msg.size_bytes body in
            cached_body := body;
            cached_size := s;
            s
          end
        in
        let w =
          Envelope.endpoint_size e.Envelope.src
          + Envelope.endpoint_size e.Envelope.dst
          + size
        in
        if Envelope.is_broadcast e then begin
          incr bcast;
          bcast_bytes := !bcast_bytes + w
        end
        else p2p_bytes := !p2p_bytes + w
      end)
    envs

type interceptor = round:int -> Envelope.t list -> Envelope.t list

(* The round loop runs five explicit phases over a route-indexed
   delivery queue (see Router):

     deliver    parties and the adversary read this round's mailboxes;
     collect    honest parties step and emit their outgoing envelopes;
     rush       the adversary observes same-round honest traffic and
                answers; spoofed sources are dropped;
     intercept  the fault interceptor filters the flat outgoing queue
                (honest + adversarial + functionality-bound traffic,
                exactly as sent);
     route      the functionality consumes Func-bound envelopes, and
                the surviving queue — party traffic first, then
                functionality replies — is dispatched into the next
                round's router.

   The router preserves enqueue order per recipient (Router's ordering
   invariant), so each phase sees byte-for-byte what the seed
   list-filter engine showed it; only the delivery cost changed, from
   O(parties x envelopes) to O(envelopes) per round. *)
let run (ctx : Ctx.t) ~rng ~(protocol : Protocol.t) ~(adversary : Adversary.t) ~inputs
    ?(aux = Msg.Unit) ?(record_trace = true) ?(record_comm = false)
    ?(reuse_envelopes = false) ?faults () =
  let n = ctx.n in
  if Array.length inputs <> n then invalid_arg "Network.run: wrong number of inputs";
  (* Envelope recycling mutates records two rounds after allocation;
     anything that retains envelopes across rounds — the run trace,
     delay-fault re-injection queues — would see them change under its
     feet. (Adversaries that stash delivered envelopes across rounds
     are equally incompatible; that contract is documented, not
     checkable here.) *)
  if reuse_envelopes && (record_trace || Option.is_some faults) then
    invalid_arg "Network.run: reuse_envelopes requires record_trace:false and no faults";
  (* Independent randomness streams, in a fixed order for reproducibility.
     The fault stream is split last, and only when a fault hook is
     installed, so fault-free runs replay the exact seed streams. *)
  let party_rngs = Array.init n (fun _ -> Sb_util.Rng.split rng) in
  let adv_rng = Sb_util.Rng.split rng in
  let func_rng = Sb_util.Rng.split rng in
  let intercept =
    match faults with
    | None -> None
    | Some make -> Some (make ~rng:(Sb_util.Rng.split rng))
  in
  let corrupted = adversary.choose_corrupt ctx ~rng:adv_rng in
  assert (Sb_util.Subset.is_valid n corrupted);
  assert (List.length corrupted <= ctx.thresh);
  let is_corrupt = Array.make n false in
  List.iter (fun i -> is_corrupt.(i) <- true) corrupted;
  let honest = List.filter (fun i -> not is_corrupt.(i)) (List.init n Fun.id) in
  let parties =
    List.map
      (fun id -> (id, protocol.make_party ctx ~rng:party_rngs.(id) ~id ~input:inputs.(id)))
      honest
  in
  let functionality =
    match protocol.make_functionality with
    | None -> Functionality.none
    | Some make -> make ctx ~rng:func_rng
  in
  let strategy =
    adversary.init ctx ~rng:adv_rng ~corrupted
      ~inputs:(List.map (fun i -> (i, inputs.(i))) corrupted)
      ~aux
  in
  let total_rounds = protocol.rounds ctx in
  (* Two routers ping-pong across rounds: [mailboxes] holds this
     round's deliveries, [staging] is cleared and refilled with the
     next round's queue, then they swap. *)
  (* Preallocating mailbox capacity under reuse avoids the first
     rounds' doubling-growth copies; capacity is retained across the
     run either way. *)
  let router_cap = if reuse_envelopes then n else 0 in
  let mailboxes = ref (Router.create ~cap:router_cap n) in
  let staging = ref (Router.create ~cap:router_cap n) in
  let trace = ref [] in
  (* ?record_comm accumulators (per-run, metrics-independent). *)
  let c_bcast = ref 0 and c_p2p_bytes = ref 0 and c_bcast_bytes = ref 0 in
  let c_deliveries = ref 0 in
  let cached_body = ref Msg.Unit in
  let cached_size = ref (Msg.size_bytes Msg.Unit) in
  (* Monte-Carlo sampling passes [record_trace:false]: the per-round
     envelope lists are then dropped as soon as the round ends instead
     of being retained for the whole run, and the p2p tally below is
     the only thing kept. *)
  let p2p_count = ref 0 in
  Sb_obs.Metrics.incr m_runs;
  let metrics_run = Sb_obs.Metrics.enabled () in
  let run_t0 = if metrics_run then Unix.gettimeofday () else 0.0 in
  (* Causal tracing (Trace_ctx): off by default, one boolean load here.
     When enabled, this run becomes one session span tree — session ->
     round -> {collect/rush/intercept/route} phases -> party — plus a
     flow edge per delivered envelope from the span that sent it into
     the round span that delivers it. Like metrics, none of this
     touches the split RNG streams. *)
  let tracing = Sb_obs.Trace_ctx.enabled () in
  let s_session =
    if tracing then
      Sb_obs.Trace_ctx.begin_session protocol.name
        ~args:
          [
            ("protocol", protocol.name);
            ("n", string_of_int n);
            ("thresh", string_of_int ctx.thresh);
            ("corrupted", string_of_int (List.length corrupted));
          ]
    else Sb_obs.Trace_ctx.none
  in
  let party_span =
    if tracing then Array.make n Sb_obs.Trace_ctx.none else [||]
  in
  (* Sender spans of envelopes routed into the next round; when that
     round's span opens these become its incoming flow edges. *)
  let pending : Sb_obs.Trace_ctx.h list ref = ref [] in
  for round = 0 to total_rounds do
    (* Under reuse, flip the context arena: the side flipped onto last
       held round r-2's allocations, delivered and consumed at r-1 —
       dead by now, so its records are recycled for this round. *)
    if reuse_envelopes then
      (match ctx.pool with Some a -> Envelope.Arena.flip a | None -> ());
    let metrics_on = Sb_obs.Metrics.enabled () in
    let t0 = if metrics_on then Unix.gettimeofday () else 0.0 in
    let inbox_router = !mailboxes in
    let last = round = total_rounds in
    let s_round =
      if tracing then begin
        let s =
          Sb_obs.Trace_ctx.begin_span ~agg:"round" ~cat:"round"
            ~args:[ ("round", string_of_int round) ]
            (Printf.sprintf "round %d" round)
        in
        List.iter (fun src -> Sb_obs.Trace_ctx.flow ~src ~dst:s) !pending;
        pending := [];
        s
      end
      else Sb_obs.Trace_ctx.none
    in
    (* 1. Deliver + collect: honest parties step on their mailboxes. *)
    let honest_out =
      if tracing then begin
        let s_collect =
          Sb_obs.Trace_ctx.begin_span ~agg:"collect" ~cat:"phase" "collect"
        in
        let out =
          List.concat_map
            (fun (id, party) ->
              let sp =
                Sb_obs.Trace_ctx.begin_span ~agg:"party" ~cat:"party"
                  ~args:[ ("id", string_of_int id) ]
                  (Printf.sprintf "P%d" id)
              in
              party_span.(id) <- sp;
              let inbox =
                Sb_obs.Trace_ctx.with_span ~agg:"deliver" ~cat:"phase" "deliver"
                  (fun () -> Router.inbox inbox_router id)
              in
              let out = party.Party.step ~round ~inbox in
              List.iter (fun e -> assert (Envelope.src_is e id)) out;
              Sb_obs.Trace_ctx.end_span sp;
              out)
            parties
        in
        Sb_obs.Trace_ctx.end_span s_collect;
        out
      end
      else
        List.concat_map
          (fun (id, party) ->
            let out = party.Party.step ~round ~inbox:(Router.inbox inbox_router id) in
            (* Authenticated channels: an honest party only speaks as itself. *)
            List.iter (fun e -> assert (Envelope.src_is e id)) out;
            out)
          parties
    in
    (* 2. Rush: the adversary sees same-round honest traffic — minus
       the ideal channel to the functionality — plus everything the
       router delivered to the corrupted set this round. *)
    let s_rush =
      if tracing then Sb_obs.Trace_ctx.begin_span ~agg:"rush" ~cat:"phase" "rush"
      else Sb_obs.Trace_ctx.none
    in
    (* Both queue copies below are skipped when they would copy
       everything: most rounds send nothing to the functionality, and
       an honest run's adversary never speaks. *)
    let rushed =
      if List.exists Envelope.is_func_bound honest_out then
        List.filter (fun e -> not (Envelope.is_func_bound e)) honest_out
      else honest_out
    in
    let delivered = Router.delivered_to_any inbox_router corrupted in
    let adv_out_raw = strategy.Adversary.act { round; delivered; rushed } in
    (* Drop spoofed envelopes. *)
    let adv_out =
      List.filter
        (fun e ->
          match Envelope.src_party e with Some i -> is_corrupt.(i) | None -> false)
        adv_out_raw
    in
    Sb_obs.Trace_ctx.end_span s_rush;
    (* 3. Intercept: fault injection at the delivery queue. Crashed
       senders are silenced (even towards the functionality),
       lossy/partitioned links drop, delayed envelopes are re-injected
       in a later round. Everything above this point saw the traffic
       as sent; the interceptor always receives the full flattened
       queue, before any routing. *)
    let s_intercept =
      if tracing then
        Sb_obs.Trace_ctx.begin_span ~agg:"intercept" ~cat:"phase" "intercept"
      else Sb_obs.Trace_ctx.none
    in
    let all_out =
      if last then [] else if adv_out = [] then honest_out else honest_out @ adv_out
    in
    let all_out =
      match intercept with None -> all_out | Some f -> f ~round all_out
    in
    Sb_obs.Trace_ctx.end_span s_intercept;
    (* 4. Route: the functionality consumes Func-bound traffic of this
       round, then the queue — party traffic first, then the
       functionality's replies — is dispatched into the next round's
       mailboxes. *)
    let s_route =
      if tracing then Sb_obs.Trace_ctx.begin_span ~agg:"route" ~cat:"phase" "route"
      else Sb_obs.Trace_ctx.none
    in
    let func_in = List.filter Envelope.is_func_bound all_out in
    let func_out = functionality.Functionality.f_step ~round ~inbox:func_in in
    List.iter (fun e -> assert (Envelope.is_from_func e)) func_out;
    Log.debug (fun m ->
        m "%s round %d: honest=%d adv=%d func_in=%d func_out=%d%s" protocol.name round
          (List.length honest_out) (List.length adv_out) (List.length func_in)
          (List.length func_out)
          (if last then " (final)" else ""));
    (* 5. Record round observations, then queue next-round deliveries.
       The p2p tally is one int-ref pass per queue, so keeping it
       incrementally costs next to nothing even with metrics off. *)
    if not last then begin
      let _, hp = count_channels honest_out and _, ap = count_channels adv_out in
      p2p_count := !p2p_count + hp + ap
    end;
    if record_comm && not last then begin
      let tally =
        comm_tally cached_body cached_size ~bcast:c_bcast ~bcast_bytes:c_bcast_bytes
          ~p2p_bytes:c_p2p_bytes
      in
      tally honest_out;
      tally adv_out
    end;
    if metrics_on then begin
      Sb_obs.Metrics.incr m_rounds;
      Sb_obs.Metrics.incr ~by:(List.length honest_out) m_honest;
      Sb_obs.Metrics.incr ~by:(List.length adv_out) m_adv;
      Sb_obs.Metrics.incr ~by:(List.length func_out) m_func;
      Sb_obs.Metrics.incr ~by:(List.length adv_out_raw - List.length adv_out) m_forged;
      let hb, hp = count_channels honest_out and ab, ap = count_channels adv_out in
      Sb_obs.Metrics.incr ~by:(hb + ab) m_bcast;
      Sb_obs.Metrics.incr ~by:(hp + ap) m_p2p;
      let hbb, hpb = count_bytes honest_out and abb, apb = count_bytes adv_out in
      Sb_obs.Metrics.incr ~by:(hbb + abb) m_bytes_bcast;
      Sb_obs.Metrics.incr ~by:(hpb + apb) m_bytes_p2p;
      Sb_obs.Metrics.observe h_round_us ((Unix.gettimeofday () -. t0) *. 1e6)
    end;
    let next = !staging in
    Router.clear next;
    List.iter
      (fun e -> if not (Envelope.is_func_bound e) then Router.route next e)
      all_out;
    Router.route_all next func_out;
    if record_comm then c_deliveries := !c_deliveries + Router.total next;
    Sb_obs.Trace_ctx.end_span s_route;
    if tracing && not last then begin
      (* One causal edge per delivered envelope: sender span -> next
         round's span. Honest senders resolve to their party span,
         corrupted senders to the rush phase (where the adversary
         spoke), functionality replies to the route phase (where the
         functionality stepped). *)
      let src_of e =
        match Envelope.src_party e with
        | Some i when not is_corrupt.(i) -> party_span.(i)
        | Some _ -> s_rush
        | None -> s_route
      in
      List.iter
        (fun e ->
          if not (Envelope.is_func_bound e) then pending := src_of e :: !pending)
        all_out;
      List.iter (fun _ -> pending := s_route :: !pending) func_out
    end;
    staging := inbox_router;
    mailboxes := next;
    Sb_obs.Trace_ctx.end_span s_round;
    if record_trace && not last then
      trace :=
        { Trace.round; honest_sent = honest_out; adv_sent = adv_out; func_sent = func_out }
        :: !trace
  done;
  if tracing then begin
    pending := [];
    Sb_obs.Trace_ctx.end_span s_session
  end;
  if metrics_run && Sb_obs.Metrics.enabled () then begin
    (* Fold this run's wall time into the cumulative total and refresh
       the throughput gauges from the cumulative counters. Gauges are
       wall-clock derived and therefore not part of the deterministic
       counter surface. *)
    let wall = Unix.gettimeofday () -. run_t0 in
    Mutex.lock wall_lock;
    let total = Sb_obs.Metrics.gauge_value g_wall +. wall in
    Sb_obs.Metrics.set g_wall total;
    if total > 0.0 then begin
      let c m = float_of_int (Sb_obs.Metrics.counter_value m) in
      Sb_obs.Metrics.set g_sessions_ps (c m_runs /. total);
      Sb_obs.Metrics.set g_msgs_ps ((c m_bcast +. c m_p2p) /. total);
      Sb_obs.Metrics.set g_bytes_ps ((c m_bytes_bcast +. c m_bytes_p2p) /. total)
    end;
    Mutex.unlock wall_lock
  end;
  let trace = List.rev !trace in
  if Sb_obs.Sink.attached () > 0 then
    Sb_obs.Event.emit "network.run"
      ~fields:
      [
        ("protocol", Sb_obs.Json.Str protocol.name);
        ("rounds", Sb_obs.Json.Int total_rounds);
        ("corrupted", Sb_obs.Json.Int (List.length corrupted));
        ("p2p", Sb_obs.Json.Int !p2p_count);
        ( "per_round",
          Sb_obs.Json.List
            (List.map
               (fun (h, a, f) -> Sb_obs.Json.List [ Sb_obs.Json.Int h; Sb_obs.Json.Int a; Sb_obs.Json.Int f ])
               (Trace.per_round_counts trace)) );
      ];
  {
    outputs = List.map (fun (id, party) -> (id, party.Party.output ())) parties;
    adv_output = strategy.Adversary.adv_output ();
    corrupted;
    rounds_used = total_rounds;
    p2p_messages = !p2p_count;
    trace;
    comm =
      (if record_comm then
         Some
           {
             broadcasts = !c_bcast;
             broadcast_bytes = !c_bcast_bytes;
             p2p_bytes = !c_p2p_bytes;
             deliveries = !c_deliveries;
           }
       else None);
  }

let honest_run ?record_trace ?record_comm ?reuse_envelopes ctx ~rng ~protocol ~inputs =
  run ctx ~rng ~protocol ~adversary:(Adversary.passive protocol) ~inputs ?record_trace
    ?record_comm ?reuse_envelopes ()
