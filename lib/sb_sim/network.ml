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

(* Observability handles, registered on first use: a run looks them
   up once, and only with metrics on, so a report of a binary that
   never drives a metered run (the model checker's) lists no sim.*
   metric. Every update is still guarded by [Metrics.enabled]. None of
   this touches the split RNG streams: seeded protocol outputs are
   identical with metrics on or off.

   The throughput gauges are recomputed at every run completion from
   the cumulative counters and the cumulative in-run wall clock (itself
   a gauge, so Metrics.reset rebases the rates too). The mutex
   serialises the read-modify-write of the wall total across sampler
   domains. *)
type meters = {
  runs : Sb_obs.Metrics.counter;
  rounds : Sb_obs.Metrics.counter;
  honest : Sb_obs.Metrics.counter;
  adv : Sb_obs.Metrics.counter;
  func : Sb_obs.Metrics.counter;
  bcast : Sb_obs.Metrics.counter;
  p2p : Sb_obs.Metrics.counter;
  bytes_bcast : Sb_obs.Metrics.counter;
  bytes_p2p : Sb_obs.Metrics.counter;
  forged : Sb_obs.Metrics.counter;
  round_us : Sb_obs.Metrics.histogram;
  wall : Sb_obs.Metrics.gauge;
  sessions_ps : Sb_obs.Metrics.gauge;
  msgs_ps : Sb_obs.Metrics.gauge;
  bytes_ps : Sb_obs.Metrics.gauge;
}

let meters =
  Sb_obs.Metrics.on_first_use (fun () ->
      let c = Sb_obs.Metrics.counter and g = Sb_obs.Metrics.gauge in
      {
        runs = c "sim.runs";
        rounds = c "sim.rounds";
        honest = c "sim.envelopes.honest";
        adv = c "sim.envelopes.adv";
        func = c "sim.envelopes.func";
        bcast = c "sim.broadcasts";
        p2p = c "sim.p2p";
        bytes_bcast = c "sim.bytes.broadcast";
        bytes_p2p = c "sim.bytes.p2p";
        forged = c "sim.forgeries_dropped";
        round_us = Sb_obs.Metrics.histogram "sim.round_duration_us";
        wall = g "sim.run_wall_s_total";
        sessions_ps = g "sim.sessions_per_sec";
        msgs_ps = g "sim.msgs_per_sec";
        bytes_ps = g "sim.bytes_per_sec";
      })

let wall_lock = Mutex.create ()

type interceptor = round:int -> Envelope.t list -> Envelope.t list

type started = {
  collect : round:int -> unit;
  sent : unit -> Envelope.t list;
  route : round:int -> Envelope.t list option -> unit;
  finish : unit -> result;
}

(* Delivery storage for runs without an arena: each domain lends its
   last run's router buffers and outbox to its next run, so a stream of small
   runs stops growing fresh buffers. A run takes the storage out of the
   slot and puts it back on return (a nested run, or one after a run
   that raised, starts fresh); storage past 2^16 slots is not kept. *)
let spare : Envelope.Arena.arena option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Adds a sender span to a round's pending flow sources, once. A
   sender's records are contiguous, so the head usually answers. *)
let add_sender pending sp = if not (List.memq sp !pending) then pending := sp :: !pending

(* Set a run up and return its round's two halves as closures over its
   locals; interception sits between them, in the caller. Routing
   keeps enqueue order per recipient (Router's ordering invariant).
   Without a queue to route, no envelope list is built: one pass over
   the sends checks authentication, counts, tallies and routes. Only a
   run given [meters] feeds the sim.* counters. *)
let begin_run ~meters ~record_trace ~record_comm ~reuse_envelopes (ctx : Ctx.t) ~rng
    ~(protocol : Protocol.t) ~(adversary : Adversary.t) ~inputs ~aux =
  let n = ctx.n in
  if Array.length inputs <> n then invalid_arg "Network.run: wrong number of inputs";
  (* Independent randomness streams, in a fixed order for reproducibility.
     A caller's fault stream is split after these, and only when a
     fault hook is installed, so fault-free runs replay the exact seed
     streams. *)
  let party_rngs = Array.init n (fun _ -> Sb_util.Rng.split rng) in
  let adv_rng = Sb_util.Rng.split rng in
  let func_rng = Sb_util.Rng.split rng in
  let corrupted = adversary.choose_corrupt ctx ~rng:adv_rng in
  assert (Sb_util.Subset.is_valid n corrupted);
  assert (List.length corrupted <= ctx.thresh);
  let is_corrupt = Array.make n false in
  List.iter (fun i -> is_corrupt.(i) <- true) corrupted;
  let honest = List.filter (fun i -> not is_corrupt.(i)) (List.init n Fun.id) in
  let parties =
    Array.of_list
      (List.map
         (fun id -> (id, protocol.make_party ctx ~rng:party_rngs.(id) ~id ~input:inputs.(id)))
         honest)
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
  (* Two routers ping-pong across rounds ([mailboxes] delivers this
     round, [staging] is refilled with the next round's queue). They
     and the outbox live in the ctx arena under reuse, else in the
     domain's spare storage. *)
  let storage =
    match (reuse_envelopes, ctx.pool, Domain.DLS.get spare) with
    | true, Some a, _ -> a
    | false, _, Some a ->
        Domain.DLS.set spare None;
        a
    | _ -> Envelope.Arena.create ()
  in
  let st = Envelope.Arena.stash storage ((2 * (n + 2)) + 1) in
  let mailboxes = ref (Router.create ~stash:st n) in
  let staging = ref (Router.create ~stash:(Array.sub st (n + 2) (n + 2)) n) in
  let out = Outbox.create ?pool:ctx.pool ~buf:st.(2 * (n + 2)) () in
  (* [ends.(k)]: where honest party k's appends end in the outbox. *)
  let ends = Array.make (Array.length parties) 0 in
  let trace = ref [] in
  (* ?record_comm accumulators, metrics-independent. *)
  let c_bcast = ref 0 and c_p2p_bytes = ref 0 and c_bcast_bytes = ref 0 in
  let c_deliveries = ref 0 in
  let p2p_count = ref 0 in
  (* Causal tracing (Trace_ctx), off by default: one session span tree
     — session -> round -> {collect/rush/intercept/route} phases ->
     party — plus one flow edge from each span that sent traffic into
     the round that delivers it. No RNG stream is touched. *)
  let tracing = Sb_obs.Trace_ctx.enabled () in
  let phase name =
    if tracing then Sb_obs.Trace_ctx.begin_span ~agg:name ~cat:"phase" name
    else Sb_obs.Trace_ctx.none
  in
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
  let party_span = if tracing then Array.make n Sb_obs.Trace_ctx.none else [||] in
  (* The distinct sender spans of the envelopes routed into the next
     round; when that round's span opens these become its incoming
     flow edges. *)
  let pending : Sb_obs.Trace_ctx.h list ref = ref [] in
  (* The round whose adversary view may still be forced (its lists are
     built from storage the next round reuses); -1 once closed. *)
  let view_round = ref 0 in
  (* What [collect] leaves for [route] within one round. *)
  let s_round = ref Sb_obs.Trace_ctx.none and s_rush = ref Sb_obs.Trace_ctx.none in
  let s_intercept = ref Sb_obs.Trace_ctx.none in
  let adv_out_raw = ref [] and adv_out = ref [] in
  (* Deliver + collect + rush. *)
  let collect ~round =
    if !view_round < 0 then invalid_arg "Network: the run is closed";
    (* Under reuse, flip the context arena: the side flipped onto last
       held round r-2's allocations, delivered and consumed at r-1 —
       dead by now, so its records are recycled for this round. *)
    if reuse_envelopes then
      (match ctx.pool with Some a -> Envelope.Arena.flip a | None -> ());
    let inbox_router = !mailboxes in
    s_round :=
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
      else Sb_obs.Trace_ctx.none;
    Outbox.clear out;
    let s_collect = phase "collect" in
    Array.iteri
      (fun k (id, party) ->
        if tracing then begin
          let sp =
            Sb_obs.Trace_ctx.begin_span ~agg:"party" ~cat:"party"
              ~args:[ ("id", string_of_int id) ]
              (Printf.sprintf "P%d" id)
          in
          party_span.(id) <- sp;
          let inbox =
            Sb_obs.Trace_ctx.with_span ~agg:"deliver" ~cat:"phase" "deliver" (fun () ->
                Router.inbox inbox_router id)
          in
          party.Party.step ~round ~inbox ~out;
          Sb_obs.Trace_ctx.end_span sp
        end
        else party.Party.step ~round ~inbox:(Router.inbox inbox_router id) ~out;
        ends.(k) <- Outbox.length out)
      parties;
    Sb_obs.Trace_ctx.end_span s_collect;
    (* Rush: the adversary sees same-round honest traffic — minus the
       ideal channel to the functionality — plus everything the router
       delivered to the corrupted set this round. *)
    let s = phase "rush" in
    s_rush := s;
    view_round := round;
    let current () = if !view_round <> round then invalid_arg "Adversary.view: stale" in
    let rushed =
      lazy (current (); List.filter (fun e -> not (Envelope.is_func_bound e)) (Outbox.to_list out))
    in
    let delivered = lazy (current (); Router.delivered_to_any inbox_router corrupted) in
    (* The adversary's send-alls count, filter and trace as copies. *)
    adv_out_raw := List.fold_right Envelope.expand_onto (strategy.Adversary.act { round; delivered; rushed }) [];
    (* Drop spoofed envelopes. *)
    adv_out :=
      List.filter
        (fun e ->
          match Envelope.src_party e with Some i -> is_corrupt.(i) | None -> false)
        !adv_out_raw;
    Sb_obs.Trace_ctx.end_span s;
    (* Interception is the caller's; [route] closes its span. *)
    s_intercept := phase "intercept"
  in
  let sent () = match !adv_out with [] -> Outbox.to_list out | a -> Outbox.to_list out @ a in
  (* One pass over the sends, then the functionality, whose replies
     are routed last; [queue], when given, is routed instead. *)
  let route ~round queue =
    if !view_round < 0 then invalid_arg "Network: the run is closed";
    Sb_obs.Trace_ctx.end_span !s_intercept;
    let last = round = total_rounds in
    let metrics_on = Option.is_some meters && Sb_obs.Metrics.enabled () in
    let s_rush = !s_rush and adv_out = !adv_out in
    let inbox_router = !mailboxes in
    let s_route = phase "route" in
    let next = !staging in
    Router.clear next;
    let bcasts = ref 0 and p2ps = ref 0 and bcast_bytes = ref 0 and p2p_bytes = ref 0 in
    let func_in = ref [] in
    let route_here = Option.is_none queue && not last in
    let src_of e =
      match Envelope.src_party e with
      | Some i when not is_corrupt.(i) -> party_span.(i)
      | Some _ -> s_rush
      | None -> s_route
    in
    let route e =
      Router.route next e;
      if tracing && not last then add_sender pending (src_of e)
    in
    let account (e : Envelope.t) =
      match e.Envelope.dst with
      | Envelope.Func -> if route_here then func_in := e :: !func_in
      | dst ->
          let bc = match dst with Envelope.All -> true | _ -> false in
          let copies = Envelope.copies e in
          if bc then incr bcasts else p2ps := !p2ps + copies;
          let tally = record_comm && not last in
          if metrics_on || tally then begin
            let size = Envelope.wire_size e in
            if metrics_on then begin
              let b = if bc then bcast_bytes else p2p_bytes in
              b := !b + size
            end;
            if tally then begin
              let b = if bc then c_bcast_bytes else c_p2p_bytes in
              b := !b + size;
              if bc then incr c_bcast
            end
          end;
          if route_here then route e
    in
    (* The common case — routing, nothing to tally — inline. *)
    let plain = route_here && not (metrics_on || record_comm || tracing) in
    let n_honest = ref 0 in
    let k = ref 0 in
    for j = 0 to Outbox.length out - 1 do
      while j >= ends.(!k) do
        incr k
      done;
      let e = Outbox.get out j in
      (* Authenticated channels: an honest party only speaks as itself. *)
      assert (Envelope.src_is e (fst parties.(!k)));
      n_honest := !n_honest + Envelope.copies e;
      if not plain then account e
      else
        match e.Envelope.dst with
        | Envelope.Func -> func_in := e :: !func_in
        | Envelope.All ->
            incr bcasts;
            Router.route next e
        | Envelope.Party _ | Envelope.Each _ ->
            p2ps := !p2ps + Envelope.copies e;
            Router.route next e
    done;
    let n_honest = !n_honest in
    List.iter account adv_out;
    let func_in =
      match queue with
      | None -> List.rev !func_in
      | Some all_out ->
          List.iter (fun e -> if not (Envelope.is_func_bound e) then route e) all_out;
          List.filter Envelope.is_func_bound all_out
    in
    let func_out = functionality.Functionality.f_step ~round ~inbox:func_in in
    List.iter (fun e -> assert (Envelope.is_from_func e)) func_out;
    List.iter (Router.route next) func_out;
    if tracing && (not last) && func_out <> [] then add_sender pending s_route;
    let n_adv = List.length adv_out in
    if Logs.Src.level log_src = Some Logs.Debug then
      Log.debug (fun m ->
          m "%s round %d: honest=%d adv=%d func_in=%d func_out=%d%s" protocol.name round
            n_honest n_adv (List.length func_in) (List.length func_out)
            (if last then " (final)" else ""));
    (* Record round observations. *)
    if not last then p2p_count := !p2p_count + !p2ps;
    (match meters with
    | Some m when metrics_on ->
        Sb_obs.Metrics.incr m.rounds;
        Sb_obs.Metrics.incr ~by:n_honest m.honest;
        Sb_obs.Metrics.incr ~by:n_adv m.adv;
        Sb_obs.Metrics.incr ~by:(List.length func_out) m.func;
        Sb_obs.Metrics.incr ~by:(List.length !adv_out_raw - n_adv) m.forged;
        Sb_obs.Metrics.incr ~by:!bcasts m.bcast;
        Sb_obs.Metrics.incr ~by:!p2ps m.p2p;
        Sb_obs.Metrics.incr ~by:!bcast_bytes m.bytes_bcast;
        Sb_obs.Metrics.incr ~by:!p2p_bytes m.bytes_p2p
    | _ -> ());
    if record_comm then c_deliveries := !c_deliveries + Router.total next;
    Sb_obs.Trace_ctx.end_span s_route;
    staging := inbox_router;
    mailboxes := next;
    Sb_obs.Trace_ctx.end_span !s_round;
    if record_trace && not last then
      trace :=
        { Trace.round; honest_sent = Outbox.to_list out; adv_sent = adv_out; func_sent = func_out }
        :: !trace
  in
  (* Closing hands the storage back, once; outputs may be read at any
     point, and are final after the last round. *)
  let finish () =
    if !view_round >= 0 then begin
      view_round := -1;
      if tracing then begin
        pending := [];
        Sb_obs.Trace_ctx.end_span s_session
      end;
      if (not reuse_envelopes) && Array.for_all (fun (b : Envelope.Buf.t) -> Array.length b.envs <= 1 lsl 16) st
      then Domain.DLS.set spare (Some storage)
    end;
    {
      outputs = Array.to_list (Array.map (fun (id, party) -> (id, party.Party.output ())) parties);
      adv_output = strategy.Adversary.adv_output ();
      corrupted;
      rounds_used = total_rounds;
      p2p_messages = !p2p_count;
      trace = List.rev !trace;
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
  in
  { collect; sent; route; finish }

(* The round loop: collect, offer the as-sent queue to the interceptor
   (none in the final round, whose sends are discarded), route. The
   run count and the wall-clock metrics live here, with the loop that
   owns the clock. *)
let drive ctx (protocol : Protocol.t) s ~meters ~intercept =
  let run_t0 = if Option.is_some meters then Unix.gettimeofday () else 0.0 in
  Option.iter (fun m -> Sb_obs.Metrics.incr m.runs) meters;
  let total_rounds = protocol.rounds ctx in
  for round = 0 to total_rounds do
    let timed = Option.is_some meters && Sb_obs.Metrics.enabled () in
    let t0 = if timed then Unix.gettimeofday () else 0.0 in
    s.collect ~round;
    let queue =
      Option.map (fun f -> f ~round (if round = total_rounds then [] else s.sent ())) intercept
    in
    s.route ~round queue;
    match meters with
    | Some m when timed -> Sb_obs.Metrics.observe m.round_us ((Unix.gettimeofday () -. t0) *. 1e6)
    | _ -> ()
  done;
  let r = s.finish () in
  (match meters with
  | Some m when Sb_obs.Metrics.enabled () ->
      (* Fold this run's wall time into the cumulative total and refresh
         the throughput gauges (wall-clock derived, so not part of the
         deterministic counter surface). *)
      let wall = Unix.gettimeofday () -. run_t0 in
      Mutex.lock wall_lock;
      let total = Sb_obs.Metrics.gauge_value m.wall +. wall in
      Sb_obs.Metrics.set m.wall total;
      if total > 0.0 then begin
        let c m = float_of_int (Sb_obs.Metrics.counter_value m) in
        Sb_obs.Metrics.set m.sessions_ps (c m.runs /. total);
        Sb_obs.Metrics.set m.msgs_ps ((c m.bcast +. c m.p2p) /. total);
        Sb_obs.Metrics.set m.bytes_ps ((c m.bytes_bcast +. c m.bytes_p2p) /. total)
      end;
      Mutex.unlock wall_lock
  | _ -> ());
  r

let start ctx ~rng ~protocol ~adversary ~inputs =
  begin_run ~meters:None ~record_trace:false ~record_comm:false ~reuse_envelopes:false ctx ~rng
    ~protocol ~adversary ~inputs ~aux:Msg.Unit

let run ctx ~rng ~protocol ~adversary ~inputs ?(aux = Msg.Unit) ?(record_trace = true) ?faults () =
  let meters = meters () in
  let s =
    begin_run ~meters ~record_trace ~record_comm:false ~reuse_envelopes:false ctx ~rng ~protocol
      ~adversary ~inputs ~aux
  in
  drive ctx protocol s ~meters
    ~intercept:(Option.map (fun make -> make ~rng:(Sb_util.Rng.split rng)) faults)

let honest_run ?(record_trace = true) ?(record_comm = false) ?(reuse_envelopes = false) ctx
    ~rng ~protocol ~inputs =
  (* Recycled records change under the trace, which keeps them. *)
  if reuse_envelopes && record_trace then
    invalid_arg "Network.honest_run: reuse_envelopes requires record_trace:false";
  let meters = meters () in
  drive ctx protocol ~meters
    (begin_run ~meters ~record_trace ~record_comm ~reuse_envelopes ctx ~rng ~protocol
       ~adversary:(Adversary.passive protocol) ~inputs ~aux:Msg.Unit)
    ~intercept:None
