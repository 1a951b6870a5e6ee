(** The partially synchronous network of §3.1, executable.

    Delivery is route-indexed ({!Router}): inboxes are mailbox slices,
    byte-identical to re-filtering the flat queue per party. With
    metrics on, [sim.bytes.broadcast] and [sim.bytes.p2p] accumulate
    {!Envelope.wire_size} over party-sourced traffic.

    Each round proceeds in a fixed order that encodes the model
    (deliver -> collect -> rush -> intercept -> route):

    + honest parties step on the envelopes delivered this round and
      append their outgoing envelopes to the run's {!Outbox} ({!Party}
      states the step contract);
    + the adversary observes (a) everything just delivered to corrupted
      parties and (b) the honest parties' outgoing traffic of this very
      round — rushing — except functionality-bound envelopes, which
      travel on the ideal channel; both lists are built only if the
      adversary forces them ({!Adversary.view});
    + the adversary emits the corrupted parties' envelopes; anything
      with a non-corrupted source is dropped (authenticated channels);
    + the functionality consumes all Func-addressed envelopes of the
      round and produces replies;
    + everything is queued for delivery at the start of the next round.

    After the protocol's declared number of rounds, one final
    delivery-only step runs (outgoing messages are discarded), then
    outputs are collected. *)

type comm = {
  broadcasts : int;  (** broadcast-channel uses (counted once each) *)
  broadcast_bytes : int;
  p2p_bytes : int;
  deliveries : int;
      (** inbox arrivals including broadcast fan-out — the per-round
          {!Router.total} summed over the run *)
}
(** Per-run communication totals, tallied incrementally under
    [?record_comm] — independent of the global metrics registry and of
    the trace, so large-n runs get exact wire accounting without
    retaining a single envelope list. [p2p] message counts stay in
    [result.p2p_messages], which is always tallied. *)

type result = {
  outputs : (int * Msg.t) list;  (** honest parties only, by id *)
  adv_output : Msg.t;
  corrupted : int list;
  rounds_used : int;
  p2p_messages : int;
  trace : Trace.t;
  comm : comm option;  (** [Some] iff the run passed [~record_comm:true] *)
}

type interceptor = round:int -> Envelope.t list -> Envelope.t list
(** A delivery-queue filter: receives the envelopes emitted in [round]
    (honest, adversarial, and — on the way in — functionality-bound
    traffic) and returns what the queue actually carries into the next
    round. An interceptor may drop envelopes, hold them back and
    re-inject them in a later call, but must never forge new sources;
    it is the mechanism [Sb_fault] compiles fault plans into. *)

val run :
  Ctx.t ->
  rng:Sb_util.Rng.t ->
  protocol:Protocol.t ->
  adversary:Adversary.t ->
  inputs:Msg.t array ->
  ?aux:Msg.t ->
  ?record_trace:bool ->
  ?record_comm:bool ->
  ?reuse_envelopes:bool ->
  ?faults:(rng:Sb_util.Rng.t -> interceptor) ->
  unit ->
  result
(** [inputs] must have length [ctx.n]. The given [rng] is split into
    independent streams for each party, the adversary, and the
    functionality, so runs are reproducible from one seed.

    [record_trace] (default [true]): when [false], the per-round
    envelope trace is not retained — [result.trace] is [[]] — which
    removes the dominant allocation of a run. [p2p_messages] is tallied
    incrementally and unaffected. Monte-Carlo samplers, which never
    read the trace, pass [false]; outputs are identical either way.

    [record_comm] (default [false]): when [true], tally per-run
    communication totals into [result.comm] — incrementally, as each
    round's traffic is routed, never by retaining envelope lists. The
    tallies read delivered traffic only and touch no RNG stream, so
    outputs are byte-identical either way.

    [reuse_envelopes] (default [false]): when [true] and [ctx] carries
    an arena pool ({!Ctx.make} [?pool]), the run flips the arena once
    per round so envelope records allocated two rounds ago are
    recycled, and keeps its mailboxes and outbox in the arena
    ({!Envelope.Arena.stash}). Requires [record_trace:false] and no [faults]
    (Invalid_argument otherwise): both retain envelopes past the
    one-round grace window. Adversaries that stash delivered envelopes
    across rounds must not be combined with this flag. Outputs are
    byte-identical with or without reuse.

    [faults], when given, is called once per run with a dedicated RNG
    stream (split from [rng] after the party/adversary/functionality
    streams, so a run with an inert interceptor is byte-identical to a
    run without one) and the resulting {!interceptor} filters every
    round's outgoing traffic before it reaches the delivery queue. The
    adversary's rushing view and the [trace] record traffic as *sent*,
    pre-fault; what the interceptor drops simply never arrives. *)

val honest_run :
  ?record_trace:bool ->
  ?record_comm:bool ->
  ?reuse_envelopes:bool ->
  Ctx.t ->
  rng:Sb_util.Rng.t ->
  protocol:Protocol.t ->
  inputs:Msg.t array ->
  result
(** [run] with the passive adversary; the optional flags are passed
    through (they precede [ctx] so plain [honest_run ctx ...] callers
    erase them). *)

val log_src : Logs.src
(** Per-round debug events ("sb.network"); enable with
    [Logs.Src.set_level log_src (Some Logs.Debug)] or the CLI's
    [--verbose]. *)
