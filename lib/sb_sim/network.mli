(** The partially synchronous network of §3.1, executable.

    Delivery is route-indexed ({!Router}): an inbox is the shared
    broadcast lane, a party's mailbox, or the two merged by stamp,
    byte-identical to re-filtering the flat queue per party. With
    metrics on, [sim.bytes.broadcast] and [sim.bytes.p2p] accumulate
    {!Envelope.wire_size} over party-sourced traffic.

    Each round proceeds in a fixed order that encodes the model
    (deliver -> collect -> rush -> intercept -> route):

    + honest parties step on the envelopes delivered this round and
      append their outgoing envelopes to the run's {!Outbox} ({!Party}
      states the step contract);
    + the adversary observes (a) everything just delivered to corrupted
      parties and (b) the honest parties' traffic of this very round —
      rushing — except functionality-bound envelopes (the ideal
      channel); both lists are built only if forced ({!Adversary.view});
    + the adversary emits the corrupted parties' envelopes; anything
      with a non-corrupted source is dropped (authenticated channels);
    + the functionality consumes all Func-addressed envelopes of the
      round and produces replies;
    + everything is queued for delivery at the start of the next round.

    A final delivery-only round follows the protocol's rounds (its
    sends are discarded); then outputs are collected. *)

type comm = {
  broadcasts : int;  (** broadcast-channel uses (counted once each) *)
  broadcast_bytes : int;
  p2p_bytes : int;
  deliveries : int;
      (** inbox arrivals including broadcast fan-out — the per-round
          {!Router.total} summed over the run *)
}
(** Per-run wire totals under {!honest_run}'s [?record_comm], tallied
    as traffic is routed — independent of the metrics registry and of
    the trace. Message counts stay in [result.p2p_messages]. *)

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
(** A delivery-queue filter: receives the envelopes sent in [round]
    (honest, adversarial and functionality-bound) and returns what
    reaches delivery. It may drop envelopes, or hold them back and
    re-inject them later, but never forge sources. [Sb_fault] compiles
    fault plans into one. *)

val run :
  Ctx.t ->
  rng:Sb_util.Rng.t ->
  protocol:Protocol.t ->
  adversary:Adversary.t ->
  inputs:Msg.t array ->
  ?aux:Msg.t ->
  ?record_trace:bool ->
  ?faults:(rng:Sb_util.Rng.t -> interceptor) ->
  unit ->
  result
(** [inputs] must have length [ctx.n]. The given [rng] is split into
    independent streams for each party, the adversary, and the
    functionality, so runs are reproducible from one seed.

    [record_trace] (default [true]): when [false], [result.trace] is
    [[]], which removes the dominant allocation of a run; outputs and
    [p2p_messages] are identical either way.

    [faults], when given, is called once per run with a dedicated RNG
    stream (split after the party/adversary/functionality streams, so
    an inert interceptor leaves the run byte-identical), and the
    {!interceptor} filters every round's sends before delivery. The
    adversary's rushing view and the trace record traffic as sent. *)

val honest_run :
  ?record_trace:bool ->
  ?record_comm:bool ->
  ?reuse_envelopes:bool ->
  Ctx.t ->
  rng:Sb_util.Rng.t ->
  protocol:Protocol.t ->
  inputs:Msg.t array ->
  result
(** [run] with the passive adversary and no faults; the flags precede
    [ctx] so plain [honest_run ctx ...] callers erase them.

    [record_comm] (default [false]): tally {!comm} totals into
    [result.comm]; touches no RNG stream, so outputs are unchanged.

    [reuse_envelopes] (default [false]): when [ctx] carries an arena
    pool ({!Ctx.make} [?pool]), flip it once per round so envelope
    records allocated two rounds ago are recycled, and keep the
    router buffers and outbox in it ({!Envelope.Arena.stash}). Requires
    [record_trace:false] (Invalid_argument otherwise), and parties
    must not keep delivered envelope records across rounds. Outputs
    are byte-identical with or without reuse. *)

(** {1 Stepping a run round by round} *)

type started = {
  collect : round:int -> unit;
      (** The round's first half: deliver, step the honest parties,
          let the adversary rush. *)
  sent : unit -> Envelope.t list;
      (** The collected queue as sent, honest then adversarial: what
          {!run} hands its interceptor. *)
  route : round:int -> Envelope.t list option -> unit;
      (** The round's second half: tally the sends, then route [Some]
          queue (or, with [None], the sends in place) and the
          functionality's replies into the next round's mailboxes. *)
  finish : unit -> result;
      (** Close the run and read its outputs, final once the last
          round is routed; a caller may close earlier. *)
}
(** A run whose caller decides each round's queue: [collect], then
    [route], for rounds [0 .. protocol.rounds ctx], the last of which
    delivers only. Closing returns the run's
    delivery storage to the domain; stepping a closed run raises
    [Invalid_argument]. {!run} is this loop with its interceptor
    between the halves. *)

val start :
  Ctx.t ->
  rng:Sb_util.Rng.t ->
  protocol:Protocol.t ->
  adversary:Adversary.t ->
  inputs:Msg.t array ->
  started
(** {!run}'s setup — the same RNG splits, corruption and parties — with
    no round stepped and no trace. It borrows the domain's spare
    delivery storage until closed, and feeds no [sim.*] metric: its
    caller's work between the halves is its own to count. *)

val log_src : Logs.src
(** Per-round debug events ("sb.network"); enable with
    [Logs.Src.set_level log_src (Some Logs.Debug)] or the CLI's
    [--verbose]. *)
