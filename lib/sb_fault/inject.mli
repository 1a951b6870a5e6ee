(** Apply a {!Plan.t} to a run's delivery queue, round by round:
    {!filter} is the one mechanism, {!compile} wraps it for
    [Sb_sim.Network.run ~faults] and the model checker forks its
    state. Per round, in order:

    + crash-stop — envelopes whose source party has crashed at or
      before this round are suppressed, whatever their destination;
    + partitions — cross-group point-to-point envelopes within an
      active window are dropped;
    + drop/delay rules, in plan order; the first rule that drops or
      delays an envelope ends its processing. One Bernoulli coin is
      drawn per matching drop rule, in plan order, so the coin stream
      is reproducible;
    + release — envelopes delayed from earlier rounds re-enter the
      queue, ahead of the round's survivors, in their original
      relative order once due.

    {!compile}'s interceptors tally injected faults (when
    {!Sb_obs.Metrics} is enabled; {!filter} itself touches no metric)
    under [fault.crashes] (one per crashed party, at the round the
    crash takes effect), [fault.drops] (envelopes lost to omission or
    partition) and [fault.delayed] (envelopes held back). *)

type 'a state
(** Crash rounds plus held envelopes ordered by due round; a value,
    which {!filter} leaves intact, so one state can be forked. *)

val init : n:int -> 'a state
val crashed : 'a state -> int -> bool

val held : 'a state -> (int * 'a list) list
(** By ascending due round, each group in arrival (= release) order. *)

val filter :
  Plan.t ->
  rng:Sb_util.Rng.t ->
  'a state ->
  round:int ->
  env:('a -> Sb_sim.Envelope.t) ->
  'a list ->
  'a state * 'a list
(** [filter plan ~rng st ~round ~env queue] applies [plan] to the queue
    sent in [round], [env] reading each element's envelope: the plan's
    crash specs join the state, and the result is the next state and
    the delivered queue (released elements, then survivors). Call it
    for consecutive rounds: envelopes due in a skipped round are lost.
    The plan is not validated. *)

val compile :
  n:int -> Plan.t -> rng:Sb_util.Rng.t -> Sb_sim.Network.interceptor
(** Partially apply as [compile ~n plan] to obtain the maker for
    [Network.run ~faults]: each run calls it with a dedicated RNG
    stream and gets an interceptor over a private {!state}. Makers are
    therefore safe to share across a sampling pool's domains, and a
    run's fault coins are a pure function of its own seed stream,
    keeping results byte-identical across [--jobs] values. @raise
    Invalid_argument if [Plan.validate ~n plan] fails. *)
