(** E18: the work-stealing scheduler on a heavy-tailed session mix.

    Runs a two-protocol batch (a few 16/20-party Dolev-Strong sessions
    among hundreds/thousands of 5-party Bracha votes), measures every
    session's wall clock on one worker, and greedy-list-schedules the
    per-shard costs of the historical coarse layout ({!static_layout},
    modeled only — no engine runs it any more) and of the engine's
    {!Sb_session.Shard.layout} onto 4 modeled workers. Gates: all
    sessions consistent, session reports identical at 1 and 4
    domains, the steal layout strictly finer, and the modeled 4-worker
    makespan at least 1.5× faster than static. The real pooled
    4-domain wall, steal counts and worker utilization are reported as
    notes and via the [sched.*] metrics, but not gated — on an
    oversubscribed CI host they measure the OS scheduler, not ours.

    Lives here rather than in core because it needs [sb_session];
    front ends call {!register} at startup to add it to
    {!Core.Experiments.catalogue}. *)

val static_layout : int array -> (int * int) array
(** [static_layout counts] is the historical coarse shard layout as
    [(lo, len)] global session ranges in shard order: a total budget
    of {!Sb_session.Shard.width} shards spread across the specs
    proportionally to their counts (at least one each), each spec's
    range cut into contiguous chunks whose sizes differ by at most
    one. A pure function of the counts (which must be positive). *)

val run : Core.Setup.t -> Core.Experiments.outcome
(** Quick tier when [setup.samples <= 2000], like E17. *)

val entry : Core.Experiments.entry

val register : unit -> unit
(** Idempotently add {!entry} to the experiments catalogue. *)
