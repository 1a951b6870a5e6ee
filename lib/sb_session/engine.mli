(** Work-stealing multi-session throughput engine.

    Everything else in the repository executes one protocol session
    per [Network.run] and parallelises only per-sample inside a
    tester. This engine schedules *whole sessions* — thousands of
    independent protocol executions, possibly of different protocols,
    party counts, input distributions and fault plans — across a fixed
    {!Sb_par.Pool} of domains.

    The batch is cut into contiguous shards ({!Shard.layout}); each
    shard builds its execution context (signature registry, commitment
    scheme, CRS) once and reuses it for every session it owns. There
    are many more shards than workers, and each worker loops claiming
    shard indices from a shared atomic counter, so a heavy-tailed mix
    (a few large-n Dolev-Strong sessions among thousands of cheap
    Bracha votes) does not leave workers idle behind a straggler
    shard. (The historical coarse
    ≤{!Shard.width}-shard layout survives only as an input to E18's
    makespan model.)

    Determinism: each session draws its input and its execution
    randomness from pre-split per-session RNG streams
    ({!Sb_util.Rng.split_n} via {!Sb_par.Partition.streams}), the
    shard layout is a pure function of the spec counts, and results
    are merged by shard index — so the per-session reports and every
    deterministic {!aggregate} field are byte-identical at every pool
    size, including 1.

    Observability is wired through [sb_obs]: the deterministic
    counters [session.sessions], [session.consistent] and the
    per-shard [session.shard<k>.sessions]; the scheduler-race surface
    under [sched.*] ([sched.claims], [sched.steals], per-worker
    [sched.worker<w>.shards] / [.sessions] counters and
    [.busy_s] gauges) which is deliberately OUTSIDE the jobs-invariant
    prefix set CI compares; and the wall-clock-derived gauges
    [session.sessions_per_sec], [session.msgs_per_sec],
    [session.bytes_per_sec], [session.batch_wall_s]. Message/byte
    totals are read as deltas of the network's [sim.*] counters and
    therefore require metrics to be enabled; with metrics off they
    report 0. *)

type spec = {
  protocol : Sb_sim.Protocol.t;
  count : int;  (** sessions of this spec; must be positive *)
  parties : int option;
      (** per-spec party count override (>= 2); [None] uses the batch
          setup's [n]. An override re-derives the threshold as
          [(n - 1) / 2]. *)
  dist : Sb_dist.Dist.t option;
      (** per-spec input distribution; [None] uses the batch dist.
          Must be over exactly the spec's party count. *)
  faults : Sb_fault.Plan.t option;
      (** per-spec fault plan, compiled once and injected into every
          session of the spec ([Network.run ~faults] splits a
          dedicated per-run fault stream internally, so faultless
          specs are byte-identical to a run without the feature). *)
  inputs : (int -> Sb_util.Bitvec.t) option;
      (** explicit inputs: [f j] is the input vector of the spec's
          [j]-th session (0-based within the spec), instead of drawing
          from the dist (which is then ignored and not validated).
          Must return vectors of the spec's party count. Used by the
          workload suite to feed application data (precinct tallies,
          bids) into sessions. *)
}

val spec :
  ?parties:int ->
  ?dist:Sb_dist.Dist.t ->
  ?faults:Sb_fault.Plan.t ->
  ?inputs:(int -> Sb_util.Bitvec.t) ->
  Sb_sim.Protocol.t ->
  int ->
  spec
(** [spec protocol count] with all overrides defaulted to [None]. *)

type session_report = {
  index : int;  (** global session index, [0 .. total-1] *)
  shard : int;  (** shard that owned this session (jobs-invariant) *)
  protocol : string;
  n : int;  (** party count of this session *)
  x : Sb_util.Bitvec.t;  (** input vector (drawn or explicit) *)
  w : Sb_util.Bitvec.t;  (** announced vector (any honest party) *)
  consistent : bool;  (** all honest output vectors equal *)
  rounds : int;
  p2p : int;  (** point-to-point envelopes sent in this session *)
}

type worker_stat = {
  worker : int;  (** worker slot, [0 .. pool size - 1] *)
  shards_run : int;  (** shards this worker claimed *)
  stolen : int;  (** claims outside the worker's contiguous home range *)
  sessions_run : int;
  busy_s : float;  (** wall-clock inside the claiming loop *)
}

type aggregate = {
  sessions : int;
  consistent : int;
  shards : int;
  per_shard : int array;  (** sessions per shard, deterministic *)
  broadcasts : int;  (** [sim.*] counter deltas; 0 when metrics are off *)
  p2p : int;
  broadcast_bytes : int;
  p2p_bytes : int;
  wall_s : float;  (** wall-clock of the pooled section; not deterministic *)
  sessions_per_sec : float;
  msgs_per_sec : float;
  bytes_per_sec : float;
  workers : int;  (** pool size *)
  steals : int;  (** total stolen claims; 0 with 1 worker.
                     Scheduling-race-dependent, like every field below —
                     none of them enter {!aggregate_to_json}. *)
  shard_wall_s : float array;  (** per-shard wall clock, by shard index *)
  session_wall_s : float array;  (** per-session wall clock, by index *)
  worker_stats : worker_stat array;  (** one per worker slot *)
}

val bounds : spec list -> int array
(** Cumulative spec bounds: [bounds.(k)] is the global index of spec
    [k]'s first session; the last element is the batch total. *)

val spec_at : int array -> int -> int
(** [spec_at bounds i] maps a global session index to its spec index
    by binary search over {!bounds}. Raises [Invalid_argument] out of
    range. *)

val run :
  ?pool:Sb_par.Pool.t ->
  ?adversary:Sb_sim.Adversary.t ->
  setup:Core.Setup.t ->
  dist:Sb_dist.Dist.t ->
  spec list ->
  Sb_util.Rng.t ->
  aggregate * session_report array
(** [run ~setup ~dist specs rng] executes every session of [specs]
    (in spec order: sessions [0 .. c0-1] run the first spec, and so
    on), claimed shard by shard by the workers of [pool] (default
    {!Sb_par.Pool.default}). Sessions run against
    [adversary] (default {!Core.Adversaries.passive}) on inputs drawn
    per-session from the spec's dist (default the batch [dist]) or
    produced by the spec's explicit [inputs]. The report array is
    indexed by global session index.

    Determinism: session [i]'s input and execution generators are
    streams [2i] and [2i+1] of the master, the shard layout is a pure
    function of the spec counts, and results merge by
    shard index — so the reports and every deterministic [aggregate]
    field are independent of the pool size and of the claiming race.

    Raises [Invalid_argument] up front on an empty spec list, a
    non-positive count, a party override < 2, an input dist whose
    dimension disagrees with the spec's party count, or an invalid
    fault plan; and from a worker if explicit [inputs] return a
    wrongly-sized vector. *)

val session_report_to_json : session_report -> Sb_obs.Json.t
(** One flat object per session — the JSONL row format of
    [simbcast sessions --session-log] and
    [simbcast workload --session-log]: [session], [shard],
    [protocol], [n], [x], [w] (bit strings), [consistent], [rounds],
    [p2p]. Byte-identical across pool sizes. *)

val aggregate_to_json : aggregate -> Sb_obs.Json.t
(** The report's [sessions] block (schema v4): session/shard totals,
    the comm deltas, and the throughput rates. Scheduler-race fields
    ([steals], worker stats, per-shard walls) are deliberately
    excluded so the block stays byte-comparable across [--jobs]
    values (modulo the wall/rate fields CI already strips). *)
