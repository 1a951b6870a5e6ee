(** Versioned machine-readable run reports.

    A report bundles per-experiment outcomes with the current metrics
    snapshot into one JSON document. The schema is versioned so
    downstream tooling (perf-trajectory diffing, CI smoke checks) can
    evolve safely; bump {!schema_version} on any incompatible change
    and document it in EXPERIMENTS.md. *)

val schema_version : int

type experiment_entry = {
  id : string;
  title : string;
  ok : bool;
  rows_checked : int;
  wall_clock_s : float;
  notes : string list;
}

type timing_entry = { bench_name : string; ns_per_run : float; r_square : float }

val make :
  ?tool:string ->
  ?tag:string ->
  ?jobs:int ->
  ?experiments:experiment_entry list ->
  ?timings:timing_entry list ->
  ?trace:Json.t ->
  ?sessions:Json.t ->
  ?check:Json.t ->
  ?workload:Json.t ->
  unit ->
  Json.t
(** Assembles the report from the given outcomes plus
    [Metrics.to_json ()] as it stands. [jobs], when given, is recorded
    under a ["parallel"] object — the domain count the run used;
    per-domain sample shares appear alongside as
    [par.domain<k>.samples] counters in the metrics snapshot.

    Since schema v2 every report also carries a ["comm"] object —
    [broadcasts], [p2p_messages], [broadcast_bytes], [p2p_bytes] —
    snapshotting the network's [sim.broadcasts], [sim.p2p] and
    [sim.bytes.*] counters, so byte trajectories can be diffed across
    runs without digging into the metrics blob.

    Since schema v3 a traced run ([--trace]) additionally carries an
    optional ["trace"] object — normally {!Perfetto.summary} — with
    integer [sessions_traced], [sessions_total], [spans], [flows].

    Since schema v4 a session-engine run ([simbcast sessions], the
    bench sessions probe) additionally carries an optional
    ["sessions"] object — batch totals plus throughput rates,
    normally [Sb_session.Engine.aggregate_to_json].

    Since schema v5 a model-checker run ([simbcast check --report])
    additionally carries an optional ["check"] object — protocol,
    (n, t), state counts, the capped flag, one verdict string per
    property and the counterexamples array — normally
    [Sb_check.Checker.result_to_json].

    Schema v6 tightens the optional ["timings"] block (bench runs):
    every entry must be a [{name, ns_per_run, r_square}] object —
    [validate] now rejects malformed entries, since the perf-diff
    guards (gtester-smoke, crypto/..., delivery/..., sessions/...)
    key on entry names and a malformed entry would silently drop out
    of the diff.

    Since schema v7 a workload run ([simbcast workload]) additionally
    carries an optional ["workload"] object — workload name, tier
    ("quick"/"full"), integer session totals and the application-level
    scale/summary objects, normally [Sb_workload.Workload.to_json].
    The block carries no wall-clock-derived fields, so CI can diff it
    byte-for-byte across [--jobs] values.

    Schema v8 drops the top-level ["spans"] array: per-experiment wall
    time is each entry's [wall_clock_s], and per-phase timing is the
    [--trace] Perfetto export. *)

val write_file : string -> Json.t -> unit
(** Pretty-printed, trailing newline. *)

val validate : Json.t -> (unit, string) result
(** Structural check: schema_version matches, the experiments array is
    well-formed (id/ok/wall_clock_s present), the [comm] object carries
    all four integer totals, metrics object present, the optional
    [trace] block (v3) carries its four integer counts when present,
    the optional [sessions] block (v4) carries its integer totals
    and numeric rates when present, the optional [check] block
    (v5) carries its integer state counts and three well-formed
    verdict strings when present, the optional [timings] block
    (v6) is a list of well-formed [{name, ns_per_run}] entries when
    present, and the optional [workload] block (v7) carries its name,
    tier, integer session totals and summary object when present.
    Used by tests and the CI smoke step. *)

type perf_delta = {
  name : string;  (** timing entry name, e.g. ["gtester-smoke/20k"] *)
  base_ns : float;
  fresh_ns : float;
  ratio : float;  (** [fresh_ns /. base_ns]; > 1 is a slowdown *)
}

val perf_diff :
  ?prefixes:string list -> base:Json.t -> fresh:Json.t -> unit -> perf_delta list * string list
(** Compare the [timings] arrays of two reports entry-by-entry.
    [prefixes], when non-empty, restricts the comparison to baseline
    entries whose name starts with one of the prefixes. Returns the
    matched deltas (in baseline order) and the names of baseline
    entries missing from the fresh report. Thresholding is the
    caller's policy — see [simbcast perf-diff]. *)

val history_row : ?utc:string -> Json.t -> Json.t
(** Compact one-line summary of a report — tag, schema version, and a
    [{name: ns_per_run}] object — for appending to the append-only
    [BENCH_history.jsonl] perf-trajectory log. *)
