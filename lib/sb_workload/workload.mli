(** Benchmarked application workloads over the session engine.

    The paper's Section 1 motivates simultaneous broadcast through
    application traffic — elections, sealed-bid auctions, lotteries.
    This suite promotes the single-run `examples/` demos into
    first-class batched workloads driven by {!Sb_session.Engine}: each
    workload assembles a heavy-tailed mix of specs (a few large-party
    Dolev-Strong/Phase-King sessions among thousands of cheap 5-party
    sessions), feeds application data into the sessions (precinct
    tallies, bid coins), and reduces the per-session reports to an
    application-level summary.

    Determinism: a workload is a pure function of [(name, quick,
    seed, faults)] — ballots and inputs are drawn from one child of
    the master seed, the engine from another — so the summary, the
    JSON block and every report are byte-identical at every [--jobs]
    value.

    Workloads:
    - ["election"] — Broadbent–Tapp-style referendum (arXiv
      0806.1931): millions of simulated voters tallied per precinct;
      audited precincts certify the exact count through a large
      Dolev-Strong trustee committee, the rest certify the tally's low
      bits with 5-party Bracha committees.
    - ["auction"] — sealed-bid lots: premium lots with many
      Dolev-Strong bidders, standard lots under Gennaro VSS, micro
      lots under commit-open; highest-index declarer wins.
    - ["lottery"] — XOR-coin draws: Phase-King jackpot committees,
      Bracha regular draws, and a slice under a 5% envelope-drop fault
      plan whose inconsistent draws are voided. *)

type outcome = {
  name : string;
  quick : bool;
  scale : (string * int) list;  (** e.g. [("voters", 2000000); ...] *)
  summary : (string * Sb_obs.Json.t) list;
      (** application-level verdicts, deterministic *)
  specs : Sb_session.Engine.spec list;
  aggregate : Sb_session.Engine.aggregate;
  reports : Sb_session.Engine.session_report array;
}

val names : string list
(** The workload catalogue: ["election"; "auction"; "lottery"]. *)

val run :
  ?faults:Sb_fault.Plan.t ->
  ?quick:bool ->
  seed:int ->
  string ->
  (outcome, string) result
(** [run ~seed name] builds and executes the named workload (full
    scale by default; [~quick:true] for the CI-sized tier). [faults],
    when given, is attached to the workload's first (heavy) spec on
    top of any built-in plans. Returns [Error] for an unknown name or
    an invalid fault plan instead of raising. *)

val to_json : outcome -> Sb_obs.Json.t
(** The report's [workload] block (schema v7): name, tier,
    session/consistency totals, the scale and summary objects. No
    wall-clock-derived fields — the block is byte-identical at every
    [--jobs]. *)

val deterministic_lines : outcome -> string list
(** The jobs-invariant stdout summary (workload, scale, specs,
    sessions, summary, comm) — callers append their own wall-clock /
    scheduler lines, which CI's invariance diffs filter. *)
