(** The per-claim experiment catalogue (DESIGN.md §3).

    Each entry reproduces one table/claim of the paper, returning both
    a rendered {!Sb_util.Tabular.t} and a machine-checkable summary so
    the test suite can assert the paper-predicted verdict pattern at
    reduced sample sizes while the benchmark harness prints the full
    tables. Programs and tests run an experiment by id through
    {!find}.

    | Id  | Paper locus      | Content                                        |
    |-----|------------------|------------------------------------------------|
    | E1  | Claim 5.6        | distribution-class hierarchy                    |
    | E2  | Lemma 5.2        | CR unachievable outside Ψ_C                     |
    | E3  | Lemma 5.4        | G unachievable outside Ψ_L                      |
    | E4  | Claims 5.1/5.3   | feasibility on achievable distributions         |
    | E5  | Lemma 6.4        | Π_G separates G from CR                         |
    | E6  | Prop. 6.3        | Singleton trivial for CR, not for Sb            |
    | E7  | Lemmas 6.1/6.2   | implications Sb ⇒ CR ⇒ G on achievable classes  |
    | E8  | §1 motivation    | round/message complexity vs n                   |
    | E10 | Props. B.3/B.4   | G** agrees with G                               |
    | E11 | §3.2             | the echo attack, quantified                     |
    | E12 | — (ablation)     | recoverable reveals vs bare commit-open         |
    | E13 | Cor. 5.5         | Sb simulation of the VSS protocols              |
    | E14 | Figure 1         | the figure, re-derived from E1/E5/E6/E7         |
    | E15 | §3.1 model       | resilience under injected faults ({!Resilience}) |
    | E16 | §1 motivation    | wire complexity of the broadcast substrates     |
    | E17 | —                | single-session scaling of the substrates        |

    E1 classifies the battery at [setup.n]. E8 and E16 ignore the
    setup: they sweep n ∈ 4, 8, 16, 32, 64 at t = 1.

    E14 re-runs E1/E5/E6/E7 at the given setup and renders the
    verified diagram; the closing artifact of the bench run.

    E15 sweeps crash count x omission rate over the five broadcast
    substrates and the three VSS protocols with {!Resilience.measure},
    then pins the model's known boundaries: exact agreement/validity
    on every crash-only cell, Dolev-Strong under n-1 crashes, and the
    Bracha/EIG n/3 flip witnesses.

    E16 runs the five broadcast substrates honestly and reports
    rounds, p2p message count, broadcast count, wire bytes and wall
    clock, all read from the run's comm tally
    ({!Sb_sim.Network.honest_run} [~record_comm:true]: a broadcast is
    counted once, functionality traffic is excluded); it pins rounds
    constant in n and message/byte growth to the Theta(n^3) band (n
    sessions of an all-to-all scheme).

    (E9, wall-clock timing, is bench/e9.ml's Bechamel section of
    [simbcast bench]; E18 is [Sb_workload.E18.entry].) *)

type outcome = {
  id : string;
  title : string;
  table : Sb_util.Tabular.t;
  ok : bool;  (** all rows matched the paper's prediction *)
  rows_checked : int;
  notes : string list;
}

val e17_scaling : ?n_max:int -> Setup.t -> outcome
(** The large-n engine end to end: one single-sender session per
    substrate ({!Sb_broadcast.Parallel.single}, Θ(n²) messages) at
    n ∈ 128 … 2048 (128, 256 under the quick sample budget), run with
    trace recording off, arena-backed envelope reuse on, and per-run
    comm tallies; pins rounds constant in n, message/byte growth to
    the quadratic band, and every party deciding the sender's value.
    EIG is excluded (cubic bytes per session) — recorded as a note.
    [n_max] drops the sizes above it; the CLI's [--n-max] flag feeds
    it. The catalogue's E17 entry runs it without [n_max]. *)

type entry = {
  id : string;  (** canonical id, e.g. "E5" *)
  title : string;
  run : Setup.t -> outcome;
}
(** One catalogue entry. [run] wraps the raw driver and rolls
    rows-checked / verdict counters into {!Sb_obs.Metrics}; with
    metrics disabled it is the bare driver. *)

val entry : string -> string -> (Setup.t -> outcome) -> entry
(** Build a catalogue entry (instrumented as described above) — for
    the entries of layers above core (the workload suite's E18, which
    needs [sb_session]) and for front ends that re-parameterise a
    driver, e.g. [simbcast experiment e17 --n-max]. *)

val registry : entry list
(** Every experiment core defines, in canonical order (E9 is the
    Bechamel timing section of bench/e9.ml, not a table). The front
    ends' catalogue is this list plus [Sb_workload.E18.entry],
    defined once in [bin/simbcast.ml]. *)

val find_in : entry list -> string -> entry option
(** Case-insensitive lookup by id in a catalogue. *)

val find : string -> entry option
(** [find_in registry]. *)
