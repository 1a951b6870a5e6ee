(** The per-claim experiment drivers (DESIGN.md §3).

    Each [eN] function reproduces one table/claim of the paper,
    returning both a rendered {!Sb_util.Tabular.t} and a machine-
    checkable summary so the test suite can assert the paper-predicted
    verdict pattern at reduced sample sizes while the benchmark
    harness prints the full tables.

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
    | E15 | §3.1 model       | resilience under injected faults ({!Resilience}) |

    (E9, wall-clock timing, is bench/e9.ml's Bechamel section of
    [simbcast bench].) *)

type outcome = {
  id : string;
  title : string;
  table : Sb_util.Tabular.t;
  ok : bool;  (** all rows matched the paper's prediction *)
  rows_checked : int;
  notes : string list;
}

val e1_distribution_classes : ?n:int -> unit -> outcome
val e2_cr_unachievable : Setup.t -> outcome
val e3_g_unachievable : Setup.t -> outcome
val e4_feasibility : Setup.t -> outcome
val e5_pi_g_separation : Setup.t -> outcome
val e6_singleton_trivial : Setup.t -> outcome
val e7_implications : Setup.t -> outcome
val e8_complexity : ?ns:int list -> ?thresh:int -> unit -> outcome
val e10_gss_agreement : Setup.t -> outcome
val e11_echo_attack : Setup.t -> outcome
val e12_reveal_ablation : Setup.t -> outcome
val e13_simulation : Setup.t -> outcome

val e15_fault_resilience : Setup.t -> outcome
(** Sweeps crash count x omission rate over the five broadcast
    substrates and the three VSS protocols with {!Resilience.measure},
    then pins the model's known boundaries: exact agreement/validity
    on every crash-only cell, Dolev-Strong under n-1 crashes, and the
    Bracha/EIG n/3 flip witnesses. *)

val e16_wire_complexity : ?ns:int list -> ?thresh:int -> unit -> outcome
(** Sweeps n over the five broadcast substrates on honest runs and
    reports rounds, p2p message count, broadcast count, wire bytes
    and wall clock, all read from the run's comm tally
    ({!Sb_sim.Network.honest_run} [~record_comm:true]: a broadcast is
    counted once, functionality traffic is excluded); pins rounds constant
    in n and message/byte growth to the Theta(n^3) band (n sessions of
    an all-to-all scheme). *)

val e17_scaling : ?n_max:int -> Setup.t -> outcome
(** The large-n engine end to end: one single-sender session per
    substrate ({!Sb_broadcast.Parallel.single}, Θ(n²) messages) at
    n ∈ 128 … 2048 (128, 256 under the quick sample budget), run with
    trace recording off, arena-backed envelope reuse on, and per-run
    comm tallies; pins rounds constant in n, message/byte growth to
    the quadratic band, and every party deciding the sender's value.
    EIG is excluded (cubic bytes per session) — recorded as a note.
    [n_max] drops the sizes above it; the CLI's [--n-max] flag feeds
    it. *)

val e14_figure1 : Setup.t -> outcome
(** Re-derives every arrow of the paper's Figure 1 from E1/E5/E6/E7 and
    renders the verified diagram; the closing artifact of the bench
    run. Note: re-runs those experiments at the given setup. *)

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
