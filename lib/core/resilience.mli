(** Resilience curves: agreement/validity of the broadcast substrates
    and the VSS-based protocols under injected benign faults.

    This is the measurement core of experiment E15 and the
    [fault-sweep] CLI command. A {e cell} is one protocol run
    [setup.samples] times against one {!Sb_fault.Plan.t}; the cell
    reports Wilson intervals for

    - {b agreement}: all surviving honest parties (honest and not
      crashed by the plan) announced the same vector, and
    - {b validity}: the surviving parties' own coordinates of that
      vector match their inputs.

    Crashed parties still "output" whatever their stale local state
    holds, so both predicates quantify over survivors only — exactly
    the parties the crash-stop model still obligates.

    Cells are sampled with {!Announced.psample} (each execution gets
    its own fault interceptor), so they are byte-identical across
    [--jobs] settings for a fixed seed. *)

type cell = {
  protocol : string;
  plan : Sb_fault.Plan.t;
  samples : int;
  agree : Sb_stats.Estimate.interval;
  valid : Sb_stats.Estimate.interval;
}

val substrates : unit -> (string * Sb_sim.Protocol.t) list
(** The five Byzantine broadcast substrates, composed into parallel
    broadcast with {!Sb_broadcast.Parallel.concurrent} — one session
    per sender, all sharing the faulty network. *)

type exact_cell = {
  cell_protocol : string;  (** bare substrate name, e.g. ["bracha"] *)
  cell_n : int;
  cell_t : int;
  exp_agreement : bool option;
  exp_validity : bool option;
  exp_unforgeability : bool option;
}
(** Ground-truth verdict for one (protocol, n, t) point under the
    benign-fault model: [Some true] = the property holds over every
    reachable execution, [Some false] = a violation exists, [None] =
    outside the model checker's default state budget. *)

val exact_cells : exact_cell list
(** Hand-derived exact verdicts at small (n, t), used to
    cross-validate the [sb_check] model checker and E15's sampled
    resilience cells. *)

val vss_protocols : unit -> (string * Sb_sim.Protocol.t) list
(** The three VSS-based simultaneous-broadcast protocols (CGMA,
    Chor–Rabin, Gennaro). *)

val crash_plan : n:int -> count:int -> Sb_fault.Plan.t
(** Staggered crash-stop pattern: party [n-1] crashes at round 1,
    party [n-2] at round 2, … [count] parties in all — each gets its
    initial send out, then the network loses them one round apart.
    [count = 0] is the empty plan. *)

val drop_plan : float -> Sb_fault.Plan.t
(** Uniform per-link Bernoulli omission at the given rate ([[]] when
    the rate is 0). *)

val measure :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  dist:Sb_dist.Dist.t ->
  plan:Sb_fault.Plan.t ->
  Sb_util.Rng.t ->
  cell
(** Run one cell. @raise Invalid_argument if the plan does not
    validate against [setup.n]. *)

val bracha_flip : Sb_sim.Adversary.t
(** Boundary witness for Bracha at n = 4, t = 1 (corruptions + crashes
    crossing n/3). Corrupt sender 0 sends just enough of the protocol
    — init and echo to parties 1 and 2, ready to party 1 alone — that
    every honest party still accepts when all three are alive, yet
    party 1 accepts and party 2 defaults once party 3 is crashed from
    round 0. Pair with {!Sb_fault.Plan.crash}[ ~party:3 ~round:0]. *)

val eig_flip : Sb_sim.Adversary.t
(** Boundary witness for EIG at n = 4, t = 1 with all-true inputs
    ({!Sb_dist.Dist.product}[ 1.0]): corrupt party 3 equivocates its
    level-2 relay in sender 0's session (false to party 0, true to
    party 1). With everyone alive the honest relays outvote it; with
    party 2 crashed from round 1 the survivors' majorities split.
    Pair with {!Sb_fault.Plan.crash}[ ~party:2 ~round:1]. *)
