(** Execution transcript: everything that crossed the network.

    One record per round, split by origin. Experiments use traces for
    message-complexity counts (E8) and tests use them to assert rushing
    and visibility rules. *)

type round_record = {
  round : int;
  honest_sent : Envelope.t list;
  adv_sent : Envelope.t list;  (** after filtering to corrupted sources *)
  func_sent : Envelope.t list;
}

type t = round_record list
(** In round order. *)

val p2p_message_count : t -> int
(** Party-to-party envelopes (functionality and broadcast traffic
    excluded). *)

val broadcast_count : t -> int
(** Envelopes sent on the broadcast channel. *)

val wire_bytes : t -> int * int
(** [(broadcast, p2p)] wire bytes of party-sourced traffic
    ({!Envelope.wire_size} summed; functionality channel excluded,
    broadcasts counted once) — the deterministic trace-side view of the
    network's [sim.bytes.*] counters, used by experiment E16. *)

val messages_from : t -> int -> int

val per_round_counts : t -> (int * int * int) list
(** Per round, [(honest, adversary, functionality)] envelope counts —
    the raw series behind the observability layer's per-round
    counters. *)

val pp : Format.formatter -> t -> unit
