(** Execution transcript: everything that crossed the network.

    One record per round, split by origin. Tests use traces to assert
    rushing and visibility rules and to check the network's counters
    and comm tallies against what was sent; experiments read traffic
    totals from {!Network.comm} instead. *)

type round_record = {
  round : int;
  honest_sent : Envelope.t list;
  adv_sent : Envelope.t list;  (** after filtering to corrupted sources *)
  func_sent : Envelope.t list;
}

type t = round_record list
(** In round order. *)

val pp : Format.formatter -> t -> unit
(** Test oracle for instrumentation neutrality: test_obs and test_trace
    print a run's trace with and without metrics or tracing on. *)
