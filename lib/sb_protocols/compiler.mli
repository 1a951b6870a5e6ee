(** The CGMA compiler view (§4.1): running protocols written for a
    simultaneous-broadcast network on a network that only has regular
    broadcast.

    Chor, Goldwasser, Micali and Awerbuch present their result as a
    *compiler*: any protocol whose communication consists of epochs of
    simultaneous broadcast can be executed on a regular broadcast
    network by replacing each epoch with a simultaneous-broadcast
    subprotocol. This module is that compiler, executable:

    - a {!program} describes one party of an SB-hybrid protocol — in
      each epoch it contributes a bit and then observes the full
      announced vector;
    - [compile program ~using] lowers it onto the simulated network,
      instantiating each epoch with the given parallel-broadcast
      protocol in its own round window (with envelope namespacing, so
      any base protocol works unmodified);
    - [compile program ~using:Ideal_sb.protocol] is the HYBRID (ideal)
      execution itself — the reference the compiler theorem compares
      against. The test suite checks compiled-with-Gennaro ≡
      compiled-with-Ideal on the adversary battery.

    Programs are pure state machines, so the same program text runs in
    both worlds unchanged — which is the point of the compiler
    theorem. *)

type 'state program = {
  epochs : int;  (** number of simultaneous-broadcast epochs *)
  init : n:int -> id:int -> input:Sb_sim.Msg.t -> 'state;
  contribute : 'state -> epoch:int -> bool;
      (** the bit this party hands to epoch [epoch]'s broadcast *)
  observe : 'state -> epoch:int -> Sb_util.Bitvec.t -> 'state;
      (** the epoch's announced vector, as seen by this party *)
  finish : 'state -> Sb_sim.Msg.t;
}

val compile : 'state program -> using:Sb_sim.Protocol.t -> Sb_sim.Protocol.t
(** The base protocol must not use a trusted functionality unless it is
    [Ideal_sb.protocol] (whose functionality the compiler knows how to
    re-instantiate per epoch). *)

val xor_coin_program : rounds:int -> Sb_util.Bitvec.t program
(** Demo program: [rounds] epochs of collective coin flipping; each
    epoch every party contributes a pseudorandom bit derived from its
    input and the previous coins, and the epoch coin is the XOR of the
    announced vector. Outputs the [Msg.List] of coins. Deterministic
    given inputs and announced history, so compiled and hybrid
    executions are comparable bit-for-bit. *)
