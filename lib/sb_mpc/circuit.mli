(** Arithmetic circuits over {!Sb_crypto.Field}, the language of the
    BGW engine.

    A circuit is built imperatively: declare each party's inputs (in a
    fixed order), combine wires with gates, mark outputs. Addition,
    subtraction and scaling are free (local on shares); every
    multiplication costs one BGW communication round unless it shares
    a layer with independent multiplications — [layers] computes that
    schedule.

    [eval_plain] evaluates the circuit in the clear and is the
    correctness reference the protocol (and the tests) compare
    against. *)

type wire = private int
(** Wires are gate indices; [wire_index] gives the raw index. *)

type t

val create : n_parties:int -> t

val input : t -> party:int -> wire
(** Declare the next input wire of [party]; inputs are consumed in
    declaration order when the protocol runs. *)

val const : t -> Sb_crypto.Field.t -> wire
val add : t -> wire -> wire -> wire
val sub : t -> wire -> wire -> wire
val scale : t -> Sb_crypto.Field.t -> wire -> wire
val mul : t -> wire -> wire -> wire
val output : t -> wire -> unit

(* Convenience bit algebra (operands assumed 0/1-valued). *)

val bit_xor : t -> wire -> wire -> wire
(** x + y − 2xy: one multiplication. *)

val bit_not : t -> wire -> wire

val xor_fold : t -> wire list -> wire
(** XOR of a non-empty list, |list|−1 multiplications. *)

val n_parties : t -> int
val input_count : t -> party:int -> int

val layers : t -> int
(** Number of multiplication layers (communication rounds the protocol
    needs beyond input sharing and output reconstruction). *)

val eval_plain : t -> inputs:Sb_crypto.Field.t list array -> Sb_crypto.Field.t list
(** Test oracle for {!Bgw.protocol} and [Theta_real]: plain evaluation.
    [inputs.(i)] lists party i's input values in declaration order.
    Raises [Invalid_argument] on arity mismatch. *)

(* Protocol-facing introspection (used by {!Bgw}). *)

type gate =
  | Input of int * int  (** party, index within that party's inputs *)
  | Const of Sb_crypto.Field.t
  | Add of wire * wire
  | Sub of wire * wire
  | Scale of Sb_crypto.Field.t * wire
  | Mul of wire * wire

val gates : t -> gate array
(** Topologically ordered: a gate only references earlier wires. *)

val wire_index : wire -> int
val outputs : t -> wire list
val mul_layer : t -> int -> int
(** Layer number of a multiplication gate's output wire, by raw wire
    index (0-based). *)
