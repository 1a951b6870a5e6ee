(** A protocol bundles a round count, a party constructor, and an
    optional trusted functionality.

    The contract for parallel broadcast protocols (the only kind built
    here): every party's input is [Msg.Bit], every honest party's
    output is [Msg.List] of [n] bits — its announced-values vector
    B_i = (B_{i,1}, …, B_{i,n}) from §3.2 of the paper. *)

type t = {
  name : string;
  rounds : Ctx.t -> int;
  (** Number of communication rounds; the network then runs one extra
      delivery-only step so messages sent in the last round are seen. *)
  make_functionality : (Ctx.t -> rng:Sb_util.Rng.t -> Functionality.t) option;
  make_party : Ctx.t -> rng:Sb_util.Rng.t -> id:int -> input:Msg.t -> Party.t;
}
