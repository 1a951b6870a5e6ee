(** Common shape of a single-sender broadcast sub-protocol instance.

    A session is one sender broadcasting one value to everybody. Its
    messages are wrapped in [Msg.Tag ("bc:" ^ sid, …)] so that many
    sessions — possibly of different broadcast protocols — can share
    the network simultaneously; [inbox_for] recovers the envelopes that
    belong to a given session.

    Local rounds start at 0 when the session starts; a session that
    begins at network round r0 maps network round r to local round
    r − r0. The driver (usually [Parallel]) is responsible for feeding
    every local round from 0 to [rounds] inclusive; [result] may be read
    afterwards. *)

type t = {
  step : round:int -> inbox:Sb_sim.Envelope.t list -> Sb_sim.Envelope.t list;
      (** [round] is the LOCAL round. [inbox] must already be filtered
          to this session's envelopes. *)
  result : unit -> Sb_sim.Msg.t;
}

type scheme = {
  scheme_name : string;
  rounds : Sb_sim.Ctx.t -> int;
      (** Local send rounds; the session expects [step] calls for local
          rounds 0 … rounds (the last call is delivery-only). *)
  create :
    Sb_sim.Ctx.t ->
    rng:Sb_util.Rng.t ->
    sid:string ->
    sender:int ->
    me:int ->
    value:Sb_sim.Msg.t option ->
    t;
      (** [value] must be [Some v] iff [me = sender]. *)
}

val tag : string -> string
(** [tag sid] is the message tag used by session [sid]. The substrates
    build it once per session and read their inboxes through
    {!Sb_sim.Envelope.iter_from_parties} and
    {!Sb_sim.Envelope.first_from} with it: one tagged scan that checks
    the tag and the party sender of each envelope in place. *)

(** [wrap], [unwrap] and [inbox_for] build [tag sid] when applied to
    [~sid] alone. A session binds them once, e.g.
    [let unwrap = Session.unwrap ~sid in ...], instead of applying
    them in full per envelope; full application behaves the same but
    builds the tag string on every call. *)

val wrap : sid:string -> Sb_sim.Msg.t -> Sb_sim.Msg.t
val unwrap : sid:string -> Sb_sim.Msg.t -> Sb_sim.Msg.t option

val inbox_for : sid:string -> Sb_sim.Envelope.t list -> Sb_sim.Envelope.t list
(** Envelopes whose body carries this session's tag, in inbox order.
    When every envelope carries it — always so for a session running
    alone — the argument itself is returned, not a copy. *)
