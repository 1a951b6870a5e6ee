(** Common shape of a single-sender broadcast sub-protocol instance.

    A session is one sender broadcasting one value to everybody. Its
    messages are wrapped in [Msg.Tag ("bc:" ^ sid, …)] so that many
    sessions — possibly of different broadcast protocols — can share
    the network simultaneously. The n-session compositions ({!Parallel})
    hand each session only the envelopes carrying its tag; the
    one-session composition hands over its inbox as delivered.

    Local rounds start at 0 when the session starts; a session that
    begins at network round r0 maps network round r to local round
    r − r0. The driver (usually [Parallel]) is responsible for feeding
    every local round from 0 to [rounds] inclusive; [result] may be read
    afterwards. *)

type t = {
  step : round:int -> inbox:Sb_sim.Inbox.t -> out:Sb_sim.Outbox.t -> unit;
      (** [round] is the LOCAL round. [inbox] may also hold envelopes
          that are not this session's: other sessions' tags, untagged
          bodies, functionality traffic. A step reads only envelopes
          whose body carries the session's {!tag} and whose sender is a
          party ({!Sb_sim.Inbox.iter_from_parties} and
          {!Sb_sim.Inbox.first_from} with that tag), so such envelopes
          change neither its sends nor its result: [Parallel.single]
          relies on it, and [test_broadcast.ml] pins it for every
          substrate. {!Sb_sim.Party.t}'s contract: the caller owns
          [inbox] and [out]; the inbox slice is valid only during the
          call, so do not retain it; only append to [out], sends
          already wrapped in the session's tag. *)
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
    {!Sb_sim.Inbox.iter_from_parties} and
    {!Sb_sim.Inbox.first_from} with it: one tagged scan that checks
    the tag and the party sender of each envelope in place. The tags of
    the compositions' session ids ["s0"] .. ["s255"] are shared strings,
    so those scans mostly match by address. *)

val wrap : sid:string -> Sb_sim.Msg.t -> Sb_sim.Msg.t
(** [wrap ~sid m] is [Msg.Tag (tag sid, m)]. Applied to [~sid] alone it
    builds the tag once; bind it per session, not per message. *)
