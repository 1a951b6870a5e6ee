(** Where a step puts the envelopes it sends this round.

    The network owns one outbox per run, reuses it every round, and
    hands it to each honest party's step in turn: a step appends its
    sends, and everything already there belongs to earlier steps, which
    it must not read, remove or rewrite. A composition may rewrite what
    its own sub-steps appended ({!retag}). *)

type t

val create : ?pool:Envelope.Arena.arena -> ?buf:Envelope.Buf.t -> unit -> t
(** An empty outbox, storing into [buf] (cleared) when given. With
    [pool], {!to_all} draws its records from that arena. *)

val push : t -> Envelope.t -> unit

val to_all : t -> n:int -> src:int -> Msg.t -> unit
(** Send the body to every party [0 .. n-1], the sender included — the
    substrates' send-all. It appends one record, {!Envelope.to_all}
    (nothing when [n = 0]), which stands for the [n] point-to-point
    envelopes in party order: {!to_list} and {!drain} hand out those
    copies, {!length} and {!get} see the one record. *)

val length : t -> int
(** Records appended since the last {!clear}: a send-all is one. *)

val get : t -> int -> Envelope.t
(** [get t i], for [0 <= i < length t]: the [i]-th record appended
    since the last {!clear}. *)

val retag : t -> from:int -> string -> unit
(** [retag t ~from tag] replaces every record from index [from] on by
    a copy with its body wrapped as [Msg.Tag (tag, body)]. *)

val to_list : t -> Envelope.t list
(** The envelopes appended since the last {!clear}, in order, each
    send-all expanded into its copies ({!Envelope.expand_onto}). *)

val clear : t -> unit

val drain : t -> Envelope.t list
(** {!to_list}, then {!clear}. *)
