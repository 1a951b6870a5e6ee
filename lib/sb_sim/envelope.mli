(** A message in flight: sender, destination, body.

    Senders and destinations are either parties (by id), the trusted
    functionality slot, or — for destinations only — [All]: the
    regular (non-simultaneous) broadcast channel that the paper's
    model provides (§1, §4.1). A broadcast envelope is delivered
    identically to every party, so even a corrupted sender cannot
    equivocate over it; it offers no simultaneity, though: the rushing
    adversary still reads it before choosing the corrupted parties'
    same-round traffic.

    The network authenticates senders — a party cannot spoof another's
    [src] — matching the standard point-to-point model. *)

type endpoint = Party of int | Func | All

type t = { mutable src : endpoint; mutable dst : endpoint; mutable body : Msg.t }
(** Fields are mutable solely for {!Arena} recycling on the large-n
    hot path; treat envelopes as immutable values everywhere else.
    Structural equality and [{ e with ... }] behave exactly as they
    did when the fields were immutable. *)

(** The constructors below allocate the envelope record only: every
    [Party i] endpoint they store is one shared, immutable value per
    party index, from a table grown to the largest index served (up to
    65535; other indices get a fresh value) that {!Arena} shares.
    Structural equality cannot tell the difference. *)

val make : src:int -> dst:int -> Msg.t -> t
(** Party-to-party. *)

val broadcast : src:int -> Msg.t -> t
(** One envelope on the broadcast channel. *)

val to_func : src:int -> Msg.t -> t
val from_func : dst:int -> Msg.t -> t

val src_party : t -> int option

val src_is : t -> int -> bool
(** [src_is e i] = [src_party e = Some i] without allocating the
    option — used on the per-round authentication check. *)

val dst_party : t -> int option
val is_broadcast : t -> bool
val is_func_bound : t -> bool
val is_from_func : t -> bool

val delivered_to : t -> int -> bool
(** Whether the envelope reaches party [i]'s inbox: direct address or
    broadcast. *)

val endpoint_size : endpoint -> int
(** Bytes of one rendered endpoint ("P<id>", "F" or "*") — the
    addressing-header component of {!wire_size}, exposed so callers
    that cache body sizes can still account headers per envelope. A
    shared endpoint's size is a table read. *)

val wire_size : t -> int
(** Bytes this envelope would occupy on a wire: the {!Msg.size_bytes}
    of the body plus a canonical addressing header (endpoints as
    rendered by {!pp}: ["P<id>"], ["F"], or ["*"]). A broadcast
    envelope is one channel use: its size counts once, not once per
    recipient — matching how [sim.broadcasts] counts messages. *)

val pp : Format.formatter -> t -> unit

(** A growable envelope array with a sequence stamp per slot: the
    storage behind {!Router} mailboxes and the {!Outbox} (which stamps
    0). Slots at and beyond [len] are stale. *)
module Buf : sig
  type env := t
  type t = { mutable seqs : int array; mutable envs : env array; mutable len : int }

  val create : unit -> t

  val clear : t -> unit
  (** Empty the buffer, keeping its capacity. *)

  val push : t -> int -> env -> unit
  (** [push b seq e] appends [e] stamped [seq]. *)
end

(** Two-sided envelope arena for the large-n delivery path: records
    handed out at flip cycle [f] are recycled at cycle [f+2], giving
    every envelope exactly one full round of grace when
    {!Network.honest_run} flips once per round under [~reuse_envelopes].
    Bodies stay immutable {!Msg.t} values; only the envelope records
    are recycled, so the arena must not be combined with trace
    recording, delay-fault queues, or adversaries that retain
    delivered envelopes across rounds ([Network.honest_run] rules
    out the first two). Arena envelopes share {!make}'s endpoints (a fresh one
    stored into a recycled major-heap record would be promoted) and
    stay structurally equal to the ones {!make} builds. The arena also
    keeps the network's mailboxes and outbox across runs ({!stash}). *)
module Arena : sig
  type arena

  val create : unit -> arena

  val flip : arena -> unit
  (** Switch sides and reset the side flipped onto, handing its
      records back for reuse. *)

  val flips : arena -> int
  (** Number of flips performed — the generation counter: an envelope
      allocated at [flips = f] stays un-recycled until two further
      flips have happened. *)

  val make : arena -> src:int -> dst:int -> Msg.t -> t
  (** Party-to-party envelope drawn from the current side. *)

  val stash : arena -> int -> Buf.t array
  (** The arena's retained buffers, grown to at least [k]. They keep
      their capacity and contents between calls; one run at a time
      owns them. *)
end

val to_all_into : ?arena:Arena.arena -> Buf.t -> n:int -> src:int -> Msg.t -> unit
(** Append one copy of the body to every party [0 .. n-1], the sender
    included, in party order, sharing the body and the sender's
    endpoint; with [arena] the records are drawn from it. *)
