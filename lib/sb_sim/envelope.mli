(** A message in flight: sender, destination, body.

    Senders and destinations are either parties (by id), the trusted
    functionality slot, or — for destinations only — [All]: the
    regular (non-simultaneous) broadcast channel that the paper's
    model provides (§1, §4.1). A broadcast envelope is delivered
    identically to every party, so even a corrupted sender cannot
    equivocate over it; it offers no simultaneity, though: the rushing
    adversary still reads it before choosing the corrupted parties'
    same-round traffic.

    [Each n] is a send-all record: one record standing for the n
    point-to-point envelopes to parties [0 .. n-1], in party order
    (built by {!to_all}). It is n messages on the wire, not a broadcast:
    every count and size treats it as its n copies ({!copies},
    {!wire_size}), and everything that hands out envelope lists
    ([Outbox.to_list], [Router.to_list], the adversary's views, the
    trace, a fault interceptor's queue) hands out the copies
    ({!expand_onto}). Only outboxes, the router's broadcast lane and
    inbox slices hold the record itself; in party [i]'s inbox it stands for the copy
    addressed to [i].

    The network authenticates senders — a party cannot spoof another's
    [src] — matching the standard point-to-point model. *)

type endpoint = Party of int | Func | All | Each of int

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
val is_func_bound : t -> bool
val is_from_func : t -> bool

val delivered_to : t -> int -> bool
(** Whether the envelope reaches party [i]'s inbox: direct address,
    broadcast, or a send-all ([Each n], [0 <= i < n]). *)

val copies : t -> int
(** Point-to-point envelopes the record stands for: [n] for a send-all
    to [n] parties, 1 for anything else. *)

val copy_to : t -> int -> t
(** [copy_to e i] is [e] readdressed to party [i] (a fresh record
    sharing [e]'s sender and body): a send-all's copy for [i]. *)

val expand_onto : t -> t list -> t list
(** [expand_onto e acc] puts [e]'s envelopes in front of [acc]: a
    send-all's [n] copies to parties [0 .. n-1], in party order, or
    [e] itself. *)

val wire_size : t -> int
(** Bytes this envelope would occupy on a wire: the {!Msg.size_bytes}
    of the body plus its addressing header (endpoints as rendered by
    {!pp}: ["P<id>"], ["F"], or ["*"]; summed in O(1)). A
    broadcast envelope is one channel use: its size counts once, not
    once per recipient — matching how [sim.broadcasts] counts messages.
    A send-all counts its [n] copies: [n] bodies and [n] headers. *)

val pp : Format.formatter -> t -> unit

(** A growable envelope array with a sequence stamp per slot: the
    storage behind {!Router} mailboxes, lanes and scratch buffers and
    the {!Outbox} (which stamps 0). Slots at and beyond [len] are stale. *)
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
    stay structurally equal to the ones {!make} and {!to_all} build. The arena also
    keeps the network's router buffers and outbox across runs
    ({!stash}). *)
module Arena : sig
  type arena

  val create : unit -> arena

  val flip : arena -> unit
  (** Switch sides and reset the side flipped onto, handing its
      records back for reuse. *)

  val flips : arena -> int
  (** Test seam for the recycling schedule: the number of flips
      performed — the generation counter: an envelope
      allocated at [flips = f] stays un-recycled until two further
      flips have happened. *)

  val make : arena -> src:int -> dst:int -> Msg.t -> t
  (** Test seam for the arena's records: a party-to-party envelope drawn
      from the current side, which test_sim compares with {!make}. *)

  val stash : arena -> int -> Buf.t array
  (** The arena's retained buffers, grown to at least [k]. They keep
      their capacity and contents between calls; one run at a time
      owns them. *)
end

val to_all : ?arena:Arena.arena -> n:int -> src:int -> Msg.t -> t
(** The send-all record from [src] to every party [0 .. n-1], the
    sender included ([dst = Each n], a shared value like the [Party]
    endpoints); drawn from [arena] when given. Requires [n >= 1]. *)
