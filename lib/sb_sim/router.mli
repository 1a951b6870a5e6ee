(** Route-indexed delivery for one round of the simulated network.

    The round loop used to deliver by re-filtering one flat envelope
    list per party ([List.filter (delivered_to id)]), which costs
    O(parties x envelopes) per round — cubic in n for the
    O(n^2)-message broadcast substrates. A router instead dispatches
    each envelope once, at enqueue time, into the mailbox of every
    party it reaches; reading an inbox is then a slice of one mailbox.

    {b Ordering invariant.} Every routed envelope is stamped with a
    global sequence number in enqueue order, so each mailbox is in
    enqueue order and [Inbox.to_list (inbox t i)] is exactly
    [List.filter (fun e -> Envelope.delivered_to e i) queue] for the
    flat [queue] of routed records — record for record, in the same
    order — and reading each send-all record there as its copy to [i]
    gives the filter of the expanded queue, which keeps the engine
    byte-identical to the seed list-filter delivery.
    [test/test_router.ml] pins this equivalence.

    Routers are single-domain mutable values; the network owns two and
    ping-pongs them between rounds via {!clear}. *)

type t

val create : ?stash:Envelope.Buf.t array -> int -> t
(** [create n] makes an empty router for parties [0 .. n-1], storing
    into the first [n] buffers of [stash] (cleared) when given. *)

val clear : t -> unit
(** Empty all mailboxes, retaining their capacity (the round loop
    reuses two routers for the whole run). *)

val route : t -> Envelope.t -> unit
(** Enqueue one envelope: direct and functionality-sourced traffic
    goes to the destination party's mailbox, broadcast traffic to every
    mailbox, a send-all record ([Each n]) to the mailboxes of parties
    [0 .. n-1] — the one record under one stamp, like a broadcast.
    Raises [Invalid_argument] on a functionality-bound envelope — those
    are consumed by the functionality before routing, never delivered
    to a party. *)

val inbox : t -> int -> Inbox.t
(** Everything delivered to party [i], in enqueue order: a slice of
    [i]'s mailbox through the router's one view, valid until the next
    [inbox], [route] or [clear]. A send-all sits in it as its one
    record. *)

val delivered_to_any : t -> int list -> Envelope.t list
(** [delivered_to_any t ids] is every envelope delivered to at least
    one party in [ids] — each envelope once, in enqueue order: the
    adversary's view of traffic reaching the corrupted set. A send-all
    record yields its copies to the parties in [ids] it reaches, in
    party order, exactly as filtering the expanded queue would. [ids]
    must be duplicate-free. Empty [ids] yields [] (broadcasts reach
    nobody in an empty set). *)

val to_list : t -> Envelope.t list
(** The full routed queue in enqueue order, each envelope once and each
    send-all as its copies ({!Envelope.expand_onto}): the flat list the
    seed engine would have carried. Test and debugging aid. *)

val total : t -> int
(** Delivery count including broadcast and send-all fan-out: the sum over parties
    of their {!inbox} lengths, in O(n). Feeds the [deliveries] tally
    of [Network.honest_run ~record_comm]. *)
