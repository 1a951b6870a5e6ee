(** Route-indexed delivery for one round of the simulated network.

    The round loop used to deliver by re-filtering one flat envelope
    list per party ([List.filter (delivered_to id)]), which costs
    O(parties x envelopes) per round — cubic in n for the
    O(n^2)-message broadcast substrates. A router instead dispatches
    each envelope once, at enqueue time: party-addressed and
    functionality-sourced traffic into the mailbox of the party it
    reaches, every broadcast ([All]) and send-all ([Each n]) record
    into one shared lane, held once. Reading an inbox is then the lane
    itself (a party with no direct mail that every lane record
    reaches), its mailbox (an empty lane), or the two merged by stamp
    into the router's scratch buffer — so an all-to-all round costs
    O(n) routing, not O(n^2) mailbox pushes.

    {b Ordering invariant.} Every routed envelope is stamped with a
    global sequence number in enqueue order, so each mailbox and the
    lane are in enqueue order and [Inbox.to_list (inbox t i)] is
    exactly [List.filter (fun e -> Envelope.delivered_to e i) queue]
    for the flat [queue] of routed records — record for record, in the
    same order — and reading each send-all record there as its copy to
    [i] gives the filter of the expanded queue, which keeps the engine
    byte-identical to the seed list-filter delivery.
    [test/test_router.ml] pins this equivalence.

    Routers are single-domain mutable values; the network owns two and
    ping-pongs them between rounds via {!clear}. *)

type t

val create : ?stash:Envelope.Buf.t array -> int -> t
(** [create n] makes an empty router for parties [0 .. n-1], storing
    into the first [n + 2] buffers of [stash] (cleared) when given: [n]
    mailboxes, the lane and the scratch buffer. *)

val clear : t -> unit
(** Empty the mailboxes and the lane, retaining their capacity (the
    round loop reuses two routers for the whole run). *)

val route : t -> Envelope.t -> unit
(** Enqueue one envelope under the next stamp: direct and
    functionality-sourced traffic goes to the destination party's
    mailbox; a broadcast, or a send-all record ([Each n], reaching
    parties [0 .. n-1]), goes once into the shared lane. Raises
    [Invalid_argument] on a functionality-bound envelope — those are
    consumed by the functionality before routing, never delivered to a
    party. *)

val inbox : t -> int -> Inbox.t
(** Everything delivered to party [i], in enqueue order, through the
    router's one view: the lane itself when [i]'s mailbox is empty and
    every lane record reaches [i], [i]'s mailbox when the lane is
    empty, and otherwise the mailbox and the lane records that reach
    [i] merged by stamp into the router's scratch buffer. Valid until
    the next [inbox], [route] or [clear]. A send-all sits in it as its
    one record. *)

val delivered_to_any : t -> int list -> Envelope.t list
(** [delivered_to_any t ids] is every envelope delivered to at least
    one party in [ids] — each envelope once, in enqueue order: the
    adversary's view of traffic reaching the corrupted set. A send-all
    record yields its copies to the parties in [ids] it reaches, in
    party order, exactly as filtering the expanded queue would. [ids]
    must be duplicate-free. Empty [ids] yields [] (broadcasts reach
    nobody in an empty set). *)

val to_list : t -> Envelope.t list
(** Test oracle for {!inbox}: the full routed queue in enqueue order,
    each envelope once and each send-all as its copies
    ({!Envelope.expand_onto}), the flat list the seed engine would have
    carried. *)

val total : t -> int
(** Delivery count including broadcast and send-all fan-out: the sum
    over parties of their {!inbox} lengths, in O(n) (the lane's fan-out
    is tallied as it is routed: [n] per broadcast, [min k n] per
    [Each k]). Feeds the [deliveries] tally of
    [Network.honest_run ~record_comm]. *)
