(** An honest party is a stateful step machine.

    The network calls [step] once per round with the envelopes delivered
    this round (sent in the previous round); the step appends what it
    sends to [out]. The final round's sends are discarded; then
    [output] is read once. Parties are closures over mutable state;
    constructors live with each protocol.

    {b Step contract.} The network owns both arguments and reuses their
    storage every round: the [inbox] slice is valid only during the
    call, so do not retain it (keep envelopes or bodies instead); [out]
    is shared with the other parties' steps, so only append to it. *)

type step = round:int -> inbox:Inbox.t -> out:Outbox.t -> unit
type t = { step : step; output : unit -> Msg.t }

val of_list_step : (round:int -> inbox:Envelope.t list -> Envelope.t list) -> step
(** Test fixture for the pinned reference copies of the substrates:
    adapt a step written against lists (inbox in, sends out) to the
    contract above. *)
