(** One party's deliveries for one round, in delivery order: a
    read-only slice of an envelope array that its owner (the network's
    router, a composition's bucketing) reuses every round. An inbox is
    valid only during the step it is passed to; keep envelopes or
    bodies, never the inbox. A send-all arrives as its one record
    ([dst = Each n], see {!Envelope}): in this inbox it stands for the
    copy addressed to the inbox's party, so read [src] and [body], not
    [dst]. *)

type t

val length : t -> int

val get : t -> int -> Envelope.t
(** [get t i], for [0 <= i < length t]. *)

val iter : (Envelope.t -> unit) -> t -> unit
val to_list : t -> Envelope.t list

val of_list : Envelope.t list -> t
(** A fresh inbox over a copy of the list, for callers that hold
    deliveries as lists. *)

val iter_from_parties : tag:string -> (int -> Msg.t -> unit) -> t -> unit
(** [iter_from_parties ~tag f inbox] calls [f src m] for every envelope
    whose body is [Tag (tag, m)] and whose sender is [Party src], in
    inbox order: the one tagged scan of the substrates and the VSS
    protocols, allocating nothing itself. Tags compare as whole strings
    (by address first), so ["vss:1:comm"] never matches ["vss:11:comm"]. *)

val first_from : tag:string -> src:int -> t -> Msg.t option
(** The first [tag]-tagged payload sent by party [src], if any. *)

val create : unit -> t
(** An empty slice, for its owner to point at storage with {!set}. *)

val set : t -> Envelope.t array -> off:int -> len:int -> unit
(** Point the slice at [len] envelopes of the array from [off]. *)

val share : t -> into:t -> unit
(** Point [into] at the same slice as the first argument. *)
