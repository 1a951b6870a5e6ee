(** Parallel broadcast from n single-sender sessions (§3.2).

    Two compositions of a single-sender {!Session.scheme}:

    - [sequential]: session i (sender P_i) occupies its own window of
      rounds, one sender after another — the "simplest instantiation"
      the paper uses to show that parallel broadcast alone does NOT
      give independence (a rushing last sender echoes an earlier
      value);
    - [concurrent]: all n sessions share the same rounds — fewer
      rounds, but still not independent, since rushing lets corrupted
      senders pick their round-0 value after seeing honest senders'.

    Honest parties output [Msg.List] of n values, coerced to bits with
    default 0 for malformed results (footnote 2 of the paper). *)

val session_id : int -> string
(** The session id used for sender i, shared with adversaries that need
    to speak the same wire format. *)

val sequential : Session.scheme -> Sb_sim.Protocol.t
val concurrent : Session.scheme -> Sb_sim.Protocol.t

val single : Session.scheme -> Sb_sim.Protocol.t
(** One session only ("single-<scheme>"): P_0 is the sender, every
    party outputs that session's result directly (no bit coercion, no
    [Msg.List]). The Θ(n²)-message unit the scaling sweep measures —
    the full n-session compositions above cost a factor n more and
    would conflate composition cost with substrate cost. *)

val bucket_by_sid : n:int -> Sb_sim.Envelope.t list -> Sb_sim.Envelope.t list array
(** The dispatch [sequential] and [concurrent] parties run on every
    inbox: bucket [k] holds, in inbox order, exactly the envelopes
    [Session.inbox_for ~sid:(session_id k)] keeps, for each k < n.
    The tag parse is strict: ["bc:s"] then the decimal k with no
    leading zero and at most 9 digits; anything else (other tags,
    k >= n, untagged bodies) is dropped. *)

val window : mode:[ `Sequential | `Concurrent ] -> scheme_rounds:int -> sender:int -> int * int
(** [window ~mode ~scheme_rounds ~sender] is the inclusive network-round
    interval during which the sender's session is active; exposed so
    adversaries can align their own session handling. *)
