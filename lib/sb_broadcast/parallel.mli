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
    would conflate composition cost with substrate cost. The session
    steps on each inbox as delivered, unbucketed ({!Session.t}'s step
    contract). *)

type buckets
(** One party's reusable state for {!bucket_by_sid}. *)

val buckets : n:int -> buckets
(** Test seam for {!bucket_by_sid}: its per-domain scratch for [n]
    sessions. *)

val bucket_by_sid : buckets -> Sb_sim.Inbox.t -> Sb_sim.Inbox.t array
(** Test seam for {!sequential} and {!concurrent}: the dispatch their
    parties run on every inbox. Slice [k] holds, in inbox order, exactly the envelopes
    tagged [Session.tag (session_id k)], for each k < n; anything else
    is dropped. The result is valid until the next call on this domain. *)

val window : mode:[ `Sequential | `Concurrent ] -> scheme_rounds:int -> sender:int -> int * int
(** Test seam for the schedule of {!sequential} and {!concurrent}:
    [window ~mode ~scheme_rounds ~sender] is the inclusive network-round
    interval during which the sender's session is active. *)
