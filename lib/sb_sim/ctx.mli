(** Per-execution context: parameters and shared setup.

    One [Ctx.t] is created per protocol execution. It fixes the party
    count [n], the corruption bound [thresh] (the paper's t), the
    security parameter [k], and the trusted setup every protocol may
    assume: a commitment scheme instance, a signature registry (PKI),
    and a common reference string. *)

type t = {
  n : int;
  thresh : int;  (** maximum number of corrupted parties, t < n *)
  k : int;  (** security parameter; commitment nonce length is k bytes *)
  commit : Sb_crypto.Commit.scheme;
  sigs : Sb_crypto.Sig.scheme;
  crs : string;  (** common reference string, k bytes *)
  pool : Envelope.Arena.arena option;
      (** When present, the network's outbox draws send-all envelope
          records ({!Outbox.to_all}) from this arena instead of
          allocating; set by large-n callers of {!Network.honest_run}
          with [~reuse_envelopes:true], which also keeps its mailboxes
          and outbox in the arena. *)
}

val make :
  ?backend:Sb_crypto.Commit.backend ->
  ?pool:Envelope.Arena.arena ->
  rng:Sb_util.Rng.t ->
  n:int ->
  thresh:int ->
  k:int ->
  unit ->
  t
(** Fresh setup drawn from [rng]. Default backend is [Hash], default
    no envelope pool. Requires 0 <= thresh < n and k >= 1. [?pool]
    does not touch [rng], so pooled and unpooled setups draw
    identical randomness. *)
