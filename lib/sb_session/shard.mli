(** Shard layout for the session engine.

    A batch of sessions — grouped into contiguous per-spec ranges — is
    cut into contiguous shards, each wholly inside one spec's range
    (specs may differ in party count, so the shared execution context
    is only reusable within a spec). The layout depends only on the
    per-spec session counts — never on the pool size — so shard-local
    state (the shared {!Sb_sim.Ctx.t}, per-shard RNG streams,
    per-shard counters) is identical at every
    [--jobs] value; the scheduler merely decides which worker happens
    to drive which shard.

    Each shard owns one execution context built once from the shard's
    own RNG stream and reused by every session in the shard: the
    signature registry (PKI), the commitment-scheme instance, and the
    CRS are shared across the shard's sessions instead of regenerated
    per [Network.run] (the Pedersen/Feldman group parameters and the
    fixed-base exponentiation tables are module-global already). *)

val width : int
(** Per-spec shard floor: {!Core.Announced.fan_out_width} (32), the
    chunk count of the Monte-Carlo samplers, and the total shard
    budget of E18's modeled static layout
    ([Sb_workload.E18.static_layout]). *)

type t = {
  index : int;  (** shard number, [0 .. shards-1], global *)
  spec : int;  (** index of the owning spec *)
  lo : int;  (** first global session index owned by this shard *)
  len : int;  (** number of sessions in this shard *)
  rng : Sb_util.Rng.t;  (** shard-local stream (context build, spares) *)
}

val layout : counts:int array -> rng:Sb_util.Rng.t -> t array
(** [layout ~counts ~rng] covers the batch — [counts.(s)] sessions
    for spec [s], laid out contiguously in spec order — with shards
    that never straddle a spec boundary; within a spec, shard sizes
    differ by at most one. Shard [k] holds the [k]-th child
    stream of [rng] ([Rng.split_n]), so its stream is a pure function
    of the layout inputs. Counts must be positive (validated by
    [Engine.run]). *)

val context : Core.Setup.t -> t -> Sb_sim.Ctx.t
(** The shard's shared execution context, drawn from the shard
    stream. Call once per shard, inside the worker. Pass the owning
    spec's setup — party counts may differ across specs. *)
