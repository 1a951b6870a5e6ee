(** The announced-values vector of Definition 3.1, executable.

    [AnnouncedΠ_A(x)] is the vector W read off any honest party's
    output after running protocol Π against adversary A on input x.
    This module runs the simulated network and extracts W, checking
    on the way that the parallel-broadcast consistency property
    actually held (all honest outputs equal) — a run violating it is
    reported rather than silently used. *)

type run = {
  x : Sb_util.Bitvec.t;  (** the input vector of this execution *)
  w : Sb_util.Bitvec.t;  (** the announced vector *)
  corrupted : int list;
  consistent : bool;  (** all honest output vectors were equal *)
  adv_output : Sb_sim.Msg.t;
  outputs : (int * Sb_sim.Msg.t) list;  (** every honest party's raw output *)
}

val to_vector : int -> Sb_sim.Msg.t -> Sb_util.Bitvec.t option
(** Decode an honest party's output as an [n]-bit announced vector —
    [None] if it is not a well-formed length-[n] [Msg.List] of bits. *)

val announce : int -> (int * Sb_sim.Msg.t) list -> Sb_util.Bitvec.t * bool
(** [announce n outputs] is [(w, consistent)]: [w] is the first honest
    output decoded by {!to_vector}, and [consistent] holds when every
    honest output decodes to that same vector. With no outputs, or an
    undecodable first one, it is [(zero, false)]. *)

val run_once :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  x:Sb_util.Bitvec.t ->
  ?aux:Sb_sim.Msg.t ->
  ?faults:(rng:Sb_util.Rng.t -> Sb_sim.Network.interceptor) ->
  Sb_util.Rng.t ->
  run

val sample :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  dist:Sb_dist.Dist.t ->
  ?aux:Sb_sim.Msg.t ->
  ?faults:(rng:Sb_util.Rng.t -> Sb_sim.Network.interceptor) ->
  Sb_util.Rng.t ->
  (run -> unit) ->
  unit
(** Draw [setup.samples] inputs from [dist], run the protocol on each,
    and feed every run to the callback, sequentially on the calling
    domain. [?faults] (typically [Sb_fault.Inject.compile ~n plan]) is
    passed to every {!Sb_sim.Network.run}; each execution makes a
    fresh interceptor from its own seed stream, so faulty runs stay as
    reproducible as fault-free ones. *)

val fan_out_width : int
(** The fixed chunk count (32) of {!fan_out}, chosen for load balance
    alone; no result depends on it. *)

val fan_out :
  total:int ->
  draws_per_item:int ->
  init:(unit -> 'acc) ->
  f:('acc -> int -> (int -> Sb_util.Rng.t) -> unit) ->
  merge:(into:'acc -> 'acc -> unit) ->
  Sb_util.Rng.t ->
  'acc
(** The one domain-parallel Monte-Carlo loop of [core]. Items
    [0 .. total-1] are cut into at most {!fan_out_width} contiguous
    chunks run on {!Sb_par.Pool.default}; each chunk
    folds its items into its own [init ()] accumulator with
    [f acc i stream], where [stream k] ([0 <= k < draws_per_item]) is
    item [i]'s [k]-th generator, and credits them to
    {!note_domain_samples}. The accumulators are merged left to right
    in chunk order; with [total = 0] the result is [init ()].

    Determinism contract: [rng] is pre-split up front
    ({!Sb_par.Partition.streams}), so item [i]'s [k]-th stream is the
    child a sequential loop making [draws_per_item] [Rng.split]s per
    item would draw there, and neither the chunk layout nor the merge
    order depends on the pool. So when [f] and [merge] depend only on
    the index, the streams and the accumulators, the result is
    byte-identical at every pool size, including 1, and to that
    sequential loop. *)

val psample :
  Setup.t ->
  protocol:Sb_sim.Protocol.t ->
  adversary:Sb_sim.Adversary.t ->
  dist:Sb_dist.Dist.t ->
  ?aux:Sb_sim.Msg.t ->
  ?faults:(rng:Sb_util.Rng.t -> Sb_sim.Network.interceptor) ->
  init:(unit -> 'acc) ->
  f:('acc -> int -> run -> unit) ->
  merge:(into:'acc -> 'acc -> unit) ->
  Sb_util.Rng.t ->
  'acc
(** Domain-parallel [sample]: {!fan_out} over [setup.samples] items
    with two draws each (the input from [dist], then the execution),
    so under its contract the result equals the sequential [sample]
    loop's at every [--jobs]. [f acc i run] gets the global sample
    index [i]. *)

val note_domain_samples : int -> unit
(** Credit [len] samples to the calling domain's
    [par.domain<k>.samples] counter. Called by {!fan_out}; exposed for
    the session engine, which schedules its own shards. *)

val corrupted_of :
  Setup.t -> protocol:Sb_sim.Protocol.t -> adversary:Sb_sim.Adversary.t -> int list
(** The (static) corrupted set the adversary picks, discovered with a
    dry run. *)
