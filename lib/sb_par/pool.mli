(** Fixed pool of worker domains for deterministic fan-out.

    A pool of size [d] uses [d] domains in total: [d - 1] spawned
    workers plus the submitting domain, which drains the task queue
    during every barrier instead of blocking idle. A pool of size 1
    spawns nothing and runs everything inline on the caller — the
    sequential path and the parallel path are the same code.

    Determinism contract: [map_chunks] returns results positionally, so
    as long as [f] is a pure function of its chunk (the partitioner
    hands each chunk pre-split RNG streams), the output is independent
    of scheduling and of the pool size. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool of [domains] total domains
    (default {!Domain.recommended_domain_count}). *)

val size : t -> int

val map_chunks : t -> f:('a -> 'b) -> 'a array -> 'b array
(** [map_chunks t ~f chunks] applies [f] to every chunk, in parallel
    across the pool, and returns the results in chunk order. If one or
    more applications raise, the exception of the lowest-indexed
    failing chunk is re-raised (with its backtrace) after all tasks
    have settled; the pool itself stays usable. *)

val shutdown : t -> unit
(** Join all workers. Idempotent; subsequent [map_chunks] calls raise
    [Invalid_argument]. *)

val worker_index : unit -> int
(** Slot of the calling domain within its pool: 0 for the submitting
    domain, [1 .. size - 1] for spawned workers. Useful for per-domain
    accounting (e.g. sample counters in run reports). *)

(** {2 Process-default pool}

    The CLI's [--jobs] flag configures a lazily-created shared pool so
    that library code (the testers) need not thread a pool handle
    through every call. *)

val set_default_domains : int -> unit
(** Set the size of the default pool; tears down a live default pool of
    a different size first. *)

val get_default_domains : unit -> int

val default : unit -> t
(** The shared pool, created on first use (and re-created if it was
    shut down). Joined automatically [at_exit]. *)

val shutdown_default : unit -> unit
