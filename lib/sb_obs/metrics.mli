(** Process-wide metrics registry: counters, gauges, and fixed-bucket
    histograms with streaming mean/p50/p95/max.

    Disabled by default. When disabled, [incr]/[set]/[observe] are a
    single boolean load — instrumented hot paths (the network round
    loop) cost nothing measurable. Handles are cheap to create and
    interned by name, so call sites may look metrics up on every use or
    cache the handle; both hit the same underlying cell.

    Nothing here draws randomness or perturbs caller state: enabling
    metrics cannot change the protocol outputs of a seeded run.

    Domain safety: counters and gauges are atomics, histograms take a
    per-histogram mutex per observation, and the name registry is
    mutex-guarded — worker domains of the sampling pool may update any
    metric concurrently and the aggregated totals are exact. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val enabled : unit -> bool

val counter : string -> counter
(** Intern (create or look up) a counter by name. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : string -> histogram
(** Intern a histogram by name; the first registration wins, so every
    lookup of a name returns the same histogram. Buckets are a fixed
    geometric ladder suited to microsecond durations (inclusive upper
    bounds 1, 2, 5, 10, ... 5e8) plus an overflow bucket. *)

val observe : histogram -> float -> unit

type histogram_stats = {
  count : int;
  sum : float;
  mean : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  p50 : float;  (** bucket-interpolated estimate; [nan] when empty *)
  p95 : float;
}

val stats : histogram -> histogram_stats

val quantile : histogram -> float -> float
(** [quantile h q] for [0 <= q <= 1], linearly interpolated within the
    bucket where the cumulative count crosses [q]; clamped to the
    observed min/max so exact-bound data stays exact. *)

val reset : unit -> unit
(** Zero every registered metric (names survive). *)

val to_table : unit -> Sb_util.Tabular.t
(** Render every registered metric, sorted by name. *)

val to_json : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] with
    names sorted, for embedding in run reports. *)
