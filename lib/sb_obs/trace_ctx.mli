(** Causal tracing engine: per-session span trees (session -> round ->
    party -> phase), causal flow edges between spans, and named
    attribution buckets for hot-path work below span granularity.

    Disabled by default. When disabled every entry point is a single
    boolean load — no clock read, no allocation — the same contract as
    {!Metrics}; and nothing here draws randomness, so enabling tracing
    cannot change the protocol outputs of a seeded run.

    A {e session} (one [Sb_sim.Network.run]) owns a tree of spans; the
    open-span stack is domain-local, so Monte-Carlo samplers may trace
    sessions concurrently from worker domains. Completed spans and
    flow edges accumulate process-wide (mutex-guarded). At most 64
    sessions are traced per process; later sessions run untraced so
    profiling a 100k-sample experiment cannot exhaust memory.

    Export/aggregation lives in {!Perfetto}. *)

type span = {
  id : int;
  parent : int;  (** span id of the parent, [-1] for a session root *)
  name : string;  (** display name, e.g. ["round 3"], ["P2"] *)
  agg : string;  (** aggregation key for flame paths, e.g. ["round"] *)
  cat : string;  (** ["session"], ["round"], ["party"], ["phase"], ... *)
  track : int;  (** Perfetto thread id: the session ordinal, from 1 *)
  args : (string * string) list;
  start_us : float;  (** [Unix.gettimeofday], microseconds *)
  mutable end_us : float;  (** [nan] while the span is open *)
  mutable minor0 : float;  (** Gc words at open (internal) *)
  mutable major0 : float;
  mutable minor_words : float;  (** allocation deltas over the span *)
  mutable major_words : float;
  mutable buckets : (string * int * float) list;
      (** attribution buckets charged while this span was innermost:
          (name, calls, total microseconds) *)
}

type h = span option
(** A handle: [None] when tracing is disabled, the session cap was hit,
    or there is no ambient session on this domain. Every consumer of a
    handle is a no-op on [None]. *)

val none : h

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all collected spans/flows and restart ids and the session
    budget; clears this domain's open stack. *)

val now_us : unit -> float
(** Wall clock in microseconds — for callers timing bucket work. *)

val begin_session : ?args:(string * string) list -> string -> h
(** Open a session root span on a fresh track and make it this domain's
    current tree (any stale open spans from an aborted session are
    discarded). Returns [None] past the session cap. *)

val begin_span : ?agg:string -> ?args:(string * string) list -> cat:string -> string -> h
(** Open a child of this domain's innermost open span. [agg] is the
    flame-path component (defaults to the display [name]). *)

val end_span : h -> unit
(** Close the span: stamps [end_us] and the Gc deltas, pops it from the
    open stack (tolerating unbalanced inner spans), and records it. *)

val with_span :
  ?agg:string -> ?args:(string * string) list -> cat:string -> string -> (unit -> 'a) -> 'a
(** [begin_span]/[end_span] around a thunk; closes even on exceptions. *)

val flow : src:h -> dst:h -> unit
(** Record one causal edge (e.g. sender party span -> recipient round
    span for a delivered envelope). No-op if either side is [None]. *)

val bucket_add : string -> float -> unit
(** [bucket_add name dt_us] charges [dt_us] microseconds and one call
    to bucket [name] on this domain's innermost open span. Dropped when
    no span is open. *)

val spans : unit -> span list
(** Completed spans, sorted by (track, start, id) — deterministic given
    a fixed set of spans. *)

val flows : unit -> (int * int) list
(** Recorded (src span id, dst span id) edges, in record order. *)

val session_total : unit -> int
(** Sessions started since the last [reset] (traced or not). *)

val sessions_traced : unit -> int
(** Sessions actually traced (bounded by the cap). *)
