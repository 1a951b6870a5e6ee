(** Chrome trace-event JSON export of the collected {!Trace_ctx} trace
    (open the file in {{:https://ui.perfetto.dev}Perfetto} or
    chrome://tracing), plus the deterministic flame-style aggregation
    behind [simbcast profile].

    Layout: pid 0, one thread track per traced session; spans are
    ["X"] complete events (nesting implied by timestamp containment),
    causal edges are ["s"]/["f"] flow-event pairs bound to the
    midpoints of their source and destination spans, and per-span Gc
    deltas and attribution buckets ride in the event [args]. *)

val to_json : unit -> Json.t
(** Test seam for {!write_file}: [{"traceEvents": [...], "displayTimeUnit": "ms"}] over everything
    {!Trace_ctx} has collected; timestamps re-based to the earliest
    span start. *)

val write_file : string -> unit
(** Compact [to_json] output plus a trailing newline. *)

type frame = {
  path : string;  (** aggregation path, e.g. ["bracha/round/party"] —
                      bucket pseudo-leaves render as [".../[pow_g]"] *)
  count : int;  (** spans (or bucket calls) folded into this path *)
  total_us : float;
  self_us : float;  (** total minus direct children and buckets *)
}

val flame : unit -> frame list
(** Test seam for {!flame_table}: aggregate spans by agg-key path. Deterministic order: total time
    descending, then path ascending. *)

val flame_table : ?top:int -> unit -> Sb_util.Tabular.t
(** The top-[top] (default 30) frames as a rendered table with a
    self-time percentage column. *)

val summary : unit -> Json.t
(** Compact block for run reports (schema v3 [trace] field):
    sessions traced/total, span and flow counts. *)
