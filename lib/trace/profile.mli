(** Aggregated per-span-name profile of a trace: call counts, total and
    self wall time, and exact-duration percentiles (computed from the
    recorded durations, not histogram buckets — every span carries its
    own [dur_ns], so no interpolation is needed). *)

type row = {
  name : string;
  calls : int;
  total_ns : int;   (** summed durations of all spans with this name *)
  self_ns : int;    (** total minus time covered by child spans *)
  min_ns : int;
  max_ns : int;
  p50_ns : int;     (** nearest-rank percentiles of the durations *)
  p90_ns : int;
  p99_ns : int;
}

(** [rows t] aggregates the whole forest, sorted by total time
    descending (ties broken by name, so output is deterministic). *)
val rows : Model.t -> row list

(** [to_json t] is the machine-readable report — schema
    [vm1dp-trace-report/1] ([Obs.Schemas.trace_report]): the profile rows
    plus the trace's counters, gauges and histogram summaries
    (count/sum/p50/p90/p99), all under the conventions above. *)
val to_json : Model.t -> Obs.Json.t

(** [to_text ?top t] renders the profile as text tables — spans
    (calls, total/self time, p50/p90/p99 in ms, hottest first), then
    counters, gauges and histograms (count, sum, p50/p90/p99). Only
    live values are shown: zero counters and gauges and empty
    histograms are left out, and so is a section with nothing left.
    [top > 0] keeps only the [top] hottest span rows. This is the table
    [vm1trace report] prints under its header line, and what every
    [--metrics] flag prints for the run's own snapshot. *)
val to_text : ?top:int -> Model.t -> string

(** [snapshot_text snap] is {!to_text} over [snap] read back through
    the trace encoder ([Model.of_json (Obs.trace_json snap)]), so a
    run's [--metrics] tables equal [vm1trace report] on the trace the
    same run writes. *)
val snapshot_text : Obs.snapshot -> string
