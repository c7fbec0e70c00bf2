(** Parsed [vm1dp-trace/1] documents (see [Obs.write_trace]): the span
    forest plus the end-of-run counter/gauge/histogram snapshot. This is
    the input model of every analysis in [lib/trace]; parsing is strict
    about the schema tag and the field types so a regression gate never
    silently passes on a half-written file. *)

type attr = [ `Int of int | `Float of float | `Str of string ]

type span = {
  name : string;
  start_ns : int;
  dur_ns : int;
  attrs : (string * attr) list;
  children : span list;  (** document order = start order per parent *)
}

(** A histogram as the trace records it: the emitter's own snapshot
    type, so [Obs.Histogram.percentile] applies unchanged ([nan] on an
    empty histogram). *)
type hist = Obs.Histogram.snap = {
  bounds : float array;
  counts : int array;  (** [Array.length bounds + 1]; last = overflow *)
  count : int;
  sum : float;
}

type t = {
  spans : span list;  (** roots; spans opened on worker domains surface
                          here as their own roots *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
}

val end_ns : span -> int

(** Attribute lookup; [attr_int] also accepts a float-typed attribute by
    truncation, mirroring the leniency of [of_json] on numbers. *)
val attr_int : span -> string -> int option

val attr_str : span -> string -> string option

(** [of_json j] checks the [vm1dp-trace/1] schema tag and the shape of
    every field. Numbers are accepted as [Int] or [Float] wherever either
    can appear (JSON does not distinguish them). *)
val of_json : Obs.Json.t -> (t, string) result

(** [metrics_of_json j] parses an object carrying only the metric
    members ([counters], [gauges], [histograms]) as written by
    [Obs.metrics_json] — the [cumulative] block of a [vm1dp-metrics/2]
    admin reply. The result has no spans. *)
val metrics_of_json : Obs.Json.t -> (t, string) result

val of_string : string -> (t, string) result

(** [load path] reads and parses the file; errors (unreadable file, bad
    JSON, wrong schema) come back as [Error] — callers decide the exit
    code. *)
val load : string -> (t, string) result

(** [iter t f] visits every span in pre-order with its depth (roots are
    depth 0). *)
val iter : t -> (depth:int -> span -> unit) -> unit

(** [wall_ns t] is the wall-clock extent of the forest:
    max end - min start over the roots, 0 for an empty forest. *)
val wall_ns : t -> int

(** [prune ~prefixes t] removes every span whose name starts with one of
    the prefixes, splicing its children into its place (they keep their
    own names and times), and drops counters/gauges/histograms matching
    the same prefixes. This is how analyses ignore the nondeterministic
    [exec.] scheduling spans: an [exec.task] wrapper disappears but the
    window solve it ran stays, reparented to wherever the wrapper sat. *)
val prune : prefixes:string list -> t -> t

(** [delta ~before after] is what happened between two cumulative
    metric readings of one process: counters and histograms (bucket
    counts, count, sum) are [after] minus [before] — a name absent from
    [before] counts from zero — and gauges, being levels, are [after]'s.
    Spans are dropped. This is how [vm1trace top --watch] derives
    per-interval throughput and latency percentiles from two scrapes. *)
val delta : before:t -> t -> t
