(** The batch-service loop: a stream of request lines in, a stream of
    reply lines out, jobs scheduled onto the [lib/exec] domain pool.

    Transport-agnostic on purpose: the loop pulls lines from a
    [next_line] thunk and pushes replies through [emit], so [bin/vm1d]
    can serve stdin/stdout and a Unix socket with the same code, and
    tests can serve from a string list with no processes involved.

    Scheduling and ordering:

    - Each parsed job is resolved against the artifact cache on the
      calling thread ({!Engine.prepare}), then submitted to the pool.
      Up to [max_in_flight] jobs run concurrently. A job that hits the
      cache's result memo is answered without the pool; ok results
      enter the memo as they are emitted, on the calling thread.
    - Replies are emitted in {e request order}, never completion order
      — a client can match replies to requests positionally, and the
      emitted stream for a given request stream is reproducible.
    - Lines that fail to parse become error replies in the same
      ordered stream; the loop never stops on them.
    - A job that requests a trace is a serialisation point: the loop
      drains in-flight jobs, runs the traced job inline, and only then
      resumes pipelining (so the trace contains that job's spans only).

    Observability (all no-ops unless [Obs.set_enabled]): counters
    [serve.jobs], [serve.errors] (plus [serve.cache_hits] /
    [serve.cache_misses] and [serve.result_hits] /
    [serve.result_misses] from {!Cache}), gauge [serve.queue_depth]
    (in-flight jobs), histogram [serve.job_latency_ms] (from
    {!Engine}). *)

(** Totals for one serve loop, for exit reporting. *)
type stats = {
  jobs : int;    (** request lines read *)
  ok : int;      (** ok replies emitted *)
  errors : int;  (** error replies emitted *)
}

(** [serve ?max_in_flight cache ~next_line ~emit ()] pulls request
    lines until [next_line] returns [None], emits one reply line per
    request via [emit] (no trailing newline; the caller frames), and
    returns the totals. [max_in_flight] bounds concurrently-running
    jobs (default [2 * Exec.jobs ()], min 2) — the submission loop
    awaits the oldest job once the bound is reached, which is the
    backpressure that keeps a fast client from queueing unboundedly.
    [default_solver] (the [vm1d --solver] flag) fills in the window
    solver for requests that omit the ["solver"] field; a request's own
    field always wins. [telemetry], when given, receives one
    {!Telemetry.record_job} per emitted reply, with the job's queue
    wait (submit to execution start) split from its execute time;
    recording happens on the serve loop at emission, so it never runs
    on the pool and cannot reorder replies. *)
val serve :
  ?max_in_flight:int ->
  ?default_solver:Vm1.Scp_solver.mode ->
  ?telemetry:Telemetry.t ->
  Cache.t ->
  next_line:(unit -> string option) ->
  emit:(string -> unit) ->
  unit ->
  stats
