(** Execution of one batch-service job: resolve shared artifacts, run
    the flow on private copies, report a deterministic result.

    The two-phase shape is the point of the module. {!prepare} runs on
    the submitting domain and is the only code that touches the
    {!Cache} — everything it hands over (library, netlist, master
    placement, grid skeleton) is immutable from then on. {!execute} is
    safe to run on a pool worker: it copies the master placement and
    mutates only that copy, so any number of jobs can be in flight at
    once and a job's result is independent of what runs next to it.

    The cache's result memo short-cuts identical re-submissions:
    {!prepare} resolves the artifacts as usual, then looks the job up
    on the submitting domain; a hit makes {!execute} return the stored
    result without running the flow, so the reply differs from a fresh
    run only in [latency_ms]. {!remember} stores ok results from the
    same domain. Traced jobs neither read nor write the memo.

    [execute] never raises: a job that throws internally becomes a
    structured [internal] error reply, because one poisoned job must
    not take the daemon down. *)

(** A job with its shared artifacts resolved (or the error that
    resolution produced). *)
type prepared

(** [prepare cache job] resolves the job's artifacts through the cache
    on the calling domain, then probes the result memo. Never raises;
    resolution failures are carried inside the returned value and
    surface as error replies. *)
val prepare : Cache.t -> Protocol.job -> prepared

(** [memoised p] is true when [p] hit the result memo: {!execute} then
    returns at once and need not go to the pool. *)
val memoised : prepared -> bool

(** [execute p] runs the optimisation flow for a prepared job, or
    returns the memoised result on a memo hit: [Vm1.Vm1_opt.run] on a
    copy of the master placement while a pool task evaluates another
    copy, then re-evaluate and digest. The reply's [latency_ms] covers
    artifact resolution plus execution. When the job asked for a trace, observability is
    force-enabled around the run and the reply carries a
    [vm1dp-trace/1] blob of the job's root spans (see PROTOCOL.md for
    the isolation caveats); traced jobs are meant to run alone —
    the daemon drains in-flight work first. *)
val execute : prepared -> Protocol.reply

(** [remember cache p reply] stores [reply]'s result in the memo when
    [p] missed it and [reply] is ok. Call it on the domain that called
    {!prepare}. *)
val remember : Cache.t -> prepared -> Protocol.reply -> unit

(** [run cache job] is [execute (prepare cache job)] followed by
    {!remember} — the one-call form used by tests and the daemon's
    traced path. *)
val run : Cache.t -> Protocol.job -> Protocol.reply
