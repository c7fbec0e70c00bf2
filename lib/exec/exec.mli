(** Domain-pool scheduler: the execution substrate under every
    parallel hot loop of the flow (DistOpt window batches, the
    experiment matrix, the daemon's job pool, the benchmark harness).

    Design constraints, in order:

    - {b One pool per process, spawned once.} Workers are persistent
      domains; after warm-up no [Domain.spawn] happens mid-run (the
      [exec.domain_spawns] counter proves it). Spawn-per-batch, which
      the first DistOpt implementation paid, is exactly what this
      library removes.
    - {b Deterministic results.} [parallel_map] and [parallel_for]
      write results by index, so the outcome is identical to the
      sequential loop for every pool size — callers rely on
      [--jobs N] being bit-identical to [--jobs 1].
    - {b Graceful degradation to sequential execution.} With
      [jobs () <= 1] nothing is spawned and everything runs inline. A
      task whose worker raised, whose deadline expired before it
      started, or that was cancelled is re-run sequentially by the
      awaiting caller: [Future.await] never crashes the pool and never
      hangs a join.
    - {b One shared FIFO.} Every submission, nested ones included,
      goes to a single lock-guarded queue that all workers and all
      awaiting callers take from. Tasks are coarse (daemon jobs, window
      solves, a few racers), so the lock is never hot. The queue is
      unbounded: each submitter bounds its own fan-out (the daemon's
      in-flight cap, one task per [parallel_for] chunk, one per racer).

    Instrumented through [lib/obs] (all no-ops until [Obs.set_enabled]):
    counters [exec.tasks], [exec.deadline_hits], [exec.domain_spawns];
    gauges [exec.pool_size], [exec.queue_depth_max]; span [exec.task]
    around each pool-executed task (a root span of its worker domain,
    see the span-forest notes in ARCHITECTURE.md). *)

(** {1 Pool configuration} *)

(** [jobs ()] is the target parallelism: the configured value, or
    [Domain.recommended_domain_count ()] when unset. The pool runs
    [jobs () - 1] worker domains; the submitting domain is the
    remaining unit of parallelism (it claims and runs tasks while
    awaiting). [1] means fully sequential, nothing spawned. *)
val jobs : unit -> int

(** [set_jobs n] sets the target parallelism (clamped to >= 1). If a
    pool of a different size is live it is shut down; the next parallel
    call respawns at the new size. *)
val set_jobs : int -> unit

(** [shutdown ()] stops and joins the worker domains, if any. Pending
    pool tasks are not lost: their awaiters run them inline. Installed
    via [at_exit] automatically; call it directly to force a respawn or
    to make a clean point in tests. *)
val shutdown : unit -> unit

(** {1 Futures} *)

module Future : sig
  (** A handle on a submitted task or an already-completed value. *)
  type 'a t

  (** [await t] returns the task's value, claiming and running it
      inline if no worker got to it first — so [await] always makes
      progress, even with no pool. If the pool's run raised, hit its
      deadline, or was cancelled, the thunk is re-run sequentially by
      the caller (the sequential-fallback guarantee); an exception from
      that sequential run propagates. *)
  val await : 'a t -> 'a

  (** [return v] is an already-completed future holding [v]; [await]
      yields it immediately. *)
  val return : 'a -> 'a t

  (** [cancel t] reclaims a submitted task from the pool: [true] when
      it won (no worker will run it; [await] computes it inline),
      [false] when execution had already started or [t] is not a
      submitted task. *)
  val cancel : 'a t -> bool
end

(** [submit ?deadline_ns f] schedules [f] on the pool and returns its
    future. [deadline_ns] is an absolute [Obs.now_ns] timestamp: a
    worker that picks the task up past the deadline does not run it
    (counted in [exec.deadline_hits]); the awaiter runs it inline
    instead. With [jobs () <= 1] nothing is enqueued and [await] runs
    [f] inline. Thunks must tolerate being re-run when they raise (the
    fallback path); pure thunks and idempotent writes qualify. *)
val submit : ?deadline_ns:int64 -> (unit -> 'a) -> 'a Future.t

(** {1 Deterministic racing} *)

(** [race ?budget_ns thunks] runs the thunks as deadline-raced pool
    tasks and returns {e all} results, in submission order. The
    deadline ([budget_ns] after submission) bounds pool-side execution
    only: a worker that reaches a task past the deadline skips it, and
    the awaiting caller runs it inline — so every thunk still produces
    its result and the returned list is identical for every pool size,
    including [jobs () = 1] (fully sequential). Callers pick the winner
    from the complete result list with their own deterministic rule;
    wall-clock never decides an outcome, only where a thunk executes.
    Thunks must be independent (they may run concurrently) and, like
    all submitted tasks, tolerate a sequential re-run on the fallback
    path. *)
val race : ?budget_ns:int64 -> (unit -> 'a) list -> 'a list

(** {1 Deterministic data-parallel loops} *)

(** [parallel_map ?chunk f xs] is [Array.map f xs], computed in chunks
    across the pool. Results are written by index, so the output is
    identical for every [jobs] setting; [chunk] defaults to about four
    chunks per unit of parallelism. *)
val parallel_map : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** [parallel_for ?chunk n body] runs [body i] for [i] in [0..n-1]
    across the pool ([chunk] consecutive indices per task, default 1 —
    suited to coarse tasks like window solves). The caller returns only
    after every index completed. [body] must be safe to run
    concurrently for distinct indices. *)
val parallel_for : ?chunk:int -> int -> (int -> unit) -> unit

(** {1 Background service domains}

    A long-running side loop (the daemon's admin plane) needs a domain
    of its own, outside the pool: pool tasks must stay short-lived or
    they starve job execution. [Bg] is the sanctioned wrapper — a
    spawned domain plus a cooperative stop flag. Unlike pool workers,
    a [Bg] spawn does not move [exec.domain_spawns]: that counter means
    "pool workers created" and is embedded in traced-job replies, which
    must be byte-identical whether or not a service domain is running. *)

module Bg : sig
  type t

  (** [spawn body] starts [body] on a fresh domain. [body] must poll
      [should_stop] at every blocking point (e.g. each select timeout)
      and return promptly once it reads [true]. *)
  val spawn : (should_stop:(unit -> bool) -> unit) -> t

  (** [stop t] raises the stop flag without waiting. *)
  val stop : t -> unit

  (** [join t] raises the stop flag and waits for the domain to
      return. Idempotent with [stop]; call exactly once. *)
  val join : t -> unit
end
