(* Metric handles are created once: bumps happen on worker domains and a
   per-call registry lookup would contend on the registry lock. *)
let c_tasks = Obs.counter "exec.tasks"
let c_deadline = Obs.counter "exec.deadline_hits"
let c_spawns = Obs.counter "exec.domain_spawns"
let g_pool_size = Obs.gauge "exec.pool_size"
let g_queue_max = Obs.gauge "exec.queue_depth_max"

(* --- tasks and their cells --- *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn
  | Skipped  (* deadline hit or cancelled before execution *)

type 'a cell = {
  thunk : unit -> 'a;
  state : 'a state Atomic.t;
  claimed : bool Atomic.t;  (* exactly one executor wins this CAS *)
  deadline_ns : int64 option;
  mu : Mutex.t;
  cond : Condition.t;  (* signalled on every state transition *)
}

type task = Task : 'a cell -> task

let resolve c st =
  Atomic.set c.state st;
  Mutex.lock c.mu;
  Condition.broadcast c.cond;
  Mutex.unlock c.mu

(* Pool-side execution: claim, check the deadline, run under a span.
   Exceptions land in the cell, never in the worker loop. *)
let run_task (Task c) =
  if Atomic.compare_and_set c.claimed false true then begin
    let expired =
      match c.deadline_ns with
      | Some d -> Int64.compare (Obs.now_ns ()) d > 0
      | None -> false
    in
    if expired then begin
      Obs.Counter.incr c_deadline;
      resolve c Skipped
    end
    else begin
      Obs.Counter.incr c_tasks;
      match Obs.with_span "exec.task" c.thunk with
      | v -> resolve c (Done v)
      | exception e -> resolve c (Failed e)
    end
  end

(* --- the pool --- *)

(* One FIFO shared by every worker and every awaiting caller. Tasks are
   coarse (daemon jobs, window solves, a handful of racers), so a single
   lock is never the bottleneck; submitters bound their own fan-out. *)
type pool = {
  n_workers : int;
  queue : task Queue.t;  (* guarded by mu *)
  mu : Mutex.t;
  work_cond : Condition.t;  (* "there may be work" / shutdown *)
  mutable q_max : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let requested_jobs = Atomic.make 0 (* 0 = auto *)
let auto_jobs = lazy (Domain.recommended_domain_count ())

let jobs () =
  let r = Atomic.get requested_jobs in
  if r > 0 then r else Lazy.force auto_jobs

let pool_mu = Mutex.create ()
let pool : pool option ref = ref None
let exit_hook = ref false

let rec worker_loop p =
  Mutex.lock p.mu;
  while Queue.is_empty p.queue && not p.stop do
    Condition.wait p.work_cond p.mu
  done;
  (* on stop, queued tasks stay put: their awaiters run them inline *)
  let next = if p.stop then None else Queue.take_opt p.queue in
  Mutex.unlock p.mu;
  match next with
  | Some t ->
    run_task t;
    worker_loop p
  | None -> ()

let make_pool n =
  let p =
    {
      n_workers = n;
      queue = Queue.create ();
      mu = Mutex.create ();
      work_cond = Condition.create ();
      q_max = 0;
      stop = false;
      domains = [];
    }
  in
  Obs.Gauge.set g_pool_size (float_of_int (n + 1));
  p.domains <-
    List.init n (fun _ ->
        Obs.Counter.incr c_spawns;
        Domain.spawn (fun () -> worker_loop p));
  p

let teardown p =
  Mutex.lock p.mu;
  p.stop <- true;
  Condition.broadcast p.work_cond;
  Mutex.unlock p.mu;
  List.iter Domain.join p.domains

let shutdown () =
  Mutex.lock pool_mu;
  let p = !pool in
  pool := None;
  Mutex.unlock pool_mu;
  match p with Some p -> teardown p | None -> ()

(* Only called with [jobs () > 1]; [set_jobs] retires a pool of the
   wrong size, so a live pool always matches [jobs ()]. *)
let get_pool () =
  Mutex.lock pool_mu;
  let p =
    match !pool with
    | Some p -> p
    | None ->
      if not !exit_hook then begin
        exit_hook := true;
        at_exit shutdown
      end;
      let p = make_pool (jobs () - 1) in
      pool := Some p;
      p
  in
  Mutex.unlock pool_mu;
  p

let set_jobs n =
  let n = max 1 n in
  Mutex.lock pool_mu;
  Atomic.set requested_jobs n;
  let stale =
    match !pool with
    | Some p when p.n_workers <> n - 1 ->
      pool := None;
      Some p
    | _ -> None
  in
  Mutex.unlock pool_mu;
  match stale with Some p -> teardown p | None -> ()

(* --- submission --- *)

let enqueue p t =
  Mutex.lock p.mu;
  (* on stop: leave the task unenqueued; its awaiter runs it inline *)
  if not p.stop then begin
    Queue.push t p.queue;
    let len = Queue.length p.queue in
    if len > p.q_max then begin
      p.q_max <- len;
      Obs.Gauge.set g_queue_max (float_of_int len)
    end;
    Condition.signal p.work_cond
  end;
  Mutex.unlock p.mu

(* --- futures --- *)

(* The awaiting caller (a) races workers to claim-and-run unstarted
   tasks inline, which is what makes await deadlock-free with no pool
   at all, and (b) helps run other tasks while a worker holds its
   claim. Sequential fallback for Failed/Skipped lives here too. *)

let run_fallback (c : _ cell) =
  Mutex.lock c.mu;
  match Atomic.get c.state with
  | Done v ->
    (* another awaiter recomputed first *)
    Mutex.unlock c.mu;
    v
  | _ -> (
    match c.thunk () with
    | v ->
      Atomic.set c.state (Done v);
      Condition.broadcast c.cond;
      Mutex.unlock c.mu;
      v
    | exception e ->
      Mutex.unlock c.mu;
      raise e)

(* Run one queued task on the caller's domain; false when idle. *)
let help_once () =
  Mutex.lock pool_mu;
  let p = !pool in
  Mutex.unlock pool_mu;
  match p with
  | None -> false
  | Some p -> (
    Mutex.lock p.mu;
    let t = Queue.take_opt p.queue in
    Mutex.unlock p.mu;
    match t with
    | Some t ->
      run_task t;
      true
    | None -> false)

let rec await_cell c =
  match Atomic.get c.state with
  | Done v -> v
  | Failed _ | Skipped -> run_fallback c
  | Pending ->
    if Atomic.compare_and_set c.claimed false true then begin
      (* unstarted: run it inline, deadline irrelevant — the value is
         needed now *)
      Obs.Counter.incr c_tasks;
      match c.thunk () with
      | v ->
        resolve c (Done v);
        v
      | exception e ->
        resolve c (Failed e);
        raise e
    end
    else begin
      (* an executor holds the claim: help elsewhere, else sleep until
         the resolution broadcast *)
      if not (help_once ()) then begin
        Mutex.lock c.mu;
        (match Atomic.get c.state with
        | Pending -> Condition.wait c.cond c.mu
        | _ -> ());
        Mutex.unlock c.mu
      end;
      await_cell c
    end

module Future = struct
  type 'a t = Pure of 'a | Cell of 'a cell

  let return v = Pure v
  let await = function Pure v -> v | Cell c -> await_cell c

  let cancel = function
    | Cell c ->
      if Atomic.compare_and_set c.claimed false true then begin
        resolve c Skipped;
        true
      end
      else false
    | Pure _ -> false
end

let submit ?deadline_ns thunk =
  let c =
    {
      thunk;
      state = Atomic.make Pending;
      claimed = Atomic.make false;
      deadline_ns;
      mu = Mutex.create ();
      cond = Condition.create ();
    }
  in
  if jobs () > 1 then enqueue (get_pool ()) (Task c);
  Future.Cell c

(* --- deterministic racing --- *)

let race ?budget_ns thunks =
  let deadline_ns =
    Option.map (fun b -> Int64.add (Obs.now_ns ()) b) budget_ns
  in
  let futs = List.map (fun f -> submit ?deadline_ns f) thunks in
  List.map Future.await futs

(* --- deterministic loops --- *)

let parallel_for ?(chunk = 1) n body =
  if n > 0 then begin
    let chunk = max 1 chunk in
    if jobs () <= 1 || n <= chunk then
      for i = 0 to n - 1 do
        body i
      done
    else begin
      let nchunks = (n + chunk - 1) / chunk in
      let futs =
        List.init nchunks (fun ci ->
            submit (fun () ->
                let hi = min n ((ci + 1) * chunk) - 1 in
                for i = ci * chunk to hi do
                  body i
                done))
      in
      List.iter Future.await futs
    end
  end

let parallel_map ?chunk f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let j = jobs () in
    if j <= 1 || n = 1 then Array.map f xs
    else begin
      let chunk =
        match chunk with
        | Some c -> max 1 c
        | None -> max 1 ((n + (4 * j) - 1) / (4 * j))
      in
      let out = Array.make n None in
      parallel_for ~chunk n (fun i -> out.(i) <- Some (f xs.(i)));
      Array.map (function Some v -> v | None -> assert false) out
    end
  end

(* --- background service domains --- *)

module Bg = struct
  type t = { stop_flag : bool Atomic.t; dom : unit Domain.t }

  (* Deliberately does not bump exec.domain_spawns: that counter means
     "pool workers created" (a test asserts it never moves mid-run),
     and it is embedded in traced-job replies — a service domain for
     the admin plane must not perturb job payloads. *)
  let spawn body =
    let stop_flag = Atomic.make false in
    let dom =
      Domain.spawn (fun () ->
          body ~should_stop:(fun () -> Atomic.get stop_flag))
    in
    { stop_flag; dom }

  let stop t = Atomic.set t.stop_flag true

  let join t =
    stop t;
    Domain.join t.dom
end
