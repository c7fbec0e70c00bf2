type stats = {
  jobs : int;
  ok : int;
  errors : int;
}

let c_jobs = Obs.counter "serve.jobs"
let c_errors = Obs.counter "serve.errors"
let g_depth = Obs.gauge "serve.queue_depth"

let serve ?max_in_flight ?default_solver ?telemetry cache ~next_line ~emit ()
    =
  (* applied after parsing so the per-request "solver" field still wins *)
  let apply_default (job : Protocol.job) =
    match (job.Protocol.solver, default_solver) with
    | None, Some _ -> { job with Protocol.solver = default_solver }
    | _ -> job
  in
  let cap =
    match max_in_flight with
    | Some n -> max 1 n
    | None -> max 2 (2 * Exec.jobs ())
  in
  (* in-flight replies, oldest first; emission order = request order.
     Each entry carries its submit timestamp and, for a pipelined job,
     its prepared form (the result memo is filled at flush, on this
     domain). The future yields
     (execution start, execution end, reply) so the flush side can
     split queue wait from execute time for the job log. *)
  let inflight :
      (int64
      * Engine.prepared option
      * (int64 * int64 * Protocol.reply) Exec.Future.t)
      Queue.t =
    Queue.create ()
  in
  let timed f () =
    let t_start = Obs.now_ns () in
    let reply = f () in
    (t_start, Obs.now_ns (), reply)
  in
  let jobs = ref 0 and ok = ref 0 and errors = ref 0 in
  let set_depth () =
    Obs.Gauge.set g_depth (float_of_int (Queue.length inflight))
  in
  let flush_one () =
    let t_submit, prep, fut = Queue.pop inflight in
    let t_start, t_end, reply = Exec.Future.await fut in
    Option.iter (fun p -> Engine.remember cache p reply) prep;
    set_depth ();
    (match reply with
    | Protocol.Ok _ -> incr ok
    | Protocol.Err _ ->
      incr errors;
      Obs.Counter.incr c_errors);
    Option.iter
      (fun tel ->
        Telemetry.record_job tel
          ~queue_ns:(Int64.sub t_start t_submit)
          ~exec_ns:(Int64.sub t_end t_start)
          reply)
      telemetry;
    emit (Protocol.encode_reply reply)
  in
  let drain () =
    while not (Queue.is_empty inflight) do
      flush_one ()
    done
  in
  (* the submit stamp is taken by the caller *before* the future is
     created — a pool worker can start the job before the push lands,
     and queue_ns must never go negative *)
  let push ?prep t_submit fut =
    Queue.push (t_submit, prep, fut) inflight;
    set_depth ();
    while Queue.length inflight > cap do
      flush_one ()
    done
  in
  let rec loop () =
    match next_line () with
    | None ->
      drain ();
      { jobs = !jobs; ok = !ok; errors = !errors }
    | Some line ->
      incr jobs;
      Obs.Counter.incr c_jobs;
      let t_submit = Obs.now_ns () in
      (match Result.map apply_default (Protocol.parse_job line) with
      | Error e ->
        push t_submit (Exec.Future.return (timed (fun () -> Protocol.Err e) ()))
      | Ok job when job.Protocol.want_trace ->
        (* serialisation point: the trace must contain this job's spans
           only, so nothing else may be running *)
        drain ();
        push t_submit
          (Exec.Future.return (timed (fun () -> Engine.run cache job) ()))
      | Ok job ->
        let prep = Engine.prepare cache job in
        let run = timed (fun () -> Engine.execute prep) in
        (* a memo hit is already answered: no pool round trip *)
        push ~prep t_submit
          (if Engine.memoised prep then Exec.Future.return (run ())
           else Exec.submit run));
      loop ()
  in
  loop ()
