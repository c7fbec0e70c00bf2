module J = Obs.Json

(* --- job records --- *)

type job_record = {
  jr_seq : int;
  jr_id : string option;
  jr_source : string;
  jr_design : string option;
  jr_solver : string option;
  jr_status : string;
  jr_error_code : string option;
  jr_digest : string option;
  jr_cache : (string * bool) list;
  jr_queue_ms : float;
  jr_execute_ms : float;
}

let job_record_json r =
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.joblog);
      ("seq", J.Int r.jr_seq);
      ("id", match r.jr_id with Some s -> J.Str s | None -> J.Null);
      ("source", J.Str r.jr_source);
      ("design", match r.jr_design with Some s -> J.Str s | None -> J.Null);
      ("solver", match r.jr_solver with Some s -> J.Str s | None -> J.Null);
      ("status", J.Str r.jr_status);
      ( "error_code",
        match r.jr_error_code with Some s -> J.Str s | None -> J.Null );
      ("digest", match r.jr_digest with Some s -> J.Str s | None -> J.Null);
      ("cache", J.Obj (List.map (fun (k, hit) -> (k, J.Bool hit)) r.jr_cache));
      ("queue_ms", J.Float r.jr_queue_ms);
      ("execute_ms", J.Float r.jr_execute_ms);
    ]

(* --- state --- *)

(* Per-span-name running totals, folded from snapshot deltas so a
   scrape is O(new spans), not O(history). *)
type span_tot = { mutable st_calls : int; mutable st_total_ns : int64 }

type t = {
  start_ns : int64;
  mutable seq : int;              (* serve-loop confined *)
  ring : job_record Obs.Ring.t;
  job_log : out_channel option;   (* serve-loop confined *)
  cursor : Obs.cursor;            (* admin-consumer confined *)
  span_aggs : (string, span_tot) Hashtbl.t;  (* admin-consumer confined *)
}

let default_ring_capacity = 64

let create ?(ring_capacity = default_ring_capacity) ?job_log () =
  {
    start_ns = Obs.now_ns ();
    seq = 0;
    ring = Obs.Ring.create ring_capacity;
    job_log;
    cursor = Obs.cursor ();
    span_aggs = Hashtbl.create 64;
  }

let close t = Option.iter close_out t.job_log

(* --- recording (serve loop side) --- *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

let source_kind (job : Protocol.job) =
  match job.Protocol.source with
  | Protocol.Generated _ -> "generated"
  | Protocol.External (Protocol.Inline _) -> "external-inline"
  | Protocol.External (Protocol.Path _) -> "external-path"

let record_of_reply t ~queue_ns ~exec_ns (reply : Protocol.reply) =
  t.seq <- t.seq + 1;
  let jr_queue_ms = ms_of_ns queue_ns
  and jr_execute_ms = ms_of_ns exec_ns in
  match reply with
  | Protocol.Ok { job; result; artifacts; _ } ->
    {
      jr_seq = t.seq;
      jr_id = Some job.Protocol.id;
      jr_source = source_kind job;
      jr_design = Some result.Protocol.r_design;
      jr_solver =
        Option.map Vm1.Scp_solver.mode_to_string job.Protocol.solver;
      jr_status = "ok";
      jr_error_code = None;
      jr_digest = Some result.Protocol.digest;
      jr_cache = artifacts;
      jr_queue_ms;
      jr_execute_ms;
    }
  | Protocol.Err e ->
    {
      jr_seq = t.seq;
      jr_id = e.Protocol.err_id;
      jr_source = "invalid";
      jr_design = None;
      jr_solver = None;
      jr_status = "error";
      jr_error_code = Some (Protocol.error_code_string e.Protocol.code);
      jr_digest = None;
      jr_cache = [];
      jr_queue_ms;
      jr_execute_ms;
    }

let record_job t ~queue_ns ~exec_ns reply =
  let r = record_of_reply t ~queue_ns ~exec_ns reply in
  Obs.Ring.push t.ring r;
  match t.job_log with
  | None -> ()
  | Some oc ->
    output_string oc (J.to_string (job_record_json r));
    output_char oc '\n';
    flush oc

(* --- admin views (read-only over Obs; never bumps a metric) --- *)

let uptime_s t ~now = Int64.to_float (Int64.sub now t.start_ns) /. 1e9

(* Fold spans completed since the previous scrape into the running
   per-name totals, then render every total. Hashtbl iteration order is
   unspecified, so the rows are collected and sorted by name. *)
let spans_json t (delta : Obs.snapshot) =
  List.iter
    (fun (name, agg) ->
      match Hashtbl.find_opt t.span_aggs name with
      | Some st ->
        st.st_calls <- st.st_calls + agg.Obs.calls;
        st.st_total_ns <- Int64.add st.st_total_ns agg.Obs.total_ns
      | None ->
        Hashtbl.add t.span_aggs name
          { st_calls = agg.Obs.calls; st_total_ns = agg.Obs.total_ns })
    (Obs.aggregate_spans delta.Obs.spans);
  J.Obj
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold
          (fun name st acc ->
            ( name,
              J.Obj
                [
                  ("calls", J.Int st.st_calls);
                  ("total_ms", J.Float (ms_of_ns st.st_total_ns));
                ] )
            :: acc)
          t.span_aggs []))

let metrics_json t =
  let now = Obs.now_ns () in
  (* one delta read: its metrics are cumulative, its spans are only the
     roots completed since the previous scrape *)
  let delta = Obs.snapshot_delta t.cursor in
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.metrics);
      ("uptime_s", J.Float (uptime_s t ~now));
      ("cumulative", Obs.metrics_json delta);
      ("spans", spans_json t delta);
    ]

let counter_value name = Obs.Counter.value (Obs.counter name)

let rate_json hits misses =
  let total = hits + misses in
  (* nan prints as null: no traffic yet means no rate, not 0% *)
  let rate =
    if total = 0 then Float.nan else float_of_int hits /. float_of_int total
  in
  J.Obj
    [ ("hits", J.Int hits); ("misses", J.Int misses); ("hit_rate", J.Float rate) ]

let health_json t =
  let now = Obs.now_ns () in
  let stat = Gc.quick_stat () in
  let cache_hits = counter_value "serve.cache_hits"
  and cache_misses = counter_value "serve.cache_misses"
  and result_hits = counter_value "serve.result_hits"
  and result_misses = counter_value "serve.result_misses" in
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.health);
      ("ready", J.Bool true);
      ("uptime_s", J.Float (uptime_s t ~now));
      ("jobs", J.Int (counter_value "serve.jobs"));
      ("errors", J.Int (counter_value "serve.errors"));
      ( "queue_depth",
        J.Float (Obs.Gauge.value (Obs.gauge "serve.queue_depth")) );
      ("pool_jobs", J.Int (Exec.jobs ()));
      ("artifact_cache", rate_json cache_hits cache_misses);
      ("result_memo", rate_json result_hits result_misses);
      ( "gc",
        J.Obj
          [
            ("minor_words", J.Float stat.Gc.minor_words);
            ("promoted_words", J.Float stat.Gc.promoted_words);
            ("major_words", J.Float stat.Gc.major_words);
            ("minor_collections", J.Int stat.Gc.minor_collections);
            ("major_collections", J.Int stat.Gc.major_collections);
            ("heap_words", J.Int stat.Gc.heap_words);
          ] );
    ]

let jobs_json t =
  let recent = Obs.Ring.to_list t.ring in
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.joblog);
      ("count", J.Int (List.length recent));
      ("recent", J.List (List.map job_record_json recent));
    ]

let handle t verb =
  match String.trim verb with
  | "metrics" -> metrics_json t
  | "health" -> health_json t
  | "jobs" -> jobs_json t
  | other ->
    J.Obj
      [
        ( "error",
          J.Str
            (Printf.sprintf "unknown admin verb %S (metrics|health|jobs)" other)
        );
      ]
