(* The repository benchmark. One run measures one workload for about
   --seconds seconds, checks the program's outputs, prints every metric by
   name with its unit, and ends with one JSON line:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   With --trace 0 the metrics are the end-to-end ones (Obs off); with
   --trace 1 they are the per-layer ones, read from the program's own Obs
   spans and counters plus the benchmark's spans around each public call.
   Any failed check makes the exit code 1. See perfbench/README.md.

     bench.exe --workload flow_jpeg8|flow_jpeg16|serve_mix
               [--seed N] [--seconds S] [--trace 0|1] *)

module J = Obs.Json

(* --- statistics --- *)

(* linear interpolation between closest ranks *)
let quantile q = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort Float.compare xs) in
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float (floor h) in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let secs ns = Int64.to_float ns /. 1e9
let ms ns = Int64.to_float ns /. 1e6
let ratio a b = if b = 0. then 0. else a /. b

let timed f =
  let t0 = Obs.now_ns () in
  let r = f () in
  (r, Int64.sub (Obs.now_ns ()) t0)

(* --- metrics --- *)

type metric = { name : string; value : float; unit_ : string }

let end_to_end =
  [ "setup_s"; "flow_s"; "jobs_per_s"; "job_p50_ms"; "job_p90_ms";
    "dm1"; "via12"; "rwl_um" ]

let per_layer =
  [ "netlist.generate_s"; "place.global_s"; "place.row_opt_s";
    "route.s"; "route.initial_s"; "route.subnets";
    "route.astar_pushes_per_subnet"; "route.attempts_per_subnet";
    "route.sharded_net_frac"; "route.minor_words_per_subnet";
    "route.ripup_s"; "route.ripup_nets"; "route.overflow_edges";
    "vm1opt.s"; "vm1opt.iterations"; "distopt.extract_s"; "distopt.solve_s";
    "distopt.commit_s"; "distopt.windows"; "distopt.moves";
    "distopt.window_p50_ms"; "distopt.window_max_ms";
    "distopt.minor_words_per_window"; "wcache.hit_ratio"; "wcache.hits";
    "wcache.probes"; "metrics.s"; "sta.s"; "serve.prepare_ms_p50";
    "serve.external_prepare_ms_p50"; "serve.queue_ms_p50";
    "serve.execute_ms_p50"; "serve.execute_ms_p90"; "serve.hol_wait_ms_p50";
    "serve.artifact_hit_ratio"; "serve.artifact_hits";
    "serve.artifact_probes"; "exec.busy_frac"; "gc.minor_words";
    "gc.major_collections"; "gc.peak_heap_mb"; "trace.overhead_frac" ]

(* Per-layer samples, one per traced operation (one per external netlist
   for the serve_mix input layers), reduced by median — or by max / p90
   for the metrics named so. *)
type layers = (string, string * float list) Hashtbl.t

let record (t : layers) name unit_ v =
  let u, l = Option.value ~default:(unit_, []) (Hashtbl.find_opt t name) in
  Hashtbl.replace t name (u, v :: l)

let reduce name samples =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_max_ms" then List.fold_left Float.max neg_infinity samples
  else if ends "_p90" then quantile 0.9 samples
  else median samples

(* --- reading the program's observability state --- *)

let span_total (snap : Obs.snapshot) name =
  match List.assoc_opt name (Obs.aggregate_spans snap.Obs.spans) with
  | Some a -> secs a.Obs.total_ns
  | None -> 0.

(* every span called [name], in start order, as seconds *)
let span_durations (snap : Obs.snapshot) name =
  let rec go acc (s : Obs.Span.t) =
    let acc =
      if s.Obs.Span.name = name then secs (Obs.Span.duration_ns s) :: acc
      else acc
    in
    List.fold_left go acc s.Obs.Span.children
  in
  List.rev (List.fold_left go [] snap.Obs.spans)

let counter (snap : Obs.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Obs.counters))

let gauge (snap : Obs.snapshot) name =
  Option.value ~default:0. (List.assoc_opt name snap.Obs.gauges)

(* The layers both kinds of workload run (route, vm1, sta), from one
   operation's snapshot. *)
let record_core_layers layers snap =
  let c = counter snap and s = span_total snap and r = record layers in
  let subnets = c "route.subnets" in
  r "route.s" "s" (s "route");
  r "route.initial_s" "s" (s "route.initial");
  r "route.ripup_s" "s" (s "route.ripup");
  r "route.subnets" "count" subnets;
  r "route.astar_pushes_per_subnet" "count" (ratio (c "route.bq_pushes") subnets);
  r "route.attempts_per_subnet" "count"
    (ratio (c "route.subnet_attempts") subnets);
  r "route.sharded_net_frac" "frac"
    (ratio (c "route.shard_nets")
       (c "route.shard_nets" +. c "route.deferred_nets"));
  r "route.minor_words_per_subnet" "words"
    (gauge snap "route.minor_words_per_subnet");
  r "route.ripup_nets" "count" (c "route.ripup_nets");
  r "vm1opt.s" "s" (s "vm1opt.run");
  r "vm1opt.iterations" "count" (c "vm1opt.iterations");
  r "distopt.extract_s" "s" (s "distopt.extract");
  r "distopt.solve_s" "s" (s "distopt.solve");
  r "distopt.commit_s" "s" (s "distopt.commit");
  r "distopt.windows" "count" (c "scp.windows_solved");
  r "distopt.moves" "count" (c "scp.moves");
  let windows = List.map (fun x -> x *. 1e3) (span_durations snap "distopt.window") in
  r "distopt.window_p50_ms" "ms" (median windows);
  r "distopt.window_max_ms" "ms" (List.fold_left Float.max 0. windows);
  r "distopt.minor_words_per_window" "words"
    (gauge snap "distopt.minor_words_per_window");
  let hits = c "distopt.wcache_hits" and misses = c "distopt.wcache_misses" in
  r "wcache.hits" "count" hits;
  r "wcache.probes" "count" (hits +. misses);
  r "wcache.hit_ratio" "frac" (ratio hits (hits +. misses));
  r "metrics.s" "s" (s "route.metrics");
  r "sta.s" "s" (s "sta.analyze")

(* OCaml 5 folds a joined domain's counts into these totals *)
let gc_words () = (Gc.quick_stat ()).Gc.minor_words
let gc_majors () = (Gc.quick_stat ()).Gc.major_collections

let record_gc layers (words0, majors0) =
  record layers "gc.minor_words" "words" (gc_words () -. words0);
  record layers "gc.major_collections" "count"
    (float_of_int (gc_majors () - majors0))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* --- the repetition loop shared by every workload --- *)

(* What one repetition's checks found: [attempted] operations, of which
   [failed] failed a check, described by [problems]. *)
type verdict = { attempted : int; failed : int; problems : string list }

type rep = { setup_ns : int64; op_ns : int64; traced : bool; verdict : verdict }

(* Repeats set-up (timed), operation (timed) and checks (untimed) until
   the measured time reaches [seconds] and at least [min_reps] ran. [op]
   returns its checks as a closure, run after Obs is switched off. In a
   traced run every other repetition runs with Obs off, so the per-layer
   numbers carry their own tracing-overhead baseline; [traced_first]
   says whether the even or the odd repetitions are traced. Set-up then
   runs on its own until there are [min_setups] set-up samples. *)
let repeat ~seconds ~trace ~traced_first ~min_reps ~min_setups ~setup ~op =
  let budget = Int64.of_float (seconds *. 1e9) in
  let rec go i spent acc =
    if i >= min_reps && spent >= budget then List.rev acc
    else begin
      let traced = trace && (i mod 2 = 0) = traced_first in
      Obs.reset ();
      Obs.set_enabled traced;
      let input, setup_ns = timed setup in
      let check, op_ns = timed (fun () -> op ~traced input) in
      Obs.set_enabled false;
      let verdict = check () in
      Printf.printf "repetition %d%s: set-up %.3f s, measured %.3f s\n%!" i
        (if traced then " (traced)" else "") (secs setup_ns) (secs op_ns);
      let spent = Int64.add spent (Int64.add setup_ns op_ns) in
      go (i + 1) spent ({ setup_ns; op_ns; traced; verdict } :: acc)
    end
  in
  let reps = go 0 0L [] in
  let extra =
    List.init (max 0 (min_setups - List.length reps)) (fun _ -> snd (timed setup))
  in
  (reps, List.map (fun r -> r.setup_ns) reps @ extra)

(* --- correctness digests --- *)

let placement_def (p : Place.Placement.t) =
  Io.Def.write p.Place.Placement.design (Place.Placement.to_def p)

let route_digest (r : Route.Router.result) =
  let b = Buffer.create (1 lsl 16) in
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      Buffer.add_string b (string_of_int nr.Route.Router.net_id);
      Array.iter
        (fun (s : Route.Router.subnet) ->
          Buffer.add_char b (if s.Route.Router.routed then '+' else '-');
          Array.iter
            (fun e ->
              Buffer.add_string b (string_of_int e);
              Buffer.add_char b ',')
            s.Route.Router.path)
        nr.Route.Router.subnets;
      Buffer.add_char b ';')
    r.Route.Router.routes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- flow_jpeg8 / flow_jpeg16 --- *)

(* What [vm1opt -d jpeg --scale S --jobs 1] runs after set-up:
   evaluate -> VM1Opt (greedy) -> evaluate. *)
let run_flow p =
  let params = Vm1.Params.default p.Place.Placement.tech in
  let init, clock_ps =
    Obs.with_span "bench.evaluate" (fun () -> Report.Flow.evaluate params p)
  in
  let config = { Vm1.Vm1_opt.default_config with Vm1.Vm1_opt.mode = `Greedy } in
  ignore (Obs.with_span "bench.vm1opt" (fun () -> Vm1.Vm1_opt.run ~config params p));
  let final, _ =
    Obs.with_span "bench.evaluate" (fun () ->
        Report.Flow.evaluate ~clock_ps params p)
  in
  (init, final)

(* Check.placement and Check.route_result on the final placement and a
   re-route of it; the re-route's QoR must be the flow's; the placement
   must come back unchanged through the external-DEF path of the daemon;
   the placement+route digest must equal the first repetition's. *)
let check_flow ~reference ~on_external (p : Place.Placement.t)
    (final : Report.Flow.eval) =
  let problems = ref [] in
  let fail msg = problems := msg :: !problems in
  List.iter (fun e -> fail ("placement: " ^ e)) (Check.placement p);
  let rr = Route.Router.route p in
  List.iter (fun e -> fail ("route: " ^ e)) (Check.route_result rr);
  let s = Route.Metrics.summarize rr in
  if
    s.Route.Metrics.dm1 <> final.Report.Flow.dm1
    || s.via12 <> final.via12 || s.drvs <> final.drvs
    || s.rwl_um <> final.rwl_um
  then fail "route: the re-route's QoR differs from the flow's";
  let def_text = placement_def p in
  let lib = p.Place.Placement.design.Netlist.Design.lib in
  (match
     timed (fun () ->
         Serve.Cache.external_placement (Serve.Cache.create ()) ~lib
           ~arch:Inputs.arch ~def_text)
   with
   | Ok (q, _), ns ->
     on_external ns;
     if placement_def q <> def_text then
       fail "io: the final placement does not survive the DEF codec"
   | Error e, _ -> fail ("io: " ^ e));
  let digest = Digest.to_hex (Digest.string def_text) ^ route_digest rr in
  (match !reference with
   | None -> reference := Some digest
   | Some d when d <> digest ->
     fail "determinism: placement+route digest differs across repetitions"
   | Some _ -> ());
  let failed = if !problems = [] then 0 else 1 in
  { attempted = 1; failed; problems = List.rev !problems }

let flow_workload ~scale ~seed ~seconds ~trace =
  Exec.set_jobs 1;
  let layers : layers = Hashtbl.create 64 in
  let qor = ref None and reference = ref None in
  let setup () =
    let design =
      Obs.with_span "bench.generate" (fun () ->
          Inputs.jpeg_netlist (Inputs.library ()) ~seed ~scale)
    in
    Obs.with_span "bench.prepare_placement" (fun () ->
        Report.Flow.prepare_placement design)
  in
  let op ~traced p =
    let t_enter = Obs.now_ns () in
    let gc0 = (gc_words (), gc_majors ()) in
    let t_start = Obs.now_ns () in
    let init, final = run_flow p in
    let t_end = Obs.now_ns () in
    qor := Some (init, final);
    let t_out = Obs.now_ns () in
    let flow_ns = Int64.sub t_end t_start in
    if traced then begin
      let snap = Obs.snapshot () and r = record layers in
      let gen = span_total snap "bench.generate" in
      let prep = span_total snap "bench.prepare_placement" in
      let glob = span_total snap "place.global" in
      r "netlist.generate_s" "s" gen;
      r "place.global_s" "s" glob;
      r "place.row_opt_s" "s" (prep -. glob);
      record_core_layers layers snap;
      r "route.overflow_edges" "count" (gauge snap "route.overflow_edges");
      record_gc layers gc0;
      (* a flow is one job run inline: its prepare is the set-up, its
         execute the flow, it shares no artifact, and its queue and
         head-of-line waits are the sequential hand-offs around the flow *)
      r "serve.prepare_ms_p50" "ms" ((gen +. prep) *. 1e3);
      r "serve.queue_ms_p50" "ms" (ms (Int64.sub t_start t_enter));
      r "serve.hol_wait_ms_p50" "ms" (ms (Int64.sub t_out t_end));
      r "serve.execute_ms_p50" "ms" (ms flow_ns);
      r "serve.execute_ms_p90" "ms" (ms flow_ns);
      r "serve.artifact_hit_ratio" "frac" 0.;
      r "serve.artifact_hits" "count" 0.;
      r "serve.artifact_probes" "count" 0.
    end;
    fun () ->
      check_flow ~reference p final ~on_external:(fun ns ->
          if traced then record layers "serve.external_prepare_ms_p50" "ms" (ms ns))
  in
  (* the first repetition is cold, so a traced run traces the second and
     compares it with an untraced third *)
  let min_reps = if trace then 3 else 2 in
  let reps, setups =
    repeat ~seconds ~trace ~traced_first:false ~min_reps ~min_setups:5 ~setup ~op
  in
  let init, final = Option.get !qor in
  Printf.printf
    "flow_jpeg%d seed %d: dM1 %d -> %d, via12 %d -> %d, RWL %.1f -> %.1f, \
     DRVs %d -> %d\n"
    scale seed init.Report.Flow.dm1 final.Report.Flow.dm1 init.via12
    final.via12 init.rwl_um final.rwl_um init.drvs final.drvs;
  let untraced = List.filter (fun r -> not r.traced) reps in
  let flow = List.map (fun r -> secs r.op_ns) untraced in
  (* a job is a cold one-shot run: set-up plus flow *)
  let job = List.map (fun r -> secs (Int64.add r.setup_ns r.op_ns)) untraced in
  let traced = List.filter (fun r -> r.traced) reps in
  if traced <> [] then begin
    let busy = List.map (fun r -> secs r.op_ns) traced in
    let wall = List.map (fun r -> secs (Int64.add r.setup_ns r.op_ns)) traced in
    record layers "exec.busy_frac" "frac" (sum busy /. sum wall);
    let warm = List.map (fun r -> secs r.op_ns) (List.tl untraced) in
    record layers "trace.overhead_frac" "frac" ((median busy /. median warm) -. 1.)
  end;
  let e2e =
    [
      ("setup_s", "s", median (List.map secs setups));
      ("flow_s", "s", median flow);
      ("jobs_per_s", "1/s", float_of_int (List.length job) /. sum job);
      ("job_p50_ms", "ms", median job *. 1e3);
      ("job_p90_ms", "ms", quantile 0.9 job *. 1e3);
      ("dm1", "count", float_of_int final.dm1);
      ("via12", "count", float_of_int final.via12);
      ("rwl_um", "um", final.rwl_um);
      ("drvs", "count", float_of_int final.drvs);
    ]
  in
  (reps, e2e, layers)

(* --- serve_mix --- *)

type served = { pulled_ns : int64; mutable emitted_ns : int64; mutable reply : string }

(* Feeds [lines] to the daemon loop as its backpressure pulls them and
   stamps each line's pull and the emission of its reply. *)
let serve_lines ?telemetry cache lines =
  let pending = ref lines and open_ = Queue.create () and served = ref [] in
  let next_line () =
    match !pending with
    | [] -> None
    | l :: rest ->
      pending := rest;
      let s = { pulled_ns = Obs.now_ns (); emitted_ns = 0L; reply = "" } in
      served := s :: !served;
      Queue.push s open_;
      Some l
  in
  let emit reply =
    let s = Queue.pop open_ in
    s.emitted_ns <- Obs.now_ns ();
    s.reply <- reply
  in
  let stats = Serve.Daemon.serve ?telemetry cache ~next_line ~emit () in
  (stats, List.rev !served)

let num = function
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> 0.

(* The daemon-side split of each job from the telemetry job log: artifact
   resolution on the submitting domain (reply latency minus execute),
   queue wait, execute, and head-of-line wait for the in-order emission. *)
let record_serve_layers layers ~pass_ns ~jobs (tel : Serve.Telemetry.t)
    (parsed : (served * Serve.Protocol.parsed_reply) list) =
  let records =
    match J.member "recent" (Serve.Telemetry.handle tel "jobs") with
    | Some (J.List l) -> l
    | _ -> []
  in
  let r = record layers in
  let executes = ref [] in
  List.iter2
    (fun (s, (reply : Serve.Protocol.parsed_reply)) rec_ ->
      let queue = num (J.member "queue_ms" rec_) in
      let execute = num (J.member "execute_ms" rec_) in
      let latency = Option.value ~default:execute reply.Serve.Protocol.p_latency_ms in
      let resolve = Float.max 0. (latency -. execute) in
      executes := execute :: !executes;
      r "serve.prepare_ms_p50" "ms" resolve;
      if J.member "source" rec_ = Some (J.Str "external-inline") then
        r "serve.external_prepare_ms_p50" "ms" resolve;
      r "serve.queue_ms_p50" "ms" (Float.max 0. (queue -. resolve));
      r "serve.execute_ms_p50" "ms" execute;
      r "serve.execute_ms_p90" "ms" execute;
      r "serve.hol_wait_ms_p50" "ms"
        (Float.max 0. (ms (Int64.sub s.emitted_ns s.pulled_ns) -. queue -. execute)))
    parsed records;
  r "exec.busy_frac" "frac" (sum !executes /. (ms pass_ns *. float_of_int jobs));
  let probes =
    List.concat_map (fun (_, p) -> p.Serve.Protocol.p_cache) parsed
  in
  let hits = float_of_int (List.length (List.filter snd probes)) in
  let total = float_of_int (List.length probes) in
  r "serve.artifact_hits" "count" hits;
  r "serve.artifact_probes" "count" total;
  r "serve.artifact_hit_ratio" "frac" (ratio hits total)

(* Every reply is ok and in request order, and every repetition of a
   spec — within a pass or across passes — got byte-identical result
   bytes. Returns the verdict and the summed final QoR of the pass. *)
let check_serve ~payloads (mix : Inputs.job list) served =
  let problems = ref [] and failed = ref 0 in
  let dm1 = ref 0. and via12 = ref 0. and rwl = ref 0. and drvs = ref 0. in
  List.iter2
    (fun (job : Inputs.job) s ->
      let fail msg =
        incr failed;
        problems := Printf.sprintf "%s: %s" job.Inputs.id msg :: !problems
      in
      match Serve.Protocol.parse_reply s.reply with
      | Ok { Serve.Protocol.p_status = "ok"; p_id = Some id; p_result = Some res; _ }
        when id = job.Inputs.id -> (
        let payload = J.to_string res in
        (match Hashtbl.find_opt payloads job.Inputs.spec with
         | None -> Hashtbl.replace payloads job.Inputs.spec payload
         | Some p when p <> payload -> fail "repeated spec, different result"
         | Some _ -> ());
        match J.member "final" res with
        | Some final ->
          let get k = num (J.member k final) in
          dm1 := !dm1 +. get "dm1";
          via12 := !via12 +. get "via12";
          rwl := !rwl +. get "rwl_um";
          drvs := !drvs +. get "drvs"
        | None -> fail "no final QoR")
      | _ -> fail ("not an ok reply in order: " ^ s.reply))
    mix served;
  ( { attempted = List.length mix; failed = !failed; problems = List.rev !problems },
    (!dm1, !via12, !rwl, !drvs) )

let serve_workload ~seed ~seconds ~trace =
  let layers : layers = Hashtbl.create 64 in
  Obs.reset ();
  Obs.set_enabled trace;
  let mix, input_times = Inputs.serve_mix ~seed in
  Obs.set_enabled false;
  if trace then begin
    (* the input layers, from building the external jobs' placements *)
    let glob = Array.of_list (span_durations (Obs.snapshot ()) "place.global") in
    List.iteri
      (fun i (gen_ns, prep_ns) ->
        let g = if i < Array.length glob then glob.(i) else 0. in
        record layers "netlist.generate_s" "s" (secs gen_ns);
        record layers "place.global_s" "s" g;
        record layers "place.row_opt_s" "s" (secs prep_ns -. g))
      input_times
  end;
  let lines = List.map (fun (j : Inputs.job) -> j.Inputs.line) mix in
  let jobs = 2 in
  let payloads = Hashtbl.create 128 in
  let latencies = ref [] and flows = ref [] and walls = ref [] in
  let traced_jps = ref [] and qor = ref (0., 0., 0., 0.) in
  let setup () =
    Exec.set_jobs jobs;
    let cache = Serve.Cache.create () in
    let stats, _ = serve_lines cache [ Inputs.warmup_line ] in
    if stats.Serve.Daemon.ok <> 1 then failwith "serve_mix: the warm-up job failed";
    cache
  in
  let op ~traced cache =
    let telemetry =
      if traced then Some (Serve.Telemetry.create ~ring_capacity:(List.length mix) ())
      else None
    in
    (* the trace covers the pass only, not the set-up's warm-up job *)
    Obs.reset ();
    let gc0 = (gc_words (), gc_majors ()) in
    let (_, served), pass_ns =
      timed (fun () ->
          Obs.with_span "bench.serve" (fun () -> serve_lines ?telemetry cache lines))
    in
    (* stop the pool: its domains' allocation joins the GC totals, and
       the next set-up starts it again *)
    Exec.shutdown ();
    let parsed =
      List.filter_map
        (fun s ->
          Result.to_option (Serve.Protocol.parse_reply s.reply)
          |> Option.map (fun p -> (s, p)))
        served
    in
    let n = float_of_int (List.length served) in
    (match telemetry with
     | Some tel ->
       let snap = Obs.snapshot () in
       record_core_layers layers snap;
       record_gc layers gc0;
       if List.length parsed = List.length served then
         record_serve_layers layers ~pass_ns ~jobs tel parsed;
       traced_jps := (n /. secs pass_ns) :: !traced_jps
     | None ->
       walls := secs pass_ns :: !walls;
       List.iter
         (fun s -> latencies := ms (Int64.sub s.emitted_ns s.pulled_ns) :: !latencies)
         served;
       List.iter
         (fun (_, p) ->
           Option.iter
             (fun l -> flows := (l /. 1e3) :: !flows)
             p.Serve.Protocol.p_latency_ms)
         parsed);
    fun () ->
      let verdict, q = check_serve ~payloads mix served in
      qor := q;
      verdict
  in
  let reps, setups =
    (* The main domain's window cache (the daemon's per-domain Wcache)
       outlives a pass, so the traced pass runs first, as cold as an
       untraced run's; set-up is ~0.1 s, so it is sampled more often. *)
    repeat ~seconds ~trace ~traced_first:true
      ~min_reps:(if trace then 2 else 1) ~min_setups:9 ~setup ~op
  in
  Exec.shutdown ();
  let dm1, via12, rwl, drvs = !qor in
  let jps = float_of_int (List.length !latencies) /. sum !walls in
  if !traced_jps <> [] then
    record layers "trace.overhead_frac" "frac" ((jps /. median !traced_jps) -. 1.);
  record layers "route.overflow_edges" "count" drvs;
  let e2e =
    [
      ("setup_s", "s", median (List.map secs setups));
      ("flow_s", "s", median !flows);
      ("jobs_per_s", "1/s", jps);
      ("job_p50_ms", "ms", median !latencies);
      ("job_p90_ms", "ms", quantile 0.9 !latencies);
      ("dm1", "count", dm1);
      ("via12", "count", via12);
      ("rwl_um", "um", rwl);
      ("drvs", "count", drvs);
    ]
  in
  (reps, e2e, layers)

(* --- command line and report --- *)

let () =
  let workload = ref "" and seed = ref Inputs.default_seed in
  let seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME flow_jpeg8 | flow_jpeg16 | serve_mix");
      ("--seed", Arg.Set_int seed, "N workload seed (default 37, jpeg's own)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let reps, e2e, layers =
    match !workload with
    | "flow_jpeg8" -> flow_workload ~scale:8 ~seed ~seconds ~trace
    | "flow_jpeg16" -> flow_workload ~scale:16 ~seed ~seconds ~trace
    | "serve_mix" -> serve_workload ~seed ~seconds ~trace
    | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2
  in
  (* the GC's top heap over the whole run: steady on the flows, but it
     swings by 2x across serve_mix runs, so it carries no bound *)
  let peak = peak_heap_mb () in
  record layers "gc.peak_heap_mb" "MB" peak;
  let e2e = e2e @ [ ("peak_heap_mb", "MB", peak) ] in
  let attempted = List.fold_left (fun a r -> a + r.verdict.attempted) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.verdict.failed) 0 reps in
  List.iter (fun r -> List.iter (Printf.printf "FAILED %s\n") r.verdict.problems) reps;
  Printf.printf "cores %d, repetitions %d, attempted %d, failed %d, failed_frac %g\n"
    (Domain.recommended_domain_count ()) (List.length reps) attempted failed
    (float_of_int failed /. float_of_int attempted);
  let metrics =
    if trace then
      List.map
        (fun name ->
          match Hashtbl.find_opt layers name with
          | Some (unit_, samples) -> { name; value = reduce name samples; unit_ }
          | None -> { name; value = nan; unit_ = "" })
        per_layer
    else
      List.map
        (fun (name, unit_, value) ->
          Printf.printf "%-14s %14.6g %s\n" name value unit_;
          { name; value; unit_ })
        e2e
      |> List.filter (fun m -> List.mem m.name end_to_end)
  in
  if trace then
    List.iter (fun m -> Printf.printf "%-32s %14.6g %s\n" m.name m.value m.unit_) metrics;
  (* a metric the run could not measure is a failed check too *)
  let unmeasured = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter (fun m -> Printf.printf "FAILED metric %s not measured\n" m.name) unmeasured;
  let correct = failed = 0 && unmeasured = [] in
  let json =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   J.Obj
                     [
                       ("value", J.Float (if Float.is_finite m.value then m.value else 0.));
                       ("unit", J.Str m.unit_);
                     ] ))
               metrics) );
      ]
  in
  print_endline (J.to_string json);
  exit (if correct then 0 else 1)
