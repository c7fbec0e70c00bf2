(* Offline trace analytics over vm1dp-trace/1 files (see lib/trace):
     report        aggregated per-span profile + counters/gauges/histograms
     critical-path the wall-clock chain that bounded the run
     diff          regression gate between two traces (tolerance bands)
     flame         folded-stack / speedscope export
     attribute     per-window QoR table + congestion heatmap + net rows
     top           live vm1d admin-socket report (or a saved metrics reply)

   Exit status mirrors drc: 0 = clean, 1 = regression found (diff only),
   2 = unreadable input / usage error. *)

open Cmdliner

(* plain string, not Arg.file: a missing file must flow through
   Model.load so every unreadable input exits 2, not cmdliner's 124 *)
let trace_file ~docv n =
  Arg.(required & pos n (some string) None & info [] ~docv
         ~doc:"Trace file written by --trace (vm1dp-trace/1 JSON).")

let json_flag =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit machine-readable JSON instead of tables.")

let ignore_prefixes =
  Arg.(value & opt_all string [] & info [ "ignore" ] ~docv:"PREFIX"
         ~doc:"Drop spans/metrics whose name starts with $(docv) before              analyzing (children are spliced into the parent). Repeatable.              Use $(b,--ignore exec.) to hide the nondeterministic              scheduling wrappers.")

let out_file =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
         ~doc:"Write output to $(docv) instead of stdout.")

let load path =
  match Trace.Model.load path with
  | Ok t -> Ok t
  | Error msg ->
    Printf.eprintf "vm1trace: %s\n" msg;
    Error 2

let with_out out f =
  match out with
  | None -> f stdout
  | Some path ->
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let ms ns = float_of_int ns /. 1e6

(* --- report --------------------------------------------------------- *)

let print_report oc (t : Trace.Model.t) ~top =
  Printf.fprintf oc "wall %.3f ms, %d roots\n\n" (ms (Trace.Model.wall_ns t))
    (List.length t.spans);
  output_string oc (Trace.Profile.to_text ~top t)

let top_arg =
  Arg.(value & opt int 0 & info [ "top" ] ~docv:"N"
         ~doc:"Show only the $(docv) hottest spans (0 = all).")

let run_report file json ignores top out =
  match load file with
  | Error e -> e
  | Ok t ->
    let t = Trace.Model.prune ~prefixes:ignores t in
    with_out out (fun oc ->
        if json then
          output_string oc (Obs.Json.to_string (Trace.Profile.to_json t) ^ "\n")
        else print_report oc t ~top);
    0

(* --- critical-path -------------------------------------------------- *)

let run_critical_path file json ignores out =
  match load file with
  | Error e -> e
  | Ok t ->
    let t = Trace.Model.prune ~prefixes:ignores t in
    let steps = Trace.Critical_path.compute t in
    with_out out (fun oc ->
        if json then begin
          let step (s : Trace.Critical_path.step) =
            Obs.Json.Obj
              [
                ("name", Obs.Json.Str s.name);
                ("depth", Obs.Json.Int s.depth);
                ("start_ns", Obs.Json.Int s.start_ns);
                ("end_ns", Obs.Json.Int s.end_ns);
                ("self_ns", Obs.Json.Int s.self_ns);
              ]
          in
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ( "total_ns",
                      Obs.Json.Int (Trace.Critical_path.total_ns steps) );
                    ("steps", Obs.Json.List (List.map step steps));
                  ])
            ^ "\n")
        end
        else begin
          Printf.fprintf oc
            "critical path: %.3f ms of %.3f ms wall (%d steps)\n"
            (ms (Trace.Critical_path.total_ns steps))
            (ms (Trace.Model.wall_ns t))
            (List.length steps);
          List.iter
            (fun (s : Trace.Critical_path.step) ->
              Printf.fprintf oc "%s%-*s %10.3f ms  (self %.3f ms)\n"
                (String.concat ""
                   (List.init s.depth (fun _ -> "  ")))
                (max 1 (30 - (2 * s.depth)))
                s.name
                (ms (s.end_ns - s.start_ns))
                (ms s.self_ns))
            steps
        end);
    0

(* --- diff ----------------------------------------------------------- *)

let time_rel =
  Arg.(value & opt float Trace.Diff.default.time_rel
       & info [ "time-rel" ] ~docv:"FRAC"
           ~doc:"Relative tolerance on per-span total time.")

let time_abs_ms =
  Arg.(value & opt float 50.0 & info [ "time-abs-ms" ] ~docv:"MS"
         ~doc:"Absolute slack on per-span total time, milliseconds.")

let gauge_rel =
  Arg.(value & opt float Trace.Diff.default.gauge_rel
       & info [ "gauge-rel" ] ~docv:"FRAC"
           ~doc:"Relative tolerance on gauges and histogram sums.")

let gauge_abs =
  Arg.(value & opt float Trace.Diff.default.gauge_abs
       & info [ "gauge-abs" ] ~docv:"X"
           ~doc:"Absolute slack on gauges and histogram sums.")

let alloc_rel =
  Arg.(value & opt float Trace.Diff.default.alloc_rel
       & info [ "alloc-rel" ] ~docv:"FRAC"
           ~doc:"Relative tolerance on allocation gauges (any gauge whose              name contains minor_words); an allocation regression past              the band fails the diff.")

let alloc_abs =
  Arg.(value & opt float Trace.Diff.default.alloc_abs
       & info [ "alloc-abs" ] ~docv:"WORDS"
           ~doc:"Absolute slack on allocation gauges, in words.")

let run_diff baseline current json ignores time_rel time_abs_ms gauge_rel
    gauge_abs alloc_rel alloc_abs =
  match (load baseline, load current) with
  | Error e, _ | _, Error e -> e
  | Ok b, Ok c ->
    let config =
      {
        Trace.Diff.time_rel;
        time_abs_ns = int_of_float (time_abs_ms *. 1e6);
        gauge_rel;
        gauge_abs;
        alloc_rel;
        alloc_abs;
        ignore_prefixes = ignores;
      }
    in
    let v = Trace.Diff.run config ~baseline:b ~current:c in
    let sev_str = function
      | Trace.Diff.Structure -> "structure"
      | Trace.Diff.Regression -> "regression"
      | Trace.Diff.Info -> "info"
    in
    if json then
      print_string
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("pass", Obs.Json.Bool v.pass);
                ( "issues",
                  Obs.Json.List
                    (List.map
                       (fun (i : Trace.Diff.issue) ->
                         Obs.Json.Obj
                           [
                             ("severity", Obs.Json.Str (sev_str i.severity));
                             ("what", Obs.Json.Str i.what);
                           ])
                       v.issues) );
              ])
        ^ "\n")
    else begin
      List.iter
        (fun (i : Trace.Diff.issue) ->
          Printf.printf "%-10s %s\n" (sev_str i.severity) i.what)
        v.issues;
      Printf.printf "%s: %s vs %s (%d issues)\n"
        (if v.pass then "PASS" else "FAIL")
        baseline current (List.length v.issues)
    end;
    if v.pass then 0 else 1

(* --- flame ---------------------------------------------------------- *)

let flame_format =
  Arg.(value & opt (enum [ ("folded", `Folded); ("speedscope", `Speedscope) ])
         `Folded
       & info [ "format"; "f" ] ~docv:"FMT"
           ~doc:"Output format: $(b,folded) (flamegraph.pl input) or              $(b,speedscope) (JSON for speedscope.app).")

let run_flame file format ignores out =
  match load file with
  | Error e -> e
  | Ok t ->
    let t = Trace.Model.prune ~prefixes:ignores t in
    with_out out (fun oc ->
        match format with
        | `Folded -> output_string oc (Trace.Export.folded t)
        | `Speedscope ->
          output_string oc
            (Obs.Json.to_string (Trace.Export.speedscope t) ^ "\n"));
    0

(* --- attribute ------------------------------------------------------ *)

let print_attribute oc (a : Trace.Attribute.t) =
  (match a.heatmap with
  | Some h -> output_string oc (Trace.Attribute.render_heatmap h)
  | None -> output_string oc "no route span with a heatmap in this trace\n");
  if a.windows <> [] then begin
    Printf.fprintf oc "\n%4s %4s %6s %6s %10s %8s %8s %9s\n" "ix" "iy"
      "solves" "moves" "dHPWL" "dAlign" "dOvl" "overflow";
    List.iter
      (fun (w : Trace.Attribute.window_row) ->
        Printf.fprintf oc "%4d %4d %6d %6d %10d %8d %8d %9d\n" w.ix w.iy
          w.solves w.moves w.d_hpwl_dbu w.d_align w.d_overlap w.overflow)
      a.windows
  end
  else
    output_string oc
      "no distopt.window spans in this trace (record with --trace and an\n\
       instrumented DistOpt run)\n";
  if a.nets <> [] then begin
    Printf.fprintf oc "\n%8s %10s %8s\n" "net" "overflow" "failed";
    List.iter
      (fun (n : Trace.Attribute.net_row) ->
        Printf.fprintf oc "%8d %10d %8d\n" n.net_id n.overflow
          n.failed_subnets)
      a.nets
  end

let run_attribute file json out =
  match load file with
  | Error e -> e
  | Ok t ->
    let a = Trace.Attribute.compute t in
    with_out out (fun oc ->
        if json then
          output_string oc
            (Obs.Json.to_string (Trace.Attribute.to_json a) ^ "\n")
        else print_attribute oc a);
    0

(* --- top -------------------------------------------------------------- *)

(* Live report over a vm1d admin endpoint: polls the `metrics` and
   `health` verbs (or reads one saved vm1dp-metrics/2 reply) and renders
   throughput, latency percentiles, cache hit rates, allocation gauges
   and the busiest spans. The cumulative block parses through
   Trace.Model's metric parser; --watch takes interval throughput and
   latency from Trace.Model.delta of consecutive scrapes. *)

module J = Obs.Json

exception Top_error of string

let top_fail fmt = Printf.ksprintf (fun m -> raise (Top_error m)) fmt

let socket_path =
  Arg.(value & opt (some string) None & info [ "socket"; "s" ]
         ~doc:"Poll the vm1d admin socket at $(docv) (the daemon's \
               --admin-socket path)." ~docv:"PATH")

let from_file =
  Arg.(value & opt (some string) None & info [ "from" ]
         ~doc:"Render a saved vm1dp-metrics/2 reply from $(docv) instead of \
               polling a socket (no health line)." ~docv:"FILE")

let watch =
  Arg.(value & opt float 0.0 & info [ "watch"; "w" ]
         ~doc:"Refresh every $(docv) seconds until interrupted, showing \
               throughput and latency since the previous poll (0 = render \
               once and exit). Socket mode only." ~docv:"SECS")

let top_spans =
  Arg.(value & opt int 8 & info [ "spans" ]
         ~doc:"Show the $(docv) busiest span names (0 hides the table)."
         ~docv:"N")

(* one parsed metrics reply (plus the health reply in socket mode) *)
type scrape = {
  uptime : float;
  metrics : Trace.Model.t;  (* the cumulative block *)
  span_rows : (string * int * float) list;  (* name, calls, total ms *)
  health : J.t option;
}

let num = function
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

let parse_doc what text =
  match J.parse text with
  | Ok j -> j
  | Error e -> top_fail "%s: %s" what e

let parse_scrape what ?health j =
  (match J.member "schema" j with
   | Some (J.Str s) when String.equal s Obs.Schemas.metrics -> ()
   | _ -> top_fail "%s: not a %s reply" what Obs.Schemas.metrics);
  let metrics =
    match Option.map Trace.Model.metrics_of_json (J.member "cumulative" j) with
    | Some (Ok m) -> m
    | Some (Error e) -> top_fail "%s: %s" what e
    | None -> top_fail "%s: no cumulative block" what
  in
  let span_rows =
    match J.member "spans" j with
    | Some (J.Obj rows) ->
      List.filter_map
        (fun (name, v) ->
          match (J.member "calls" v, num (J.member "total_ms" v)) with
          | Some (J.Int c), Some t -> Some (name, c, t)
          | _ -> None)
        rows
    | _ -> []
  in
  match num (J.member "uptime_s" j) with
  | Some uptime -> { uptime; metrics; span_rows; health }
  | None -> top_fail "%s: no uptime_s" what

let poll path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.connect sock (Unix.ADDR_UNIX path)
       with Unix.Unix_error (err, _, _) ->
         top_fail "cannot connect to %s: %s" path (Unix.error_message err));
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      let ask verb =
        match
          Out_channel.output_string oc (verb ^ "\n");
          Out_channel.flush oc;
          In_channel.input_line ic
        with
        | None | (exception Sys_error _) ->
          top_fail "admin endpoint closed mid-scrape"
        | Some line -> parse_doc ("admin " ^ verb ^ " reply") line
      in
      let metrics = ask "metrics" in
      let health = ask "health" in
      parse_scrape "admin metrics reply" ~health metrics)

let load_scrape path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> top_fail "%s" m
  | text -> parse_scrape path (parse_doc path text)

let fmt_opt fmt = function Some v -> Printf.sprintf fmt v | None -> "-"

let render ~top_spans ~prev cur =
  let b = Buffer.create 1024 in
  let m = cur.metrics in
  let counter name = List.assoc_opt name m.counters in
  let gauge name = List.assoc_opt name m.gauges in
  Printf.bprintf b "vm1d · uptime %.1f s · jobs %s (%s errors) · queue depth %s\n"
    cur.uptime
    (fmt_opt "%d" (counter "serve.jobs"))
    (fmt_opt "%d" (counter "serve.errors"))
    (fmt_opt "%.0f"
       (match cur.health with
        | Some h -> num (J.member "queue_depth" h)
        | None -> gauge "serve.queue_depth"));
  (* interval view against the previous poll, cumulative otherwise *)
  let interval =
    match prev with
    | Some p when cur.uptime > p.uptime ->
      Some (p, cur.uptime -. p.uptime, Trace.Model.delta ~before:p.metrics m)
    | _ -> None
  in
  let label, span_s, view =
    match interval with
    | Some (_, dt, d) -> (Printf.sprintf "last %.1fs" dt, dt, d)
    | None -> ("cumulative", cur.uptime, m)
  in
  Printf.bprintf b "  throughput (%s): %s job/s\n" label
    (fmt_opt "%.2f"
       (match List.assoc_opt "serve.jobs" view.counters with
        | Some j when span_s > 0.0 -> Some (float_of_int j /. span_s)
        | _ -> None));
  (match List.assoc_opt "serve.job_latency_ms" view.histograms with
   | Some h when h.count > 0 ->
     let p = Obs.Histogram.percentile h in
     Printf.bprintf b
       "  latency ms (%s): p50 %.1f  p90 %.1f  p99 %.1f  (n=%d)\n" label
       (p 0.50) (p 0.90) (p 0.99) h.count
   | _ -> Printf.bprintf b "  latency ms (%s): no samples\n" label);
  let rate name hits misses =
    let h = Option.value ~default:0 (counter hits)
    and n = Option.value ~default:0 (counter misses) in
    if h + n = 0 then name ^ " -"
    else
      Printf.sprintf "%s %.1f%% (%d/%d)" name
        (100.0 *. float_of_int h /. float_of_int (h + n))
        h (h + n)
  in
  Printf.bprintf b "  caches: %s   %s\n"
    (rate "artifact" "serve.cache_hits" "serve.cache_misses")
    (rate "result memo" "serve.result_hits" "serve.result_misses");
  Printf.bprintf b "  alloc: minor words/window %s   minor words/subnet %s\n"
    (fmt_opt "%.0f" (gauge "distopt.minor_words_per_window"))
    (fmt_opt "%.0f" (gauge "route.minor_words_per_subnet"));
  (* busiest spans, with call rates against the previous poll *)
  if top_spans > 0 && not (List.is_empty cur.span_rows) then begin
    let shown =
      List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a) cur.span_rows
      |> List.filteri (fun i _ -> i < top_spans)
    in
    Printf.bprintf b "  %-36s %10s %12s %10s\n" "span" "calls" "total ms"
      "calls/s";
    List.iter
      (fun (name, calls, total) ->
        let rate =
          match interval with
          | Some (p, dt, _) ->
            let before =
              match
                List.find_opt (fun (n, _, _) -> String.equal n name) p.span_rows
              with
              | Some (_, c, _) -> c
              | None -> 0
            in
            Printf.sprintf "%.1f" (float_of_int (calls - before) /. dt)
          | None -> "-"
        in
        Printf.bprintf b "  %-36s %10d %12.1f %10s\n" name calls total rate)
      shown
  end;
  Buffer.contents b

let run_top socket_path from_file watch top_spans =
  let fail m =
    Printf.eprintf "vm1trace top: %s\n%!" m;
    2
  in
  let once read =
    print_string (render ~top_spans ~prev:None (read ()));
    0
  in
  let rec loop path prev =
    let cur = poll path in
    (* clear screen + home, like top(1) *)
    print_string "\027[2J\027[H";
    print_string (render ~top_spans ~prev cur);
    flush stdout;
    Unix.sleepf watch;
    loop path (Some cur)
  in
  (* a daemon that goes away mid-scrape is an error reply, not SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    match (socket_path, from_file) with
    | Some path, None when watch > 0.0 -> loop path None
    | Some path, None -> once (fun () -> poll path)
    | None, Some file when watch <= 0.0 -> once (fun () -> load_scrape file)
    | None, Some _ -> fail "--watch needs --socket"
    | _ -> fail "pass exactly one of --socket or --from"
  with Top_error m -> fail m

(* --- command wiring -------------------------------------------------- *)

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"aggregated per-span profile of a trace")
    Term.(const run_report $ trace_file ~docv:"TRACE" 0 $ json_flag
          $ ignore_prefixes $ top_arg $ out_file)

let critical_path_cmd =
  Cmd.v
    (Cmd.info "critical-path"
       ~doc:"the wall-clock chain of spans that bounded the run")
    Term.(const run_critical_path $ trace_file ~docv:"TRACE" 0 $ json_flag
          $ ignore_prefixes $ out_file)

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"compare two traces; exit 1 when the second regresses")
    Term.(const run_diff $ trace_file ~docv:"BASELINE" 0
          $ trace_file ~docv:"CURRENT" 1 $ json_flag $ ignore_prefixes
          $ time_rel $ time_abs_ms $ gauge_rel $ gauge_abs $ alloc_rel
          $ alloc_abs)

let flame_cmd =
  Cmd.v
    (Cmd.info "flame" ~doc:"export folded stacks or speedscope JSON")
    Term.(const run_flame $ trace_file ~docv:"TRACE" 0 $ flame_format
          $ ignore_prefixes $ out_file)

let attribute_cmd =
  Cmd.v
    (Cmd.info "attribute"
       ~doc:"per-window QoR table, congestion heatmap and congested nets")
    Term.(const run_attribute $ trace_file ~docv:"TRACE" 0 $ json_flag
          $ out_file)

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:"live report over a vm1d admin socket (or a saved metrics \
             reply): throughput, latency, caches, busiest spans")
    Term.(const run_top $ socket_path $ from_file $ watch $ top_spans)

let cmd =
  Cmd.group
    (Cmd.info "vm1trace"
       ~doc:"analyze vm1dp-trace/1 trace files and live vm1d metrics")
    [ report_cmd; critical_path_cmd; diff_cmd; flame_cmd; attribute_cmd;
      top_cmd ]

let () = exit (Cmd.eval' cmd)
