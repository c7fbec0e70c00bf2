(* Benchmark harness.

   Two halves:

   1. Regeneration: prints every table and figure of the paper's
      evaluation section (Fig. 5, Fig. 6, Fig. 7, Table 2, Fig. 8) at the
      configured scale, via the same Report.Expt drivers the expt CLI
      uses.

   2. Microbenchmarks: one Bechamel Test.make per table/figure measuring
      the representative kernel behind it, plus ablation benches for the
      design choices called out in DESIGN.md (greedy vs exact vs MILP
      window solver; dM1-aware routing on/off).

   Run with: dune exec bench/main.exe            (both halves)
             dune exec bench/main.exe -- tables  (regeneration only)
             dune exec bench/main.exe -- micro   (microbenchmarks only)

   The regeneration scale defaults to 16 (instance counts 1/16 of the
   paper's); set e.g. VM1DP_BENCH_SCALE=8 for larger runs. *)

open Bechamel
open Toolkit

let scale =
  match Sys.getenv_opt "VM1DP_BENCH_SCALE" with
  | Some s -> int_of_string s
  | None -> 16

(* --- regeneration --- *)

let regenerate () =
  Printf.printf "# Regenerating paper tables/figures at scale 1/%d\n\n%!" scale;
  Printf.printf "## ExptA-1 (Fig. 5): RWL and runtime vs window size\n%!";
  print_string (Report.Expt.Fig5.render (Report.Expt.Fig5.run ~scale ()));
  Printf.printf "\n## ExptA-2 (Fig. 6): RWL and #dM1 vs alpha\n%!";
  print_string (Report.Expt.Fig6.render (Report.Expt.Fig6.run ~scale ()));
  Printf.printf "\n## ExptA-3 (Fig. 7): optimisation sequences\n%!";
  print_string (Report.Expt.Fig7.render (Report.Expt.Fig7.run ~scale ()));
  Printf.printf "\n## ExptB (Table 2): ClosedM1 and OpenM1 designs\n%!";
  print_string (Report.Expt.Table2.render (Report.Expt.Table2.run ~scale ()));
  Printf.printf "\n## ExptB-1 (Fig. 8): DRVs vs utilisation\n%!";
  print_string (Report.Expt.Fig8.render (Report.Expt.Fig8.run ~scale ()));
  print_newline ()

(* --- microbenchmark fixtures (built once, outside the timed region) --- *)

let bench_scale = 32

let fixture arch =
  let p = Report.Flow.prepare ~scale:bench_scale Netlist.Designs.Aes arch in
  let params = Vm1.Params.default p.Place.Placement.tech in
  (p, params)

let closed_fixture = lazy (fixture Pdk.Cell_arch.Closed_m1)
let open_fixture = lazy (fixture Pdk.Cell_arch.Open_m1)

let tiny_window_fixture =
  lazy
    (let p, params = Lazy.force closed_fixture in
     let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:14 ~bh:2 in
     let w =
       Array.to_list ws
       |> List.filter (fun (w : Vm1.Window.t) ->
              let k = List.length w.movable in
              k >= 2 && k <= 4)
       |> List.hd
     in
     (p, params, w))

let extract_tiny () =
  let p, params, w = Lazy.force tiny_window_fixture in
  Vm1.Wproblem.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo ~bw:w.bw
    ~bh:w.bh ~movable:w.movable ~lx:2 ~ly:1 ~allow_flip:false ~allow_move:true

(* Fig. 5 kernel: one DistOpt pair over a 20um window grid. *)
let bench_fig5 =
  Test.make ~name:"fig5/distopt_20um_window_pass"
    (Staged.stage (fun () ->
         let p, params = Lazy.force closed_fixture in
         let q = Place.Placement.copy p in
         ignore
           (Vm1.Dist_opt.run q params
              {
                Vm1.Dist_opt.tx = 0;
                ty = 0;
                bw = 555;
                bh = 74;
                lx = 4;
                ly = 1;
                allow_flip = false;
                allow_move = true;
                mode = `Greedy;
                parallel = false;
                candidate_cost = None;
              })))

(* Fig. 6 kernel: the full VM1Opt metaheuristic at the selected alpha. *)
let bench_fig6 =
  Test.make ~name:"fig6/vm1opt_alpha1200"
    (Staged.stage (fun () ->
         let p, params = Lazy.force closed_fixture in
         let q = Place.Placement.copy p in
         ignore (Vm1.Vm1_opt.run params q)))

(* Fig. 7 kernel: the longest optimisation sequence (number 5). *)
let bench_fig7 =
  Test.make ~name:"fig7/vm1opt_sequence5"
    (Staged.stage (fun () ->
         let p, params = Lazy.force closed_fixture in
         let q = Place.Placement.copy p in
         let config =
           { Vm1.Vm1_opt.default_config with
             Vm1.Vm1_opt.sequence = Vm1.Params.sequence 5 }
         in
         ignore (Vm1.Vm1_opt.run ~config params q)))

(* Table 2 kernels: routing + metrics on both architectures. *)
let bench_table2_closed =
  Test.make ~name:"table2/route_and_metrics_closedm1"
    (Staged.stage (fun () ->
         let p, _ = Lazy.force closed_fixture in
         ignore (Route.Metrics.summarize (Route.Router.route p))))

let bench_table2_open =
  Test.make ~name:"table2/route_and_metrics_openm1"
    (Staged.stage (fun () ->
         let p, _ = Lazy.force open_fixture in
         ignore (Route.Metrics.summarize (Route.Router.route p))))

(* Fig. 8 kernel: DRV counting on a congested die. *)
let congested_fixture =
  lazy
    (Report.Flow.prepare ~scale:bench_scale ~utilization:0.86
       Netlist.Designs.Aes Pdk.Cell_arch.Closed_m1)

let bench_fig8 =
  Test.make ~name:"fig8/route_congested_util86"
    (Staged.stage (fun () ->
         let p = Lazy.force congested_fixture in
         ignore (Route.Metrics.summarize (Route.Router.route p))))

(* Ablation: window solver quality ladder (greedy vs exact vs MILP). *)
let bench_ablation_greedy =
  Test.make ~name:"ablation/window_solver_greedy"
    (Staged.stage (fun () ->
         ignore (Vm1.Scp_solver.solve ~mode:`Greedy (extract_tiny ()))))

let bench_ablation_exact =
  Test.make ~name:"ablation/window_solver_exact"
    (Staged.stage (fun () ->
         ignore (Vm1.Scp_solver.solve ~mode:`Exact (extract_tiny ()))))

let bench_ablation_milp =
  Test.make ~name:"ablation/window_solver_milp"
    (Staged.stage (fun () ->
         ignore (Vm1.Formulate.solve ~node_limit:5_000 (extract_tiny ()))))

let bench_ablation_anneal =
  Test.make ~name:"ablation/window_solver_anneal"
    (Staged.stage (fun () ->
         ignore (Vm1.Scp_solver.solve ~mode:`Anneal (extract_tiny ()))))

(* Ablation: the router with dM1 exploitation disabled. *)
let bench_ablation_no_dm1 =
  Test.make ~name:"ablation/route_without_dm1"
    (Staged.stage (fun () ->
         let p, _ = Lazy.force closed_fixture in
         ignore
           (Route.Router.route
              ~config:{ Route.Router.default_config with use_dm1 = false }
              p)))

(* Distributable optimisation: sequential vs domain-parallel batches. *)
let distopt_cfg parallel =
  {
    Vm1.Dist_opt.tx = 0;
    ty = 0;
    bw = 40;
    bh = 6;
    lx = 3;
    ly = 1;
    allow_flip = false;
    allow_move = true;
    mode = `Greedy;
    parallel;
    candidate_cost = None;
  }

let bench_distopt_sequential =
  Test.make ~name:"ablation/distopt_sequential"
    (Staged.stage (fun () ->
         let p, params = Lazy.force closed_fixture in
         let q = Place.Placement.copy p in
         ignore (Vm1.Dist_opt.run q params (distopt_cfg false))))

let bench_distopt_parallel =
  Test.make ~name:"ablation/distopt_parallel_domains"
    (Staged.stage (fun () ->
         let p, params = Lazy.force closed_fixture in
         let q = Place.Placement.copy p in
         ignore (Vm1.Dist_opt.run q params (distopt_cfg true))))

(* Substrate kernels, for tracking the flow's building blocks. *)
let bench_global_place =
  Test.make ~name:"substrate/global_place"
    (Staged.stage (fun () ->
         let p, _ = Lazy.force closed_fixture in
         let q = Place.Placement.copy p in
         Place.Global.place q))

let bench_legalize =
  Test.make ~name:"substrate/legalize"
    (Staged.stage (fun () ->
         let p, _ = Lazy.force closed_fixture in
         let q = Place.Placement.copy p in
         Place.Legalize.legalize q))

let bench_hpwl =
  Test.make ~name:"substrate/hpwl_total"
    (Staged.stage (fun () ->
         let p, _ = Lazy.force closed_fixture in
         ignore (Place.Hpwl.total p)))

let bench_objective =
  Test.make ~name:"substrate/objective_counts"
    (Staged.stage (fun () ->
         let p, params = Lazy.force closed_fixture in
         ignore (Vm1.Objective.counts params p)))

let benchmarks =
  Test.make_grouped ~name:"vm1dp"
    [
      bench_fig5; bench_fig6; bench_fig7;
      bench_table2_closed; bench_table2_open; bench_fig8;
      bench_ablation_greedy; bench_ablation_exact; bench_ablation_milp;
      bench_ablation_anneal;
      bench_ablation_no_dm1;
      bench_distopt_sequential; bench_distopt_parallel;
      bench_global_place; bench_legalize; bench_hpwl; bench_objective;
    ]

let run_micro () =
  print_endline "# Microbenchmarks (Bechamel; ns per run, OLS estimate)";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] benchmarks in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name stats acc ->
        let est =
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Printf.sprintf "%14.0f" est
          | _ -> "            n/a"
        in
        (name, est) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, est) -> Printf.printf "%-48s %s ns/run\n" name est)
    rows

(* --- scaling mode: per-stage wall-clock vs --jobs, on the jpeg
   testcase, emitted as machine-readable BENCH_vm1dp.json. The same
   placement and routing problem is solved once per pool size; besides
   the timings the report records whether every run produced the same
   bytes as --jobs 1, which is the executor's determinism contract. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Explicit field-by-field serialization (not [Marshal]): every byte in
   the digest is a value the determinism contract actually covers, and
   the encoding cannot drift with the runtime's representation of
   closures-free-but-shared structure. Fixed-width ints self-delimit. *)
let digest_int b v = Buffer.add_int64_le b (Int64.of_int v)

let placement_digest (p : Place.Placement.t) =
  let b = Buffer.create 65536 in
  Array.iter (digest_int b) p.Place.Placement.xs;
  Array.iter (digest_int b) p.Place.Placement.ys;
  Array.iter
    (fun o -> Buffer.add_string b (Geom.Orient.to_string o))
    p.Place.Placement.orients;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))

let route_digest (r : Route.Router.result) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      digest_int b nr.Route.Router.net_id;
      Array.iter
        (fun (sn : Route.Router.subnet) ->
          digest_int b sn.Route.Router.src.Netlist.Design.inst;
          digest_int b sn.src.Netlist.Design.pin;
          digest_int b sn.dst.Netlist.Design.inst;
          digest_int b sn.dst.Netlist.Design.pin;
          digest_int b (if sn.routed then 1 else 0);
          digest_int b (Array.length sn.path);
          Array.iter (digest_int b) sn.path)
        nr.Route.Router.subnets)
    r.Route.Router.routes;
  digest_int b r.Route.Router.failed_subnets;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))

let scaling_distopt_cfg = distopt_cfg true

let run_scaling ~out ~scaling_scale ~jobs_list () =
  Printf.printf "# Scaling with --jobs (jpeg at scale 1/%d)\n%!" scaling_scale;
  let p0 =
    Report.Flow.prepare ~scale:scaling_scale Netlist.Designs.Jpeg
      Pdk.Cell_arch.Closed_m1
  in
  let params = Vm1.Params.default p0.Place.Placement.tech in
  let run_at jobs =
    Exec.set_jobs jobs;
    let q = Place.Placement.copy p0 in
    (* coordinator-domain GC pressure per row: scaling that shifts work
       to workers shows up here as falling minor words, and a speedup
       that stalls while minor words stay flat is not allocation-bound *)
    let gc0 = Gc.quick_stat () in
    let _, distopt_s =
      time (fun () -> Vm1.Dist_opt.run q params scaling_distopt_cfg)
    in
    let r, route_s = time (fun () -> Route.Router.route q) in
    let gc1 = Gc.quick_stat () in
    Printf.printf "  jobs=%d  distopt %.3fs  route %.3fs\n%!" jobs distopt_s
      route_s;
    ((jobs, distopt_s, route_s, placement_digest q ^ route_digest r), (gc0, gc1))
  in
  let rows = List.map run_at jobs_list in
  let (_, base_d, base_r, base_digest), _ =
    match rows with row1 :: _ -> row1 | [] -> assert false
  in
  let base_total = base_d +. base_r in
  let module J = Obs.Json in
  let cores = Domain.recommended_domain_count () in
  let row_json ((jobs, d, r, digest), ((gc0 : Gc.stat), (gc1 : Gc.stat))) =
    J.Obj
      [
        ("jobs", J.Int jobs);
        (* a row asking for more domains than the machine has cores is
           expected to slow down, not speed up — mark it so a 1-CPU
           "slowdown" in a committed BENCH_vm1dp.json is self-explaining *)
        ("cores", J.Int cores);
        ("oversubscribed", J.Bool (jobs > cores));
        ("distopt_s", J.Float d);
        ("route_s", J.Float r);
        ("total_s", J.Float (d +. r));
        ("speedup_distopt", J.Float (base_d /. d));
        ("speedup_route", J.Float (base_r /. r));
        ("speedup_total", J.Float (base_total /. (d +. r)));
        ("identical_to_jobs1", J.Bool (String.equal digest base_digest));
        ( "gc",
          J.Obj
            [
              ("minor_words", J.Float (gc1.minor_words -. gc0.minor_words));
              ("major_words", J.Float (gc1.major_words -. gc0.major_words));
              ( "minor_collections",
                J.Int (gc1.minor_collections - gc0.minor_collections) );
              ( "major_collections",
                J.Int (gc1.major_collections - gc0.major_collections) );
            ] );
      ]
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str Obs.Schemas.bench_scaling);
        ("design", J.Str "jpeg");
        ("scale", J.Int scaling_scale);
        ("cpus", J.Int (Domain.recommended_domain_count ()));
        ("rows", J.List (List.map row_json rows));
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Printf.printf "(wrote %s)\n%!" out;
  if
    not
      (List.for_all
         (fun ((_, _, _, d), _) -> String.equal d base_digest)
         rows)
  then begin
    prerr_endline "bench: scaling runs diverged from --jobs 1";
    exit 1
  end

(* --- route-profile mode: one observability-enabled route of the jpeg
   testcase, reporting per-phase span durations, hot-path counters and
   the routing quality numbers as machine-readable JSON. The
   @route-bench-smoke alias runs this at a small scale and gates quality
   (failed subnets, overflowed edges) against a checked-in baseline;
   timings are recorded but not gated, since CI wall-clock is noisy. *)

let run_route_profile ~out ~profile_scale () =
  Printf.printf "# Route profile (jpeg at scale 1/%d)\n%!" profile_scale;
  let p =
    Report.Flow.prepare ~scale:profile_scale Netlist.Designs.Jpeg
      Pdk.Cell_arch.Closed_m1
  in
  Obs.set_enabled true;
  Obs.reset ();
  let r, route_s = time (fun () -> Route.Router.route p) in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  let s = Route.Metrics.summarize r in
  let overflow = Route.Grid.overflow_count r.Route.Router.grid in
  Printf.printf "  route %.3fs  failed=%d overflow=%d rwl=%.1fum dm1=%d\n%!"
    route_s r.Route.Router.failed_subnets overflow s.Route.Metrics.rwl_um
    s.Route.Metrics.dm1;
  let module J = Obs.Json in
  let span_json (name, (a : Obs.span_agg)) =
    J.Obj
      [
        ("name", J.Str name);
        ("calls", J.Int a.calls);
        ("total_ms", J.Float (Int64.to_float a.total_ns /. 1e6));
      ]
  in
  let route_counters =
    List.filter
      (fun (n, _) -> String.starts_with ~prefix:"route." n)
      snap.Obs.counters
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str Obs.Schemas.route_profile);
        ("design", J.Str "jpeg");
        ("scale", J.Int profile_scale);
        ("cpus", J.Int (Domain.recommended_domain_count ()));
        ("route_s", J.Float route_s);
        ("failed_subnets", J.Int r.Route.Router.failed_subnets);
        ("overflow_edges", J.Int overflow);
        ("rwl_um", J.Float s.Route.Metrics.rwl_um);
        ("dm1", J.Int s.Route.Metrics.dm1);
        ( "spans",
          J.List (List.map span_json (Obs.aggregate_spans snap.Obs.spans)) );
        ( "counters",
          J.Obj (List.map (fun (n, v) -> (n, J.Int v)) route_counters) );
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Printf.printf "(wrote %s)\n%!" out

(* --- load mode: drive the batch service (lib/serve, the engine behind
   bin/vm1d) in-process with N concurrent clients and emit a
   machine-readable vm1dp-bench-load/1 report. Three scenarios per pool
   size: a cold-then-warm double pass over the spec list on a fresh
   cache (the warm pass is answered from the result memo), and an
   interleaved run where N clients' request streams are multiplexed
   round-robin. Every reply is classified by its artifact-cache
   outcome (warm = every artifact hit); the report records p50/p99
   latency and throughput for the interleaved run, cold-vs-warm medians,
   and whether every occurrence of a spec — cold, warm or interleaved,
   at any --jobs — produced byte-identical result payloads. The
   @serve-bench-smoke alias gates those invariants via check_vm1d.exe;
   refresh the committed baseline with:
     VM1DP_BENCH_SCALE=32 dune exec bench/main.exe -- load --out BENCH_vm1d.json *)

let load_specs load_scale =
  let spec ~id ?util ?alpha ?sequence () =
    Serve.Protocol.generated_job ~id ~scale:load_scale ?util ?alpha
      ?sequence Netlist.Designs.M0
  in
  [
    (* three distinct placements (cold resolves), one alpha/sequence
       variant that shares every artifact with s2 *)
    spec ~id:"s1" ~util:0.70 ();
    spec ~id:"s2" ();
    spec ~id:"s3" ~util:0.80 ();
    spec ~id:"s4" ~alpha:600. ~sequence:2 ();
  ]

let drive_serve cache lines =
  let remaining = ref lines in
  let replies = ref [] in
  let next_line () =
    match !remaining with
    | [] -> None
    | l :: rest ->
      remaining := rest;
      Some l
  in
  let emit line = replies := line :: !replies in
  let stats = Serve.Daemon.serve cache ~next_line ~emit () in
  (stats, List.rev !replies)

type load_reply = {
  lr_id : string;
  lr_latency_ms : float;
  lr_warm : bool; (* every artifact cache was hit *)
  lr_result : string; (* canonical result payload bytes *)
}

let parse_load_reply line =
  match Serve.Protocol.parse_reply line with
  | Error msg -> failwith ("bench load: unreadable reply: " ^ msg)
  | Ok r -> (
    match
      ( r.Serve.Protocol.p_status,
        r.Serve.Protocol.p_id,
        r.Serve.Protocol.p_result,
        r.Serve.Protocol.p_latency_ms )
    with
    | "ok", Some id, Some result, Some ms ->
      {
        lr_id = id;
        lr_latency_ms = ms;
        lr_warm =
          r.Serve.Protocol.p_cache <> []
          && List.for_all snd r.Serve.Protocol.p_cache;
        lr_result = Obs.Json.to_string result;
      }
    | _ -> failwith ("bench load: error reply: " ^ line))

(* Round-robin multiplex of [clients] request streams, each a rotation
   of the spec list (client i leads with spec i), as a socket daemon
   fed by concurrent submitters would see them. *)
let interleave ~clients specs =
  let n = List.length specs in
  let arr = Array.of_list specs in
  List.concat
    (List.init n (fun k ->
         List.init clients (fun i -> arr.((i + k) mod n))))

let median_ms = function
  | [] -> 0.
  | l ->
    let a = Array.of_list (List.sort Float.compare l) in
    a.(Array.length a / 2)

let percentile_ms q l =
  match List.sort Float.compare l with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

(* --- distopt-profile mode: one observability-enabled DistOpt pass of
   the jpeg testcase through the `Portfolio solver, reporting per-window
   solve-time percentiles, portfolio win counts and the resulting
   placement QoR as machine-readable JSON. The @distopt-bench-smoke
   alias runs this at a small scale and gates moves/windows/objective
   against a checked-in baseline; timings are recorded but not gated,
   since CI wall-clock is noisy. Refresh with:
     VM1DP_BENCH_SCALE=4 dune exec bench/main.exe -- distopt-profile \
       --out bench/distopt_profile_baseline.json *)

let run_distopt_profile ~out ~profile_scale () =
  Printf.printf "# DistOpt profile (jpeg at scale 1/%d)\n%!" profile_scale;
  let p0 =
    Report.Flow.prepare ~scale:profile_scale Netlist.Designs.Jpeg
      Pdk.Cell_arch.Closed_m1
  in
  let params = Vm1.Params.default p0.Place.Placement.tech in
  let cfg =
    { scaling_distopt_cfg with
      Vm1.Dist_opt.mode = `Portfolio;
      parallel = false }
  in
  Obs.set_enabled true;
  Obs.reset ();
  let q = Place.Placement.copy p0 in
  let stats, cold_s = time (fun () -> Vm1.Dist_opt.run q params cfg) in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  let obj = Vm1.Objective.counts params q in
  let window_ms =
    let rec go acc (s : Obs.Span.t) =
      let acc = List.fold_left go acc s.Obs.Span.children in
      if String.equal s.Obs.Span.name "distopt.window" then
        (Int64.to_float (Obs.Span.duration_ns s) /. 1e6) :: acc
      else acc
    in
    List.fold_left go [] snap.Obs.spans
  in
  let counter name =
    match List.assoc_opt name snap.Obs.counters with Some v -> v | None -> 0
  in
  let win_of solver = counter ("distopt.portfolio_wins." ^ solver) in
  Printf.printf
    "  %.3fs  windows=%d moves=%d  wins exact=%d greedy=%d anneal=%d\n%!"
    cold_s stats.Vm1.Dist_opt.windows stats.Vm1.Dist_opt.total_moves
    (win_of "exact") (win_of "greedy") (win_of "anneal");
  let module J = Obs.Json in
  let doc =
    J.Obj
      [
        ("schema", J.Str Obs.Schemas.distopt_profile);
        ("design", J.Str "jpeg");
        ("scale", J.Int profile_scale);
        ("cpus", J.Int (Domain.recommended_domain_count ()));
        ("solver", J.Str "portfolio");
        ("distopt_cold_s", J.Float cold_s);
        ("windows", J.Int stats.Vm1.Dist_opt.windows);
        ("batches", J.Int stats.Vm1.Dist_opt.batches);
        ("moves", J.Int stats.Vm1.Dist_opt.total_moves);
        ("hpwl_dbu", J.Int obj.Vm1.Objective.hpwl_dbu);
        ("alignments", J.Int obj.Vm1.Objective.alignments);
        ( "window_solve_ms",
          J.Obj
            [
              ("n", J.Int (List.length window_ms));
              ("p50", J.Float (percentile_ms 0.5 window_ms));
              ("p90", J.Float (percentile_ms 0.9 window_ms));
              ("p99", J.Float (percentile_ms 0.99 window_ms));
            ] );
        ( "portfolio_wins",
          J.Obj
            [
              ("exact", J.Int (win_of "exact"));
              ("greedy", J.Int (win_of "greedy"));
              ("anneal", J.Int (win_of "anneal"));
            ] );
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Printf.printf "(wrote %s)\n%!" out

let run_load ~out ~load_scale ~clients ~jobs_list () =
  Printf.printf "# Batch-service load (m0 at scale 1/%d, %d clients)\n%!"
    load_scale clients;
  Obs.set_enabled true;
  Obs.reset ();
  let specs = load_specs load_scale in
  let encode = List.map Serve.Protocol.encode_job in
  (* spec id -> result payload bytes of its first occurrence; any later
     occurrence that differs breaks the byte-identity contract *)
  let results : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let identical = ref true in
  let record r =
    match Hashtbl.find_opt results r.lr_id with
    | None -> Hashtbl.add results r.lr_id r.lr_result
    | Some prior ->
      if not (String.equal prior r.lr_result) then identical := false
  in
  let total_errors = ref 0 in
  (* pooled across every pool size: per-row cold/warm medians are
     recorded but the gated verdict uses the pooled medians — at high
     oversubscription a single row's 3-sample cold median is too noisy
     to gate on *)
  let all_cold_ms = ref [] and all_warm_ms = ref [] in
  let module J = Obs.Json in
  let run_at jobs =
    Exec.set_jobs jobs;
    (* scenario 1+2: fresh cache, two passes — first occurrences cold,
       everything after warm. The first pass is drained before the
       second starts, so every second-pass job is a result-memo hit. *)
    let cache = Serve.Cache.create () in
    let pass () =
      let stats, replies = drive_serve cache (encode specs) in
      total_errors := !total_errors + stats.Serve.Daemon.errors;
      replies
    in
    let first = pass () in
    let rs = List.map parse_load_reply (first @ pass ()) in
    List.iter record rs;
    let latencies sel = List.filter_map sel rs in
    let cold_ms =
      latencies (fun r -> if r.lr_warm then None else Some r.lr_latency_ms)
    in
    let warm_ms =
      latencies (fun r -> if r.lr_warm then Some r.lr_latency_ms else None)
    in
    (* scenario 3: fresh cache, N interleaved clients *)
    let cache2 = Serve.Cache.create () in
    let stream = encode (interleave ~clients specs) in
    let (istats, ireplies), wall_s = time (fun () -> drive_serve cache2 stream) in
    total_errors := !total_errors + istats.Serve.Daemon.errors;
    let irs = List.map parse_load_reply ireplies in
    List.iter record irs;
    let ilat = List.map (fun r -> r.lr_latency_ms) irs in
    all_cold_ms := cold_ms @ !all_cold_ms;
    all_warm_ms := warm_ms @ !all_warm_ms;
    let cold_p50 = median_ms cold_ms and warm_p50 = median_ms warm_ms in
    let warm_below_cold = warm_p50 < cold_p50 in
    let throughput = float_of_int (List.length irs) /. wall_s in
    Printf.printf
      "  jobs=%d  cold p50 %.1fms  warm p50 %.1fms  interleaved p50 %.1fms \
       p99 %.1fms  %.1f jobs/s\n%!"
      jobs cold_p50 warm_p50 (percentile_ms 0.5 ilat)
      (percentile_ms 0.99 ilat) throughput;
    J.Obj
      [
        ("jobs", J.Int jobs);
        ( "cold_ms",
          J.Obj
            [ ("n", J.Int (List.length cold_ms)); ("p50", J.Float cold_p50) ]
        );
        ( "warm_ms",
          J.Obj
            [ ("n", J.Int (List.length warm_ms)); ("p50", J.Float warm_p50) ]
        );
        ( "interleaved",
          J.Obj
            [
              ("n", J.Int (List.length irs));
              ("wall_s", J.Float wall_s);
              ("throughput_jobs_per_s", J.Float throughput);
              ("p50_ms", J.Float (percentile_ms 0.5 ilat));
              ("p99_ms", J.Float (percentile_ms 0.99 ilat));
            ] );
        ("warm_below_cold", J.Bool warm_below_cold);
      ]
  in
  let rows = List.map run_at jobs_list in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  let counter name =
    match List.assoc_opt name snap.Obs.counters with Some v -> v | None -> 0
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str Obs.Schemas.bench_load);
        ("design", J.Str "m0");
        ("scale", J.Int load_scale);
        ("clients", J.Int clients);
        ("specs", J.Int (List.length specs));
        ("cpus", J.Int (Domain.recommended_domain_count ()));
        ("serve_jobs", J.Int (counter "serve.jobs"));
        ("serve_cache_hits", J.Int (counter "serve.cache_hits"));
        ("serve_cache_misses", J.Int (counter "serve.cache_misses"));
        ("errors", J.Int !total_errors);
        ("byte_identical", J.Bool !identical);
        ("cold_p50_ms", J.Float (median_ms !all_cold_ms));
        ("warm_p50_ms", J.Float (median_ms !all_warm_ms));
        ( "warm_below_cold",
          J.Bool (median_ms !all_warm_ms < median_ms !all_cold_ms) );
        (* the service-level objective the daemon is operated against
           (README "Operating the daemon"): every job answered, results
           byte-identical, with the pooled warm p99 recorded as the
           latency datum an operator alerts on. check_vm1d gates on
           "pass". *)
        ( "slo",
          (let served = counter "serve.jobs" in
           let availability =
             if served = 0 then Float.nan
             else 1.0 -. (float_of_int !total_errors /. float_of_int served)
           in
           J.Obj
             [
               ("availability", J.Float availability);
               ("availability_target", J.Float 1.0);
               ("warm_p99_ms", J.Float (percentile_ms 0.99 !all_warm_ms));
               ("byte_identical", J.Bool !identical);
               ("pass", J.Bool (!total_errors = 0 && !identical));
             ]) );
        ("rows", J.List rows);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Printf.printf "(wrote %s)\n%!" out;
  if !total_errors > 0 || not !identical then begin
    prerr_endline "bench: load run violated the service contract";
    exit 1
  end

(* --trace/--metrics mirror the vm1opt/expt flags so benchmark runs emit
   the same comparable JSON; see README "Measuring performance". The
   trace is written for the regeneration half only — Bechamel's timed
   loops must not pay instrumentation costs, so obs is switched off
   before the microbenchmarks run. *)
let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse (mode, trace, metrics, jobs, out, clients) = function
    | [] -> Some (mode, trace, metrics, jobs, out, clients)
    | "--trace" :: file :: rest ->
      parse (mode, Some file, metrics, jobs, out, clients) rest
    | "--metrics" :: rest -> parse (mode, trace, true, jobs, out, clients) rest
    | "--jobs" :: n :: rest -> begin
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        parse (mode, trace, metrics, Some n, out, clients) rest
      | _ -> None
    end
    | "--clients" :: n :: rest -> begin
      match int_of_string_opt n with
      | Some n when n >= 1 -> parse (mode, trace, metrics, jobs, out, n) rest
      | _ -> None
    end
    | "--out" :: file :: rest ->
      parse (mode, trace, metrics, jobs, file, clients) rest
    | ( ("tables" | "micro" | "scaling" | "route-profile" | "distopt-profile"
        | "load") as m )
      :: rest ->
      parse (Some m, trace, metrics, jobs, out, clients) rest
    | _ -> None
  in
  match parse (None, None, false, None, "BENCH_vm1dp.json", 4) args with
  | None ->
    prerr_endline
      "usage: main.exe [tables|micro|scaling|route-profile|distopt-profile|\
       load] [--trace FILE] [--metrics] [--jobs N] [--clients N] [--out FILE]";
    exit 1
  | Some (mode, trace, metrics, jobs, out, clients) ->
    if trace <> None || metrics then Obs.set_enabled true;
    (match jobs with Some n -> Exec.set_jobs n | None -> ());
    let finish () =
      (match trace with
       | Some path ->
         (try
            Obs.write_trace path;
            Printf.printf "(wrote %s)\n%!" path
          with Sys_error msg ->
            Printf.eprintf "bench: cannot write trace: %s\n%!" msg;
            exit 1)
       | None -> ());
      if metrics then print_string (Trace.Profile.snapshot_text (Obs.snapshot ()));
      Obs.set_enabled false
    in
    (match mode with
    | Some "tables" ->
      regenerate ();
      finish ()
    | Some "micro" ->
      finish ();
      run_micro ()
    | Some "scaling" ->
      let scaling_scale =
        match Sys.getenv_opt "VM1DP_BENCH_SCALE" with
        | Some s -> int_of_string s
        | None -> 16
      in
      run_scaling ~out ~scaling_scale ~jobs_list:[ 1; 2; 4 ] ();
      finish ()
    | Some "route-profile" ->
      let profile_scale =
        match Sys.getenv_opt "VM1DP_BENCH_SCALE" with
        | Some s -> int_of_string s
        | None -> 16
      in
      let out =
        if out = "BENCH_vm1dp.json" then "route_profile.json" else out
      in
      run_route_profile ~out ~profile_scale ()
    | Some "distopt-profile" ->
      let profile_scale =
        match Sys.getenv_opt "VM1DP_BENCH_SCALE" with
        | Some s -> int_of_string s
        | None -> 16
      in
      let out =
        if out = "BENCH_vm1dp.json" then "distopt_profile.json" else out
      in
      run_distopt_profile ~out ~profile_scale ()
    | Some "load" ->
      let load_scale =
        match Sys.getenv_opt "VM1DP_BENCH_SCALE" with
        | Some s -> int_of_string s
        | None -> 16
      in
      let out = if out = "BENCH_vm1dp.json" then "BENCH_vm1d.json" else out in
      run_load ~out ~load_scale ~clients ~jobs_list:[ 1; 2; 4 ] ();
      finish ()
    | _ ->
      regenerate ();
      finish ();
      run_micro ())
