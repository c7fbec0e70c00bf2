(* lib/exec: the shared-FIFO domain pool. The scheduler's contracts are
   checked end to end: results are bit-identical across pool sizes
   (nested submissions from pool tasks included), failed or expired
   tasks fall back to the awaiter, shutdown loses no pending task, and
   after warm-up the pool never spawns another domain. *)

(* The determinism contract of the data-parallel loops: same bytes for
   every pool size and chunking. *)
let prop_parallel_map_identical =
  QCheck2.Test.make ~name:"parallel_map/for = sequential across jobs 1/2/4"
    ~count:10
    QCheck2.Gen.(
      pair (list_size (int_range 0 200) (int_range (-1000) 1000)) (int_range 1 8))
    (fun (l, chunk) ->
      let xs = Array.of_list l in
      let f x = (x * 31) lxor (x asr 2) in
      let expect = Array.map f xs in
      List.for_all
        (fun j ->
          Exec.set_jobs j;
          let mapped = Exec.parallel_map ~chunk f xs in
          let out = Array.make (Array.length xs) 0 in
          Exec.parallel_for ~chunk (Array.length xs) (fun i ->
              out.(i) <- f xs.(i));
          mapped = expect && out = expect)
        [ 1; 2; 4 ])

let fixture =
  lazy (Report.Flow.prepare ~scale:64 Netlist.Designs.Aes Pdk.Cell_arch.Closed_m1)

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

let test_distopt_identity () =
  let p = Lazy.force fixture in
  let params = Vm1.Params.default p.Place.Placement.tech in
  let a = Place.Placement.copy p in
  Exec.set_jobs 1;
  ignore (Vm1.Dist_opt.run a params (distopt_cfg false));
  let b = Place.Placement.copy p in
  Exec.set_jobs 4;
  ignore (Vm1.Dist_opt.run b params (distopt_cfg true));
  Alcotest.(check (array int)) "xs" a.Place.Placement.xs b.Place.Placement.xs;
  Alcotest.(check (array int)) "ys" a.Place.Placement.ys b.Place.Placement.ys;
  Alcotest.(check bool) "orients" true
    (a.Place.Placement.orients = b.Place.Placement.orients)

(* The router runs no pool work; this guards against parallelism
   creeping back into it without the same-bytes contract. *)
let test_route_identity () =
  let p = Lazy.force fixture in
  Exec.set_jobs 1;
  let r1 = Route.Router.route p in
  Exec.set_jobs 4;
  let r4 = Route.Router.route p in
  Alcotest.(check bool) "routes identical" true
    (r1.Route.Router.routes = r4.Route.Router.routes);
  Alcotest.(check int) "failed subnets identical"
    r1.Route.Router.failed_subnets r4.Route.Router.failed_subnets;
  Alcotest.(check bool) "usage identical" true
    (r1.Route.Router.grid.Route.Grid.wire_usage
       = r4.Route.Router.grid.Route.Grid.wire_usage
    && r1.Route.Router.grid.Route.Grid.via_usage
         = r4.Route.Router.grid.Route.Grid.via_usage)

let test_fallback () =
  Exec.set_jobs 4;
  (* expired deadline: the awaiter re-runs the thunk sequentially *)
  let f =
    Exec.submit
      ~deadline_ns:(Int64.sub (Obs.now_ns ()) 1_000_000L)
      (fun () -> 41 + 1)
  in
  Alcotest.(check int) "deadline fallback" 42 (Exec.Future.await f);
  (* a raising task propagates to the awaiter without hurting the pool *)
  let g = Exec.submit (fun () -> raise Exit) in
  (match Exec.Future.await g with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  let h = Exec.parallel_map (fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "pool alive after exception" [| 2; 3; 4 |] h

let test_future_combinators () =
  Exec.set_jobs 2;
  Alcotest.(check int) "return" 42 (Exec.Future.await (Exec.Future.return 42));
  Alcotest.(check bool) "return cannot be cancelled" false
    (Exec.Future.cancel (Exec.Future.return 0));
  let c = Exec.submit (fun () -> 7) in
  ignore (Exec.Future.cancel c);
  Alcotest.(check int) "cancelled still awaits" 7 (Exec.Future.await c)

(* The daemon-job shape: each pool task races three thunks and runs a
   parallel_for of its own, all submitted from inside a pool task. *)
let test_nested_submission () =
  let job i =
    let raced = Exec.race [ (fun () -> i); (fun () -> i * i); (fun () -> -i) ] in
    let out = Array.make 8 0 in
    Exec.parallel_for 8 (fun k -> out.(k) <- (i * 8) + k);
    (raced, Array.to_list out)
  in
  let xs = Array.init 12 Fun.id in
  Exec.set_jobs 1;
  let expect = Exec.parallel_map ~chunk:1 job xs in
  List.iter
    (fun j ->
      Exec.set_jobs j;
      let got = Exec.parallel_map ~chunk:1 job xs in
      Alcotest.(check bool) (Printf.sprintf "jobs %d = jobs 1" j) true
        (got = expect))
    [ 2; 4 ]

(* Shutting the pool down under un-awaited futures loses none of them:
   whatever the workers did not finish, the awaiter runs inline. *)
let test_shutdown_pending () =
  Exec.set_jobs 2;
  let futs = List.init 50 (fun i -> Exec.submit (fun () -> i * 3)) in
  Exec.shutdown ();
  Alcotest.(check (list int)) "every await returns its value"
    (List.init 50 (fun i -> i * 3))
    (List.map Exec.Future.await futs)

(* The warm-up spawns exactly jobs-1 domains; no parallel call after
   that may spawn another (the satellite fix for spawn-per-batch). *)
let test_no_mid_run_spawn () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      Exec.shutdown ();
      Exec.set_jobs 3;
      let c = Obs.counter "exec.domain_spawns" in
      let v0 = Obs.Counter.value c in
      ignore (Exec.parallel_map Fun.id (Array.init 100 Fun.id));
      let warm = Obs.Counter.value c in
      Alcotest.(check int) "warm-up spawns jobs-1 domains" (v0 + 2) warm;
      let p = Lazy.force fixture in
      let params = Vm1.Params.default p.Place.Placement.tech in
      let q = Place.Placement.copy p in
      ignore (Vm1.Dist_opt.run q params (distopt_cfg true));
      for _ = 1 to 5 do
        ignore (Exec.parallel_map (fun x -> x * 2) (Array.init 64 Fun.id));
        Exec.parallel_for 32 (fun _ -> ())
      done;
      Alcotest.(check int) "zero mid-run spawns" warm (Obs.Counter.value c))

let () =
  Alcotest.run "exec"
    [
      ( "loops",
        List.map QCheck_alcotest.to_alcotest [ prop_parallel_map_identical ] );
      ( "determinism",
        [
          Alcotest.test_case "distopt pool = sequential" `Quick
            test_distopt_identity;
          Alcotest.test_case "routing identical across jobs" `Quick
            test_route_identity;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "deadline and exception fallback" `Quick
            test_fallback;
          Alcotest.test_case "future combinators" `Quick
            test_future_combinators;
          Alcotest.test_case "nested submission from pool tasks" `Quick
            test_nested_submission;
          Alcotest.test_case "shutdown keeps pending tasks" `Quick
            test_shutdown_pending;
          Alcotest.test_case "no mid-run domain spawns" `Quick
            test_no_mid_run_spawn;
        ] );
    ]
