type config = {
  tx : int;
  ty : int;
  bw : int;
  bh : int;
  lx : int;
  ly : int;
  allow_flip : bool;
  allow_move : bool;
  mode : Scp_solver.mode;
  parallel : bool;
  candidate_cost : (site:int -> row:int -> float) option;
}

type stats = {
  windows : int;
  batches : int;
  total_moves : int;
  minor_words : float;
}

(* Windows of one diagonal batch have pairwise-disjoint projections, so
   their subproblems are independent: extraction reads the placement,
   solving touches only problem-internal state, committing writes disjoint
   cells. Extract and commit run sequentially; solving fans out over
   domains. The result is identical to the sequential order. *)
(* Metric handles are created once: window solves run on worker domains,
   and a per-call registry lookup would reintroduce lock contention
   there. Counter bumps and histogram observations are domain-safe. *)
let c_windows_solved = Obs.counter "scp.windows_solved"
let c_moves = Obs.counter "scp.moves"
let h_window_moves = Obs.histogram "distopt.window_moves"

(* Per-window attribution span: identifies the window (grid indices,
   site/row origin, DBU bounding box), sizes it (movable cells, total
   candidates, ripple plans attempted: what a slow window's time goes
   to) and carries the before/after QoR counts [vm1trace attribute]
   joins on. The QoR recounts only run while instrumentation is on;
   results are unchanged either way. *)
let window_attrs (w : Window.t) problem =
  if not (Obs.enabled ()) then []
  else begin
    let tech = problem.Wproblem.placement.Place.Placement.tech in
    let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
    [
      ("ix", `Int w.Window.ix);
      ("iy", `Int w.Window.iy);
      ("site_lo", `Int w.Window.site_lo);
      ("row_lo", `Int w.Window.row_lo);
      ("x0_dbu", `Int (w.Window.site_lo * sw));
      ("y0_dbu", `Int (w.Window.row_lo * rh));
      ("x1_dbu", `Int ((w.Window.site_lo + w.Window.bw) * sw));
      ("y1_dbu", `Int ((w.Window.row_lo + w.Window.bh) * rh));
      ("cells", `Int (Array.length problem.Wproblem.cells));
      ( "cands",
        `Int
          (Array.fold_left
             (fun acc (c : Wproblem.cell) -> acc + Array.length c.cands)
             0 problem.Wproblem.cells) );
    ]
  end

let with_window_span (w : Window.t) problem f =
  Obs.with_span "distopt.window" ~attrs:(window_attrs w problem) (fun () ->
      let q0 =
        if Obs.enabled () then Some (Wproblem.qor problem) else None
      in
      let s : Scp_solver.stats = f () in
      (match q0 with
      | Some q0 ->
        let q1 = Wproblem.qor problem in
        Obs.add_attr "moves" (`Int s.Scp_solver.moves);
        Obs.add_attr "shoves" (`Int s.Scp_solver.shoves);
        Obs.add_attr "obj0" (`Float s.Scp_solver.objective_before);
        Obs.add_attr "obj1" (`Float s.Scp_solver.objective_after);
        Obs.add_attr "hpwl0_dbu" (`Int q0.Wproblem.hpwl_dbu);
        Obs.add_attr "hpwl1_dbu" (`Int q1.Wproblem.hpwl_dbu);
        Obs.add_attr "align0" (`Int q0.Wproblem.alignments);
        Obs.add_attr "align1" (`Int q1.Wproblem.alignments);
        Obs.add_attr "ov0" (`Int q0.Wproblem.overlap_sum);
        Obs.add_attr "ov1" (`Int q1.Wproblem.overlap_sum)
      | None -> ());
      s)

let solve_window (w : Window.t) problem ~mode =
  with_window_span w problem (fun () -> Scp_solver.solve ~mode problem)

let solve_batch ~parallel ~mode (batch : Window.t array) problems =
  let n = Array.length problems in
  let moves = Array.make n 0 in
  let solve i =
    let s = solve_window batch.(i) problems.(i) ~mode in
    Obs.Counter.incr c_windows_solved;
    Obs.Counter.add c_moves s.Scp_solver.moves;
    Obs.Histogram.observe h_window_moves (float_of_int s.Scp_solver.moves);
    moves.(i) <- s.Scp_solver.moves
  in
  (* Window solves fan out over the persistent Exec pool: the worker
     domains are spawned once per process, not once per batch, so the
     only Domain.spawn cost is warm-up (the exec.domain_spawns counter
     stays flat across batches). Per-index writes keep the result
     identical to the sequential order for every pool size. *)
  if (not parallel) || n <= 1 then
    for i = 0 to n - 1 do
      solve i
    done
  else Exec.parallel_for n solve;
  Array.fold_left ( + ) 0 moves

let run (p : Place.Placement.t) (params : Params.t) (c : config) =
  Obs.with_span "distopt.run" (fun () ->
      let windows = Window.partition p ~tx:c.tx ~ty:c.ty ~bw:c.bw ~bh:c.bh in
      let batches = Window.diagonal_batches windows in
      Obs.add_attr "windows" (`Int (Array.length windows));
      Obs.add_attr "batches" (`Int (List.length batches));
      let mw0 = if Obs.enabled () then Gc.minor_words () else 0. in
      let total_moves = ref 0 in
      List.iter
        (fun batch ->
          Obs.with_span "distopt.batch"
            ~attrs:[ ("windows", `Int (Array.length batch)) ]
            (fun () ->
              let problems =
                Obs.with_span "distopt.extract" (fun () ->
                    (* one O(instances) bucketing shared by the whole
                       batch; rebuilt per batch because commits move
                       cells between batches *)
                    let rows = Wproblem.row_index p in
                    Array.map
                      (fun (w : Window.t) ->
                        Wproblem.extract ?candidate_cost:c.candidate_cost
                          ~rows p params ~site_lo:w.site_lo ~row_lo:w.row_lo
                          ~bw:w.bw ~bh:w.bh ~movable:w.movable ~lx:c.lx
                          ~ly:c.ly ~allow_flip:c.allow_flip
                          ~allow_move:c.allow_move)
                      batch)
              in
              let moves =
                Obs.with_span "distopt.solve" (fun () ->
                    let m =
                      solve_batch ~parallel:c.parallel ~mode:c.mode batch
                        problems
                    in
                    Obs.add_attr "moves" (`Int m);
                    m)
              in
              total_moves := !total_moves + moves;
              Obs.with_span "distopt.commit" (fun () ->
                  Array.iter Wproblem.commit problems)))
        batches;
      {
        windows = Array.length windows;
        batches = List.length batches;
        total_moves = !total_moves;
        minor_words =
          (if Obs.enabled () then Gc.minor_words () -. mw0 else 0.);
      })
