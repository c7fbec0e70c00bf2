(* Cross-module property-based tests: randomised designs and placements
   exercised through the full substrate stack. *)

let lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1)

let design_of_seed ?(n = 120) seed =
  Netlist.Generator.generate lib
    (Netlist.Generator.default_config ~n_instances:n ~seed)
    ~name:(Printf.sprintf "prop%d" seed)

(* every generated netlist is referentially valid *)
let prop_generator_always_valid =
  QCheck2.Test.make ~name:"generator always valid" ~count:30
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed -> Netlist.Design.validate (design_of_seed seed) = [])

(* the legaliser produces a legal placement from arbitrary targets *)
let prop_legalizer_always_legal =
  QCheck2.Test.make ~name:"legaliser always legal" ~count:25
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 50 95) (int_range 0 3))
    (fun (seed, util_pct, pattern) ->
      let d = design_of_seed seed in
      let p =
        Place.Placement.create d ~utilization:(float_of_int util_pct /. 100.0)
      in
      let rng = Random.State.make [| seed; pattern |] in
      let w = Geom.Rect.width p.die and h = Geom.Rect.height p.die in
      Array.iteri
        (fun i _ ->
          let x, y =
            match pattern with
            | 0 -> (0, 0)
            | 1 -> (w, h)
            | 2 -> (w / 2, h / 2)
            | _ -> (Random.State.int rng (w + 1), Random.State.int rng (h + 1))
          in
          p.xs.(i) <- x;
          p.ys.(i) <- y)
        p.xs;
      Place.Legalize.legalize p;
      Place.Legalize.check p = [])

(* global placement never loses legality, for any seed *)
let prop_global_place_legal =
  QCheck2.Test.make ~name:"global placement always legal" ~count:15
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.72 in
      Place.Global.place p;
      Place.Legalize.check p = [])

(* routed paths are structurally connected: consecutive edges share a
   node, and endpoints land on src/dst access points or tree nodes *)
let path_is_connected g (path : int array) =
  let endpoints c =
    match Route.Router.edge_of_code c with
    | Route.Router.Wire n -> (n, Route.Grid.wire_dest g n)
    | Route.Router.Via n -> (n, Route.Grid.via_dest g n)
  in
  let ok = ref true in
  for k = 0 to Array.length path - 2 do
    let a1, a2 = endpoints path.(k) and b1, b2 = endpoints path.(k + 1) in
    if not (a1 = b1 || a1 = b2 || a2 = b1 || a2 = b2) then ok := false
  done;
  !ok

let prop_routed_paths_connected =
  QCheck2.Test.make ~name:"routed paths are connected edge chains" ~count:8
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.7 in
      Place.Global.place p;
      let r = Route.Router.route p in
      Array.for_all
        (fun (nr : Route.Router.net_route) ->
          Array.for_all
            (fun (sn : Route.Router.subnet) ->
              (not sn.routed) || path_is_connected r.grid sn.path)
            nr.subnets)
        r.routes)

(* grid usage equals the sum over stored paths (no leaks, no double
   counting), even after rip-up-and-reroute *)
let prop_usage_consistent =
  QCheck2.Test.make ~name:"router usage bookkeeping consistent" ~count:8
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.8 in
      Place.Global.place p;
      let r = Route.Router.route p in
      let g = r.grid in
      let size = Route.Grid.node_count g in
      let wire = Array.make size 0 and via = Array.make size 0 in
      Array.iter
        (fun (nr : Route.Router.net_route) ->
          Array.iter
            (fun (sn : Route.Router.subnet) ->
              Array.iter
                (fun c ->
                  match Route.Router.edge_of_code c with
                  | Route.Router.Wire n -> wire.(n) <- wire.(n) + 1
                  | Route.Router.Via n -> via.(n) <- via.(n) + 1)
                sn.path)
            nr.subnets)
        r.routes;
      let ok = ref true in
      for n = 0 to size - 1 do
        if wire.(n) <> g.Route.Grid.wire_usage.(n) then ok := false;
        if via.(n) <> g.Route.Grid.via_usage.(n) then ok := false
      done;
      !ok)

(* the track-range pin-access index built at grid construction agrees
   with the original full-grid scan, for every pin of every cell
   architecture, and never reports a node twice *)
let prop_pin_access_index_matches_scan =
  QCheck2.Test.make ~name:"pin-access index = full scan (all archs)" ~count:9
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 2))
    (fun (seed, archno) ->
      let arch =
        match archno with
        | 0 -> Pdk.Cell_arch.Conventional12
        | 1 -> Pdk.Cell_arch.Closed_m1
        | _ -> Pdk.Cell_arch.Open_m1
      in
      let archlib = Pdk.Libgen.generate (Pdk.Tech.default arch) in
      let d =
        Netlist.Generator.generate archlib
          (Netlist.Generator.default_config ~n_instances:80 ~seed)
          ~name:"pa"
      in
      let p = Place.Placement.create d ~utilization:0.7 in
      Place.Global.place p;
      let g = Route.Grid.of_placement p in
      let ok = ref true in
      Array.iteri
        (fun i (inst : Netlist.Design.instance) ->
          List.iteri
            (fun k _ ->
              let pr = { Netlist.Design.inst = i; pin = k } in
              let idx = Route.Grid.pin_access g pr in
              let scan = Route.Grid.pin_access_scan g pr in
              if List.sort_uniq Int.compare idx <> List.sort Int.compare idx
              then ok := false;
              if List.sort Int.compare idx <> List.sort Int.compare scan then
                ok := false)
            inst.master.Pdk.Stdcell.pins)
        p.design.Netlist.Design.instances;
      !ok)

(* window move_delta always matches a full objective recompute *)
let prop_move_delta_exact =
  QCheck2.Test.make ~name:"move_delta equals objective recompute" ~count:12
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 1000))
    (fun (seed, pick) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.72 in
      Place.Global.place p;
      let params = Vm1.Params.default p.Place.Placement.tech in
      let movable = List.init (Place.Placement.num_instances p) (fun i -> i) in
      let t =
        Vm1.Wproblem.extract p params ~site_lo:0 ~row_lo:0
          ~bw:p.Place.Placement.sites_per_row ~bh:p.Place.Placement.num_rows
          ~movable ~lx:3 ~ly:1 ~allow_flip:true ~allow_move:true
      in
      let n = Array.length t.Vm1.Wproblem.cells in
      let cell = pick mod n in
      let c = t.Vm1.Wproblem.cells.(cell) in
      let k = Array.length c.Vm1.Wproblem.cands in
      let cand = (pick * 7) mod k in
      if cand = c.Vm1.Wproblem.cur
         || not (Vm1.Wproblem.candidate_free t ~cell ~cand)
      then true
      else begin
        let before = Vm1.Wproblem.objective t in
        let delta = Vm1.Wproblem.move_delta t ~cell ~cand in
        Vm1.Wproblem.apply t ~cell ~cand;
        let after = Vm1.Wproblem.objective t in
        abs_float (after -. before -. delta) < 0.01
      end)

(* the greedy window solver never worsens the objective and never breaks
   legality, for any seed and perturbation range *)
let prop_greedy_monotone_legal =
  QCheck2.Test.make ~name:"greedy solver monotone and legal" ~count:10
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 1 5) (int_range 0 1))
    (fun (seed, lx, ly) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.75 in
      Place.Global.place p;
      let params = Vm1.Params.default p.Place.Placement.tech in
      let movable = List.init (Place.Placement.num_instances p) (fun i -> i) in
      let t =
        Vm1.Wproblem.extract p params ~site_lo:0 ~row_lo:0
          ~bw:p.Place.Placement.sites_per_row ~bh:p.Place.Placement.num_rows
          ~movable ~lx ~ly ~allow_flip:false ~allow_move:true
      in
      let stats = Vm1.Scp_solver.solve ~mode:`Greedy t in
      Vm1.Wproblem.commit t;
      stats.Vm1.Scp_solver.objective_after
      <= stats.Vm1.Scp_solver.objective_before +. 1e-6
      && Place.Legalize.check p = [])

(* DEF round-trips for arbitrary generated designs and placements *)
let prop_def_roundtrip =
  QCheck2.Test.make ~name:"DEF round-trip" ~count:15
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let d = design_of_seed ~n:60 seed in
      let p = Place.Placement.create d ~utilization:0.7 in
      Place.Global.place p;
      let text = Io.Def.write d (Place.Placement.to_def p) in
      match Io.Def.read lib text with
      | Error _ -> false
      | Ok (d2, def2) ->
        let p2 = Place.Placement.of_def d2 def2 in
        Netlist.Design.validate d2 = []
        && Place.Hpwl.total p = Place.Hpwl.total p2)

(* the row DP never worsens total HPWL *)
let prop_row_dp_monotone =
  QCheck2.Test.make ~name:"row DP monotone in HPWL" ~count:10
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.75 in
      Place.Global.place p;
      let before = Place.Hpwl.total p in
      ignore (Place.Row_opt.optimize ~passes:1 p);
      Place.Hpwl.total p <= before && Place.Legalize.check p = [])

(* Reference ripple planner with no row index: it walks every movable
   cell, sorts the target row's cells by site (stable over the
   descending-index scan), and checks the resulting plan against a
   private copy of the occupancy map. The indexed Wproblem.shove_plan
   must return exactly its plans. *)
let scan_shove_plan (t : Vm1.Wproblem.t) ~cell ~cand =
  let module W = Vm1.Wproblem in
  let max_plan_moves = 8 in
  let c = t.W.cells.(cell) in
  let target = c.W.cands.(cand) in
  let row = target.W.row in
  let a = target.W.site and b = target.W.site + c.W.width in
  (* candidate of [idx] at [site] in the target row, keeping its current
     orientation; the last match, as the encoded-candidate table keeps *)
  let cand_at idx ~site =
    let cc = t.W.cells.(idx) in
    let orient = cc.W.cands.(cc.W.cur).W.orient in
    let found = ref None in
    Array.iteri
      (fun k (x : W.candidate) ->
        if x.W.site = site && x.W.row = row
           && Geom.Orient.equal x.W.orient orient
        then found := Some k)
      cc.W.cands;
    !found
  in
  let in_row = ref [] in
  Array.iteri
    (fun idx (cc : W.cell) ->
      if idx <> cell then begin
        let cur = cc.W.cands.(cc.W.cur) in
        if cur.W.row = row then
          in_row := (idx, cur.W.site, cc.W.width) :: !in_row
      end)
    t.W.cells;
  let asc =
    List.stable_sort (fun (_, s1, _) (_, s2, _) -> Int.compare s1 s2) !in_row
  in
  let desc = List.rev asc in
  let moves = ref [ (cell, cand) ] in
  let count = ref 1 in
  let exception Fail in
  let push idx new_site =
    incr count;
    if !count > max_plan_moves then raise Fail;
    match cand_at idx ~site:new_site with
    | Some k -> moves := (idx, k) :: !moves
    | None -> raise Fail
  in
  try
    let required = ref a in
    List.iter
      (fun (idx, site, width) ->
        if site < a && site + width > !required then begin
          push idx (!required - width);
          required := !required - width
        end)
      desc;
    let required = ref b in
    List.iter
      (fun (idx, site, width) ->
        if site >= a && site < !required && site + width > a then begin
          push idx !required;
          required := !required + width
        end)
      asc;
    let occ = Bytes.copy t.W.occ in
    let at ~site ~row = ((row - t.W.row_lo) * t.W.bw) + (site - t.W.site_lo) in
    let bump (cc : W.cell) (x : W.candidate) d =
      for s = x.W.site to x.W.site + cc.W.width - 1 do
        let i = at ~site:s ~row:x.W.row in
        Bytes.set occ i (Char.chr (Char.code (Bytes.get occ i) + d))
      done
    in
    let free (cc : W.cell) (x : W.candidate) =
      let ok = ref true in
      for s = x.W.site to x.W.site + cc.W.width - 1 do
        if Bytes.get occ (at ~site:s ~row:x.W.row) <> '\000' then ok := false
      done;
      !ok
    in
    List.iter
      (fun (idx, _) ->
        let cc = t.W.cells.(idx) in
        bump cc cc.W.cands.(cc.W.cur) (-1))
      !moves;
    let ok =
      List.for_all
        (fun (idx, k) ->
          let cc = t.W.cells.(idx) in
          free cc cc.W.cands.(k))
        !moves
      && List.for_all
           (fun (idx, k) ->
             let cc = t.W.cells.(idx) in
             free cc cc.W.cands.(k)
             && (bump cc cc.W.cands.(k) 1;
                 true))
           !moves
    in
    if ok then Some !moves else None
  with Fail -> None

(* the row index behind shove_plan always equals a per-row recount
   (site ascending, then cell index descending), and the indexed planner
   returns exactly the whole-window scan's plans, under random mixes of
   apply, apply_plan of real plans, set_cur and restore, set_assignment
   and clone *)
let prop_shove_row_index =
  QCheck2.Test.make ~name:"shove_plan row index = whole-window scan"
    ~count:8
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 1_000_000))
    (fun (seed, op_seed) ->
      let module W = Vm1.Wproblem in
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.8 in
      Place.Global.place p;
      let params = Vm1.Params.default p.Place.Placement.tech in
      (* the fullest window of an offset grid, so row_lo and site_lo are
         mostly nonzero *)
      let w =
        Array.fold_left
          (fun (best : Vm1.Window.t) (w : Vm1.Window.t) ->
            if List.length w.movable > List.length best.movable then w
            else best)
          (Vm1.Window.partition p ~tx:7 ~ty:1 ~bw:48 ~bh:6).(0)
          (Vm1.Window.partition p ~tx:7 ~ty:1 ~bw:48 ~bh:6)
      in
      let t =
        ref
          (W.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo ~bw:w.bw
             ~bh:w.bh ~movable:w.movable ~lx:3 ~ly:1
             ~allow_flip:(op_seed mod 2 = 0) ~allow_move:true)
      in
      let n = Array.length !t.W.cells in
      let rng = Random.State.make [| seed; op_seed |] in
      let ok = ref true in
      let index_matches (t : W.t) =
        for row = t.W.row_lo to t.W.row_lo + t.W.bh - 1 do
          let members = ref [] in
          Array.iteri
            (fun idx (c : W.cell) ->
              let x = c.W.cands.(c.W.cur) in
              if x.W.row = row then members := (x.W.site, idx) :: !members)
            t.W.cells;
          let expect =
            List.sort
              (fun (s1, i1) (s2, i2) ->
                if s1 <> s2 then Int.compare s1 s2 else Int.compare i2 i1)
              !members
            |> List.map snd |> Array.of_list
          in
          if W.row_cells t ~row <> expect then ok := false
        done
      in
      let random_cand (t : W.t) =
        let cell = Random.State.int rng n in
        (cell, Random.State.int rng (Array.length t.W.cells.(cell).W.cands))
      in
      let saved = ref (W.assignment !t) in
      let all = ref [ !t ] in
      if n > 0 then
        for _ = 1 to 150 do
          let t0 = !t in
          (match Random.State.int rng 6 with
          | 0 | 1 ->
            (* the greedy solver's use: plan, compare, sometimes apply *)
            let cell, cand = random_cand t0 in
            let got = W.shove_plan t0 ~cell ~cand in
            if got <> scan_shove_plan t0 ~cell ~cand then ok := false;
            (match got with
            | Some plan when Random.State.bool rng -> W.apply_plan t0 plan
            | _ -> ())
          | 2 ->
            let cell, cand = random_cand t0 in
            if W.candidate_free t0 ~cell ~cand then W.apply t0 ~cell ~cand
          | 3 ->
            (* the exact search's use: set_cur away and back *)
            let cell, cand = random_cand t0 in
            let back = t0.W.cells.(cell).W.cur in
            W.set_cur t0 ~cell ~cand;
            index_matches t0;
            W.set_cur t0 ~cell ~cand:back
          | 4 ->
            let now = W.assignment t0 in
            W.set_assignment t0 !saved;
            saved := now
          | _ ->
            (* continue on the clone; the earlier problems must keep
               their own index *)
            t := W.clone t0;
            all := !t :: !all);
          List.iter index_matches !all
        done;
      !ok)

(* The objectives the exact MILP (constraints (1)-(14)) and exhaustive
   search reach on the first 2-4-cell window of a seeded 120-instance
   design; [None] when the design has no such window *)
let milp_and_exhaustive ~seed ~open_m1 =
  let arch = if open_m1 then Pdk.Cell_arch.Open_m1 else Pdk.Cell_arch.Closed_m1 in
  let archlib = Pdk.Libgen.generate (Pdk.Tech.default arch) in
  let d =
    Netlist.Generator.generate archlib
      (Netlist.Generator.default_config ~n_instances:120 ~seed)
      ~name:"w"
  in
  let p = Place.Placement.create d ~utilization:0.7 in
  Place.Global.place p;
  let params = Vm1.Params.default p.Place.Placement.tech in
  let pick () =
    let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:14 ~bh:2 in
    Array.to_list ws
    |> List.filter (fun (w : Vm1.Window.t) ->
           let k = List.length w.movable in
           k >= 2 && k <= 4)
  in
  match pick () with
  | [] -> None
  | w :: _ ->
    let extract () =
      Vm1.Wproblem.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo
        ~bw:w.bw ~bh:w.bh ~movable:w.movable ~lx:2 ~ly:1
        ~allow_flip:false ~allow_move:true
    in
    let te = extract () in
    let saved = Array.map (fun (c : Vm1.Wproblem.cell) -> c.cur) te.cells in
    ignore (Vm1.Scp_solver.solve ~mode:`Exact te);
    let exact_obj = Vm1.Wproblem.objective te in
    (* fresh problem, same initial state *)
    let tm = extract () in
    Array.iteri (fun i cand -> Vm1.Wproblem.apply tm ~cell:i ~cand) saved;
    ignore (Vm1.Formulate.solve ~node_limit:30_000 tm);
    Some (Vm1.Wproblem.objective tm, exact_obj)

(* the exact MILP agrees with exhaustive search on random small windows,
   both architectures *)
let prop_milp_equals_exhaustive =
  QCheck2.Test.make ~name:"MILP = exhaustive on random windows" ~count:6
    QCheck2.Gen.(pair (int_range 1 500) bool)
    (fun (seed, open_m1) ->
      match milp_and_exhaustive ~seed ~open_m1 with
      | None -> true (* no suitable window for this seed *)
      | Some (milp_obj, exact_obj) -> abs_float (milp_obj -. exact_obj) < 0.5)

(* the OpenM1 window of seed 464: its node relaxations used to drift off
   a feasible basis into the LP iteration limit, and branch and bound
   did not return for hours *)
let test_milp_seed464_open () =
  let t0 = Sys.time () in
  match milp_and_exhaustive ~seed:464 ~open_m1:true with
  | None -> Alcotest.fail "seed 464 has no 2-4-cell window"
  | Some (milp_obj, exact_obj) ->
    Alcotest.(check (float 0.5)) "MILP = exhaustive" exact_obj milp_obj;
    let cpu_s = Sys.time () -. t0 in
    Alcotest.(check bool)
      (Printf.sprintf "under 10 s (%.2f s CPU)" cpu_s)
      true (cpu_s < 10.0)

(* diagonal batches always have pairwise-disjoint projections and cover
   every window, for arbitrary grid offsets *)
let prop_diagonal_batches =
  QCheck2.Test.make ~name:"diagonal batches disjoint and covering" ~count:25
    QCheck2.Gen.(quad (int_range 1 500) (int_range 0 30) (int_range 0 5)
                   (pair (int_range 8 60) (int_range 2 10)))
    (fun (seed, tx, ty, (bw, bh)) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.72 in
      Place.Global.place p;
      let ws = Vm1.Window.partition p ~tx ~ty ~bw ~bh in
      let batches = Vm1.Window.diagonal_batches ws in
      let total = List.fold_left (fun acc b -> acc + Array.length b) 0 batches in
      total = Array.length ws
      && List.for_all
           (fun batch ->
             let ok = ref true in
             Array.iteri
               (fun i (a : Vm1.Window.t) ->
                 Array.iteri
                   (fun j (b : Vm1.Window.t) ->
                     if i < j && (a.ix = b.ix || a.iy = b.iy) then ok := false)
                   batch)
               batch;
             !ok)
           batches)

(* instrumentation is observation-only: with tracing enabled the
   optimiser produces the exact same placement as with it disabled,
   sequentially and under domain-parallel batch solving *)
let prop_instrumented_run_identical =
  QCheck2.Test.make ~name:"instrumented run = uninstrumented run" ~count:6
    QCheck2.Gen.(pair (int_range 1 1000) bool)
    (fun (seed, parallel) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.72 in
      Place.Global.place p;
      let q = Place.Placement.copy p in
      let params = Vm1.Params.default p.Place.Placement.tech in
      let cfg =
        {
          Vm1.Dist_opt.tx = 0;
          ty = 0;
          bw = 40;
          bh = 6;
          lx = 3;
          ly = 1;
          allow_flip = true;
          allow_move = true;
          mode = `Greedy;
          parallel;
          candidate_cost = None;
        }
      in
      Obs.set_enabled false;
      let s1 = Vm1.Dist_opt.run p params cfg in
      Obs.set_enabled true;
      let s2 =
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () -> Vm1.Dist_opt.run q params cfg)
      in
      s1.Vm1.Dist_opt.total_moves = s2.Vm1.Dist_opt.total_moves
      && p.Place.Placement.xs = q.Place.Placement.xs
      && p.Place.Placement.ys = q.Place.Placement.ys
      && p.Place.Placement.orients = q.Place.Placement.orients)

(* STA: lengthening any single net never shortens the critical path *)
let prop_sta_monotone =
  QCheck2.Test.make ~name:"STA monotone in net length" ~count:20
    QCheck2.Gen.(pair (int_range 1 500) (int_range 0 10_000))
    (fun (seed, pick) ->
      let d = design_of_seed ~n:150 seed in
      let nn = Netlist.Design.num_nets d in
      let lengths = Array.make nn 500 in
      let base = Sta.Timing.analyze d ~net_lengths:lengths in
      let target = pick mod nn in
      lengths.(target) <- lengths.(target) + 100_000;
      let bumped = Sta.Timing.analyze d ~net_lengths:lengths in
      bumped.Sta.Timing.critical_ps >= base.Sta.Timing.critical_ps -. 1e-9)

let () =
  Alcotest.run "properties"
    [
      ( "substrates",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_generator_always_valid;
            prop_legalizer_always_legal;
            prop_global_place_legal;
            prop_def_roundtrip;
            prop_row_dp_monotone;
          ] );
      ( "router",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_routed_paths_connected; prop_usage_consistent;
            prop_pin_access_index_matches_scan;
          ] );
      ( "optimizer",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_move_delta_exact; prop_greedy_monotone_legal;
            prop_shove_row_index;
            prop_milp_equals_exhaustive; prop_diagonal_batches;
            prop_instrumented_run_identical;
          ]
        @ [
            Alcotest.test_case "MILP = exhaustive, OpenM1 seed-464 window"
              `Quick test_milp_seed464_open;
          ] );
      ( "sta",
        List.map QCheck_alcotest.to_alcotest [ prop_sta_monotone ] );
    ]
