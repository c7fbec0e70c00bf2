let aes_closed ?scale ?(arch = Pdk.Cell_arch.Closed_m1) () =
  Flow.prepare ?scale Netlist.Designs.Aes arch

(* One pair of DistOpt calls (perturb then flip) with the given parameter
   set — the unit of work ExptA-1 measures. *)
let one_shot ?(mode = `Greedy) (p : Place.Placement.t) params ~bw_um ~lx ~ly =
  let tech = p.Place.Placement.tech in
  let bw_dbu = int_of_float (bw_um *. 1000.0) in
  let bw = max (2 * (lx + 4)) (bw_dbu / tech.Pdk.Tech.site_width) in
  let bh = max (2 * (ly + 1)) (bw_dbu / tech.Pdk.Tech.row_height) in
  let t0 = Unix.gettimeofday () in
  let base =
    {
      Vm1.Dist_opt.tx = 0;
      ty = 0;
      bw;
      bh;
      lx;
      ly;
      allow_flip = false;
      allow_move = true;
      mode;
      parallel = false;
      candidate_cost = None;
    }
  in
  ignore (Vm1.Dist_opt.run p params base);
  ignore
    (Vm1.Dist_opt.run p params
       { base with Vm1.Dist_opt.lx = 0; ly = 0; allow_flip = true; allow_move = false });
  Unix.gettimeofday () -. t0

module Fig5 = struct
  type point = {
    bw_um : float;
    lx : int;
    ly : int;
    rwl_um : float;
    runtime_s : float;
  }

  let configs =
    (* window-size sweep at the (4,1) perturbation, plus the perturbation
       sweep at the 20um window the paper reads its operating point from.
       The sweep starts below the paper's 5um because the scaled dies are
       a few tens of um wide: sub-die windows are where the
       quality-vs-runtime tradeoff is visible. *)
    List.map (fun bw -> (bw, 4, 1)) [ 1.25; 2.5; 5.0; 10.0; 20.0; 40.0 ]
    @ List.map (fun (lx, ly) -> (20.0, lx, ly)) [ (2, 1); (3, 1); (5, 1); (4, 0) ]

  let run ?scale ?mode () =
    List.map
      (fun (bw_um, lx, ly) ->
        let p = aes_closed ?scale () in
        let params = Vm1.Params.default p.Place.Placement.tech in
        let runtime_s = one_shot ?mode p params ~bw_um ~lx ~ly in
        let r = Route.Router.route p in
        let s = Route.Metrics.summarize r in
        { bw_um; lx; ly; rwl_um = s.Route.Metrics.rwl_um; runtime_s })
      configs

  let render points =
    let min_rwl =
      List.fold_left (fun acc pt -> min acc pt.rwl_um) infinity points
    in
    Table.render
      ~header:[ "bw=bh(um)"; "lx"; "ly"; "RWL(um)"; "RWL(norm)"; "runtime(s)" ]
      ~rows:
        (List.map
           (fun pt ->
             [
               Table.f1 pt.bw_um;
               Table.fi pt.lx;
               Table.fi pt.ly;
               Table.f1 pt.rwl_um;
               Table.f3 (pt.rwl_um /. min_rwl);
               Table.f2 pt.runtime_s;
             ])
           points)
end

module Fig6 = struct
  type point = {
    alpha : float;
    rwl_um : float;
    dm1 : int;
    alignments : int;
  }

  let default_alphas = [ 0.; 10.; 100.; 400.; 800.; 1200.; 2000.; 4000.; 6000. ]

  let run ?scale ?arch ?(mode = `Greedy) ?(alphas = default_alphas) () =
    List.map
      (fun alpha ->
        let p = aes_closed ?scale ?arch () in
        let params =
          { (Vm1.Params.default p.Place.Placement.tech) with Vm1.Params.alpha }
        in
        let config = { Vm1.Vm1_opt.default_config with Vm1.Vm1_opt.mode } in
        ignore (Vm1.Vm1_opt.run ~config params p);
        let r = Route.Router.route p in
        let s = Route.Metrics.summarize r in
        let counts = Vm1.Objective.counts params p in
        {
          alpha;
          rwl_um = s.Route.Metrics.rwl_um;
          dm1 = s.Route.Metrics.dm1;
          alignments = counts.Vm1.Objective.alignments;
        })
      alphas

  let render points =
    Table.render
      ~header:[ "alpha"; "RWL(um)"; "#dM1"; "#alignments" ]
      ~rows:
        (List.map
           (fun pt ->
             [
               Table.f1 pt.alpha;
               Table.f1 pt.rwl_um;
               Table.fi pt.dm1;
               Table.fi pt.alignments;
             ])
           points)
end

module Fig7 = struct
  type point = {
    sequence : int;
    rwl_um : float;
    runtime_s : float;
  }

  let run ?scale ?(mode = `Greedy) () =
    List.map
      (fun sequence ->
        let p = aes_closed ?scale () in
        let params = Vm1.Params.default p.Place.Placement.tech in
        let config =
          {
            Vm1.Vm1_opt.default_config with
            Vm1.Vm1_opt.sequence = Vm1.Params.sequence sequence;
            mode;
          }
        in
        let report = Vm1.Vm1_opt.run ~config params p in
        let r = Route.Router.route p in
        let s = Route.Metrics.summarize r in
        {
          sequence;
          rwl_um = s.Route.Metrics.rwl_um;
          runtime_s = report.Vm1.Vm1_opt.runtime_s;
        })
      [ 1; 2; 3; 4; 5 ]

  let render points =
    Table.render
      ~header:[ "sequence"; "RWL(um)"; "runtime(s)" ]
      ~rows:
        (List.map
           (fun pt ->
             [ Table.fi pt.sequence; Table.f1 pt.rwl_um; Table.f2 pt.runtime_s ])
           points)
end

module Table2 = struct
  let run ?scale ?(mode = `Greedy)
      ?(archs = [ Pdk.Cell_arch.Closed_m1; Pdk.Cell_arch.Open_m1 ])
      ?(designs = Netlist.Designs.all) () =
    let config = { Vm1.Vm1_opt.default_config with Vm1.Vm1_opt.mode } in
    List.concat_map
      (fun arch ->
        List.map (fun d -> Flow.run_comparison ?scale ~config d arch) designs)
      archs

  let render comparisons =
    let row (c : Flow.comparison) =
      let i = c.Flow.init and f = c.Flow.final in
      [
        c.design_name;
        Table.fi c.instances;
        Table.f1 c.alpha;
        Table.fi i.Flow.dm1;
        Table.fi f.Flow.dm1;
        Table.pct (float_of_int i.Flow.dm1) (float_of_int f.Flow.dm1);
        Table.f1 i.m1_wl_um;
        Table.f1 f.m1_wl_um;
        Table.pct i.m1_wl_um f.m1_wl_um;
        Table.fi i.via12;
        Table.fi f.via12;
        Table.pct (float_of_int i.via12) (float_of_int f.via12);
        Table.f1 i.hpwl_um;
        Table.f1 f.hpwl_um;
        Table.pct i.hpwl_um f.hpwl_um;
        Table.f1 i.rwl_um;
        Table.f1 f.rwl_um;
        Table.pct i.rwl_um f.rwl_um;
        Table.f3 i.wns_ns;
        Table.f3 f.wns_ns;
        Table.f3 i.power_mw;
        Table.f3 f.power_mw;
        Table.pct i.power_mw f.power_mw;
        Table.fi i.drvs;
        Table.fi f.drvs;
        Table.f1 c.opt_runtime_s;
      ]
    in
    Table.render
      ~header:
        [
          "design"; "#inst"; "alpha";
          "dM1:i"; "dM1:f"; "(d%)";
          "M1WL:i"; "M1WL:f"; "(d%)";
          "via12:i"; "via12:f"; "(d%)";
          "HPWL:i"; "HPWL:f"; "(d%)";
          "RWL:i"; "RWL:f"; "(d%)";
          "WNS:i"; "WNS:f";
          "P:i"; "P:f"; "(d%)";
          "DRV:i"; "DRV:f"; "rt(s)";
        ]
      ~rows:(List.map row comparisons)
end

module Fig8 = struct
  type point = {
    utilization : float;
    drvs_init : int;
    drvs_opt : int;
    dm1_init : int;
    dm1_opt : int;
  }

  let default_utils = [ 0.78; 0.80; 0.82; 0.84; 0.86; 0.88 ]

  (* The paper induces congestion hotspots by raising utilisation on a
     fixed technology. Our synthetic designs route comfortably on the
     full 6-layer stack, so the congestion experiment additionally limits
     the router to a 3-layer stack (M1-M3) — the regime where DRVs appear
     and grow with utilisation, matching the figure's premise. *)
  let congested_router = { Route.Router.default_config with layers = 3 }

  let run ?scale ?(mode = `Greedy) ?(utils = default_utils) () =
    List.map
      (fun utilization ->
        let p =
          Flow.prepare ?scale ~utilization Netlist.Designs.Aes
            Pdk.Cell_arch.Closed_m1
        in
        let params = Vm1.Params.default p.Place.Placement.tech in
        let init, clock_ps =
          Flow.evaluate ~router_config:congested_router params p
        in
        let config = { Vm1.Vm1_opt.default_config with Vm1.Vm1_opt.mode } in
        ignore (Vm1.Vm1_opt.run ~config params p);
        let final, _ =
          Flow.evaluate ~clock_ps ~router_config:congested_router params p
        in
        {
          utilization;
          drvs_init = init.Flow.drvs;
          drvs_opt = final.Flow.drvs;
          dm1_init = init.Flow.dm1;
          dm1_opt = final.Flow.dm1;
        })
      utils

  let render points =
    Table.render
      ~header:[ "util"; "#DRV orig"; "#DRV opt"; "#dM1 orig"; "#dM1 opt" ]
      ~rows:
        (List.map
           (fun pt ->
             [
               Printf.sprintf "%.0f%%" (pt.utilization *. 100.0);
               Table.fi pt.drvs_init;
               Table.fi pt.drvs_opt;
               Table.fi pt.dm1_init;
               Table.fi pt.dm1_opt;
             ])
           points)
end
