(* Tests for the design database, the synthetic generator and text IO. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1)

let small ?(n = 300) ?(seed = 7) () =
  Netlist.Generator.generate lib
    (Netlist.Generator.default_config ~n_instances:n ~seed)
    ~name:"t"

(* --- Design --- *)

let test_generator_valid () =
  let d = small () in
  Alcotest.(check (list string)) "validate" [] (Netlist.Design.validate d);
  check "instances" 300 (Netlist.Design.num_instances d)

let test_generator_deterministic () =
  let d1 = small () and d2 = small () in
  check "same nets" (Netlist.Design.num_nets d1) (Netlist.Design.num_nets d2);
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      checks "same master" inst.master.Pdk.Stdcell.name
        d2.instances.(i).master.Pdk.Stdcell.name)
    d1.instances

let test_generator_seeds_differ () =
  let d1 = small ~seed:1 () and d2 = small ~seed:2 () in
  let masters d =
    Array.to_list
      (Array.map
         (fun (i : Netlist.Design.instance) -> i.master.Pdk.Stdcell.name)
         d.Netlist.Design.instances)
  in
  checkb "different mixes" true (masters d1 <> masters d2)

let test_dff_fraction () =
  let d =
    Netlist.Generator.generate lib
      { (Netlist.Generator.default_config ~n_instances:2000 ~seed:3) with
        dff_fraction = 0.2 }
      ~name:"t"
  in
  let dffs =
    Array.fold_left
      (fun acc (i : Netlist.Design.instance) ->
        if Pdk.Stdcell.is_sequential i.master then acc + 1 else acc)
      0 d.instances
  in
  let frac = float_of_int dffs /. 2000.0 in
  checkb "dff fraction near 0.2" true (frac > 0.15 && frac < 0.25)

let test_comb_edges_acyclic () =
  (* generator invariant: combinational edges go from lower id to higher *)
  let d = small ~n:800 () in
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      List.iteri
        (fun k (pin : Pdk.Stdcell.pin) ->
          if pin.Pdk.Stdcell.dir = Pdk.Stdcell.Input then begin
            let n = inst.pin_nets.(k) in
            if n >= 0 && Array.length d.nets.(n).pins > 0 then begin
              let drv = d.nets.(n).pins.(0) in
              let m = Netlist.Design.instance_master d drv.inst in
              let is_output =
                (List.nth m.Pdk.Stdcell.pins drv.pin).Pdk.Stdcell.dir
                = Pdk.Stdcell.Output
              in
              if is_output && not (Pdk.Stdcell.is_sequential m) then
                checkb
                  (Printf.sprintf "edge %d <- %d forward" i drv.inst)
                  true (drv.inst < i)
            end
          end)
        inst.master.Pdk.Stdcell.pins)
    d.instances

let test_clock_net () =
  let d = small () in
  let clocks =
    Array.to_list d.nets |> List.filter (fun (n : Netlist.Design.net) -> n.is_clock)
  in
  check "exactly one clock" 1 (List.length clocks);
  let clk = List.hd clocks in
  (* every flip-flop CK pin is on the clock net *)
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      if Pdk.Stdcell.is_sequential inst.master then begin
        let found =
          Array.exists (fun (pr : Netlist.Design.pin_ref) -> pr.inst = i) clk.pins
        in
        checkb "dff on clock" true found
      end)
    d.instances

let test_signal_nets_exclude_clock () =
  let d = small () in
  let signal = Netlist.Design.signal_nets d in
  List.iter (fun n -> checkb "not clock" false d.nets.(n).is_clock) signal;
  List.iter (fun n -> checkb "degree >= 2" true (Netlist.Design.net_degree d n >= 2)) signal

let test_nets_of_instance () =
  let d = small () in
  let nets = Netlist.Design.nets_of_instance d 10 in
  checkb "no duplicates" true
    (List.length nets = List.length (List.sort_uniq Int.compare nets));
  List.iter
    (fun n ->
      let net = d.nets.(n) in
      checkb "net points back" true
        (Array.exists (fun (pr : Netlist.Design.pin_ref) -> pr.inst = 10) net.pins))
    nets

let test_stats_string () =
  let d = small () in
  let s = Netlist.Design.stats d in
  checkb "mentions name" true
    (String.length s > 0 && String.sub s 0 1 = "t")

(* --- named designs --- *)

let test_designs_scaling () =
  let d = Netlist.Designs.make ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  check "scaled size" (9922 / 32) (Netlist.Design.num_instances d);
  Alcotest.(check (list string)) "valid" [] (Netlist.Design.validate d)

let test_designs_names () =
  List.iter
    (fun n ->
      checkb "roundtrip" true
        (Netlist.Designs.of_string (Netlist.Designs.to_string n) = Some n))
    Netlist.Designs.all;
  check "paper count aes" 12345 (Netlist.Designs.paper_instances Netlist.Designs.Aes);
  check "paper count vga" 68606 (Netlist.Designs.paper_instances Netlist.Designs.Vga)

let test_designs_arch_consistency () =
  (* the same design name/scale produces identical connectivity on both
     architectures (only pin geometry differs) *)
  let dc = Netlist.Designs.make ~scale:32 Netlist.Designs.Aes Pdk.Cell_arch.Closed_m1 in
  let dop = Netlist.Designs.make ~scale:32 Netlist.Designs.Aes Pdk.Cell_arch.Open_m1 in
  check "same instances" (Netlist.Design.num_instances dc)
    (Netlist.Design.num_instances dop);
  check "same nets" (Netlist.Design.num_nets dc) (Netlist.Design.num_nets dop);
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      checks "same master" inst.master.Pdk.Stdcell.name
        dop.instances.(i).master.Pdk.Stdcell.name)
    dc.instances

let () =
  Alcotest.run "netlist"
    [
      ( "generator",
        [
          Alcotest.test_case "valid" `Quick test_generator_valid;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_generator_seeds_differ;
          Alcotest.test_case "dff fraction" `Quick test_dff_fraction;
          Alcotest.test_case "comb edges acyclic" `Quick test_comb_edges_acyclic;
          Alcotest.test_case "clock net" `Quick test_clock_net;
        ] );
      ( "design",
        [
          Alcotest.test_case "signal nets" `Quick test_signal_nets_exclude_clock;
          Alcotest.test_case "nets_of_instance" `Quick test_nets_of_instance;
          Alcotest.test_case "stats" `Quick test_stats_string;
        ] );
      ( "designs",
        [
          Alcotest.test_case "scaling" `Quick test_designs_scaling;
          Alcotest.test_case "names" `Quick test_designs_names;
          Alcotest.test_case "arch consistency" `Quick test_designs_arch_consistency;
        ] );
    ]
