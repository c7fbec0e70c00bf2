(* The benchmark's inputs are a pure function of the workload seed: the
   same seed gives byte-identical inputs, another seed gives other ones,
   and the default seed gives exactly the netlist vm1opt builds for jpeg. *)

let netlist_bytes (d : Netlist.Design.t) =
  let p = Place.Placement.create d ~utilization:0.75 in
  Io.Def.write d (Place.Placement.to_def p)

let jpeg_netlist ~seed = Inputs.jpeg_netlist (Inputs.library ()) ~seed ~scale:64
let jpeg ~seed = netlist_bytes (jpeg_netlist ~seed)

let mix ~seed =
  let jobs, _ = Inputs.serve_mix ~seed in
  String.concat "\n" (List.map (fun (j : Inputs.job) -> j.Inputs.line) jobs)

let check name ok =
  if not ok then begin
    prerr_endline ("test_inputs: FAILED " ^ name);
    exit 1
  end

let () =
  check "flow netlist: same seed, same bytes" (jpeg ~seed:5 = jpeg ~seed:5);
  check "flow netlist: other seed, other bytes" (jpeg ~seed:5 <> jpeg ~seed:6);
  check "flow netlist: renumbered nets still form a valid design"
    (Check.design (jpeg_netlist ~seed:5) = []);
  List.iter
    (fun scale ->
      let ours =
        Inputs.jpeg_netlist (Inputs.library ()) ~seed:Inputs.default_seed ~scale
      in
      let vm1opt = Netlist.Designs.make ~scale Netlist.Designs.Jpeg Inputs.arch in
      check
        (Printf.sprintf "default seed reproduces jpeg at scale %d" scale)
        (netlist_bytes ours = netlist_bytes vm1opt))
    [ 8; 16 ];
  let a = mix ~seed:5 in
  check "serve_mix: same seed, same lines" (a = mix ~seed:5);
  check "serve_mix: other seed, other lines" (a <> mix ~seed:6);
  check "serve_mix: 104 jobs"
    (List.length (String.split_on_char '\n' a) = 104);
  print_endline "test_inputs: ok"
