(* Seeded workload inputs. Everything the program under test receives is
   built here from the workload seed, so one seed always gives the same
   bytes and the benchmark itself never picks inputs by hand. *)

(* jpeg's own generator seed: with it the flows reproduce
   [vm1opt -d jpeg --scale S --jobs 1] exactly *)
let default_seed = 37

let arch = Pdk.Cell_arch.Closed_m1
let library () = Pdk.Libgen.generate (Pdk.Tech.default arch)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done

(* jpeg's tuning of the generator (Netlist.Designs): a streaming pipeline,
   stage-local wiring, few global connections *)
let jpeg_config ~scale =
  let n = max 64 (Netlist.Designs.paper_instances Netlist.Designs.Jpeg / scale) in
  {
    (Netlist.Generator.default_config ~n_instances:n ~seed:default_seed) with
    Netlist.Generator.dff_fraction = 0.09;
    locality_window = 30;
    global_fraction = 0.015;
  }

(* [d] with its net ids renumbered by a seeded permutation: the same
   circuit, presented in another order *)
let renumber_nets rng (d : Netlist.Design.t) =
  let n = Array.length d.Netlist.Design.nets in
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  let nets = Array.make n d.nets.(0) in
  Array.iteri (fun old net -> nets.(perm.(old)) <- net) d.nets;
  let instances =
    Array.map
      (fun (i : Netlist.Design.instance) ->
        {
          i with
          Netlist.Design.pin_nets =
            Array.map (fun nid -> if nid < 0 then nid else perm.(nid)) i.pin_nets;
        })
      d.instances
  in
  { d with Netlist.Design.nets; instances }

(* The flows' netlist: jpeg's own, generated from jpeg's seed, with its
   nets renumbered by the workload seed (the default seed keeps jpeg's
   numbering, so it reproduces vm1opt). The seed does not regenerate the
   circuit: at scale 8 another circuit can leave the congested regime
   the workload exists for (see README.md, "Seeds"). *)
let jpeg_netlist lib ~seed ~scale =
  let d = Netlist.Generator.generate lib (jpeg_config ~scale) ~name:"jpeg" in
  if seed = default_seed then d
  else renumber_nets (Random.State.make [| seed; 0x9e7 |]) d

(* m0's tuning, for the 350-instance netlists behind the external-DEF
   jobs *)
let m0_config ~seed =
  {
    (Netlist.Generator.default_config ~n_instances:350 ~seed) with
    Netlist.Generator.dff_fraction = 0.14;
    locality_window = 25;
  }

(* --- serve_mix: a seeded stream of vm1dp-jobs/1 request lines --- *)

type job = {
  id : string;
  line : string;  (* the request line, id included *)
  spec : string;  (* the request without its id: equal specs must get
                     byte-identical result payloads *)
}

let spec_of (j : Serve.Protocol.job) =
  Serve.Protocol.encode_job { j with Serve.Protocol.id = "" }

(* [n] values cycling through [choices], in seeded order: the mix keeps
   the same share of each choice on every seed *)
let balanced rng n choices =
  let c = Array.of_list choices in
  let a = Array.init n (fun i -> c.(i mod Array.length c)) in
  shuffle rng a;
  a

(* The external-DEF jobs: seeded m0-flavoured netlists, placed by the
   same public entry point the daemon uses, emitted by the DEF codec.
   Each comes with the wall time of its netlist generation and of its
   placement, in ns, for the traced run. *)
let external_defs rng lib ~count =
  List.init count (fun _ ->
      let seed = Random.State.bits rng in
      let t0 = Obs.now_ns () in
      let design =
        Netlist.Generator.generate lib (m0_config ~seed)
          ~name:(Printf.sprintf "ext%d" seed)
      in
      let t1 = Obs.now_ns () in
      let p = Report.Flow.prepare_placement design in
      let t2 = Obs.now_ns () in
      ( Io.Def.write p.Place.Placement.design (Place.Placement.to_def p),
        (Int64.sub t1 t0, Int64.sub t2 t1) ))

(* 104 jobs, in seeded order: 12 fresh design/scale/util points (two of
   the three utilisations for each of m0/aes at scale 16, 24 and 32), 60
   variants (five per point: sequences 1-5, solvers greedy/anneal/
   portfolio in rotation, alphas 600/900/1800 in equal shares), 8
   external-placement jobs, and 24 identical re-submissions (each fresh
   point and each external job once, and 4 variants). The structure is
   fixed so every seed asks for about the same work; the seed draws the
   left-out utilisations, the solver rotation, the alphas, the external
   netlists, the re-submitted variants and the order. Returns the request
   lines and the external netlists' input timings (see [external_defs]). *)
let serve_mix ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let points =
    [
      (Netlist.Designs.M0, 16); (M0, 24); (M0, 32);
      (Aes, 16); (Aes, 24); (Aes, 32);
    ]
  in
  (* each utilisation is left out at exactly two of the six points *)
  let left_out = balanced rng (List.length points) [ 0.70; 0.75; 0.80 ] in
  let fresh =
    List.concat
      (List.mapi
         (fun k (design, scale) ->
           List.filter_map
             (fun util ->
               if util = left_out.(k) then None
               else Some (Serve.Protocol.generated_job ~id:"" ~scale ~util design))
             [ 0.70; 0.75; 0.80 ])
         points)
  in
  (* five variants per point, one per sequence; the solver rotates from a
     seeded offset, so each solver gets a third of every sequence *)
  let solvers = [| `Greedy; `Anneal; `Portfolio |] in
  let offset = Random.State.int rng 3 in
  let alphas = balanced rng (5 * List.length fresh) [ 600.; 900.; 1800. ] in
  let variants =
    List.concat
      (List.mapi
         (fun k base ->
           List.init 5 (fun j ->
               {
                 base with
                 Serve.Protocol.alpha = Some alphas.((5 * k) + j);
                 sequence = j + 1;
                 solver = Some solvers.((k + j + offset) mod 3);
               }))
         fresh)
  in
  let lib = library () in
  let defs = external_defs rng lib ~count:8 in
  let externals =
    List.map
      (fun (text, _) ->
        {
          Serve.Protocol.id = "";
          source = Serve.Protocol.External (Serve.Protocol.Inline text);
          arch;
          alpha = None;
          sequence = 1;
          solver = None;
          want_trace = false;
        })
      defs
  in
  let variants_a = Array.of_list variants in
  let repeats =
    fresh @ externals
    @ List.init 4 (fun _ ->
          variants_a.(Random.State.int rng (Array.length variants_a)))
  in
  let all = Array.of_list (fresh @ variants @ externals @ repeats) in
  shuffle rng all;
  ( Array.to_list
    (Array.mapi
       (fun i j ->
         let id = Printf.sprintf "j%03d" i in
         let j = { j with Serve.Protocol.id } in
         { id; line = Serve.Protocol.encode_job j; spec = spec_of j })
       all),
    List.map snd defs )

(* The daemon's warm-up request, outside the mix: the smallest m0 point,
   which only the library artifact shares with the mix. *)
let warmup_line =
  Serve.Protocol.encode_job
    (Serve.Protocol.generated_job ~id:"warmup" ~scale:64 Netlist.Designs.M0)
