(* DistOpt-profile regression gate for the @distopt-bench-smoke alias.

   Usage: check_distopt_profile.exe BASELINE.json CURRENT.json

   Both files follow the vm1dp-distopt-profile/1 schema emitted by
   [main.exe distopt-profile]. The gated quantities are the deterministic
   ones — moves, windows, HPWL, alignments are a pure function of the
   design and scale, so any drift is a real behaviour change.
   Wall-clock and percentile fields are printed for the log but never
   gated; CI machines are too noisy for that. *)

let read_json path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Json.parse text with
  | Ok j -> j
  | Error msg ->
    Printf.eprintf "check_distopt_profile: %s: bad JSON: %s\n" path msg;
    exit 2

let get_int path j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.Int v) -> v
  | _ ->
    Printf.eprintf "check_distopt_profile: %s: missing int field %S\n" path
      key;
    exit 2

let get_float path j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.Float v) -> v
  | Some (Obs.Json.Int v) -> float_of_int v
  | _ ->
    Printf.eprintf "check_distopt_profile: %s: missing float field %S\n" path
      key;
    exit 2

let () =
  let base_path, cur_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
      prerr_endline
        "usage: check_distopt_profile.exe BASELINE.json CURRENT.json";
      exit 2
  in
  let base = read_json base_path and cur = read_json cur_path in
  (match (Obs.Json.member "schema" base, Obs.Json.member "schema" cur) with
  | Some (Obs.Json.Str b), Some (Obs.Json.Str c)
    when String.equal b Obs.Schemas.distopt_profile
         && String.equal c Obs.Schemas.distopt_profile -> ()
  | _ ->
    prerr_endline "check_distopt_profile: schema mismatch";
    exit 2);
  Printf.printf "distopt cold_s: baseline %.3f, current %.3f (informational)\n"
    (get_float base_path base "distopt_cold_s")
    (get_float cur_path cur "distopt_cold_s");
  let bad = ref false in
  let gate_int key =
    let b = get_int base_path base key and c = get_int cur_path cur key in
    Printf.printf "%s: baseline %d, current %d\n" key b c;
    if c <> b then begin
      Printf.eprintf "REGRESSION: %s %d <> baseline %d\n" key c b;
      bad := true
    end
  in
  gate_int "windows";
  gate_int "moves";
  gate_int "hpwl_dbu";
  gate_int "alignments";
  if !bad then exit 1;
  print_endline "distopt profile OK"
