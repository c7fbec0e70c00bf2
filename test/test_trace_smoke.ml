(* Tier-1 smoke check on a real emitted trace: run as
   [test_trace_smoke.exe trace.json [stdout.txt]] after a
   [vm1opt --trace trace.json --metrics > stdout.txt] run (see the rule
   in test/dune). Validates that the file is well-formed JSON and
   contains the observability the perf workflow relies on: per-batch
   solve spans, SCP move counts, and the router overflow counters. With
   the captured stdout, also checks that the [--metrics] tables are
   exactly [vm1trace report]'s tables over the written trace. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "smoke_trace.json" in
  let j =
    match Obs.Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> fail "%s: invalid JSON: %s" path e
  in
  if Obs.Json.member "schema" j <> Some (Obs.Json.Str Obs.Schemas.trace) then
    fail "%s: missing or unexpected schema tag" path;
  (* per-batch solve spans somewhere in the span forest *)
  let span_names = Hashtbl.create 64 in
  let rec collect = function
    | Obs.Json.Obj _ as s ->
      (match Obs.Json.member "name" s with
      | Some (Obs.Json.Str n) -> Hashtbl.replace span_names n ()
      | _ -> ());
      (match Obs.Json.member "children" s with
      | Some (Obs.Json.List cs) -> List.iter collect cs
      | _ -> ())
    | _ -> ()
  in
  (match Obs.Json.member "spans" j with
  | Some (Obs.Json.List spans) ->
    if spans = [] then fail "%s: no spans recorded" path;
    List.iter collect spans
  | _ -> fail "%s: no spans array" path);
  List.iter
    (fun required ->
      if not (Hashtbl.mem span_names required) then
        fail "%s: span %S missing from trace" path required)
    [ "distopt.batch"; "distopt.solve"; "route"; "vm1opt.run" ];
  (* SCP move counts and router overflow counters *)
  let counters =
    match Obs.Json.member "counters" j with
    | Some c -> c
    | None -> fail "%s: no counters object" path
  in
  List.iter
    (fun name ->
      match Obs.Json.member name counters with
      | Some (Obs.Json.Int _) -> ()
      | _ -> fail "%s: counter %S missing" path name)
    [ "scp.moves"; "scp.windows_solved"; "route.failed_subnets";
      "route.ripup_nets" ];
  (match Obs.Json.member "gauges" j with
  | Some g ->
    if Obs.Json.member "route.overflow_edges" g = None then
      fail "%s: gauge route.overflow_edges missing" path
  | None -> fail "%s: no gauges object" path);
  (match Sys.argv with
  | [| _; _; stdout_path |] ->
    let tables =
      match Trace.Model.of_json j with
      | Ok t -> Trace.Profile.to_text t
      | Error e -> fail "%s: %s" path e
    in
    if not (String.ends_with ~suffix:tables (read_file stdout_path)) then
      fail "%s: --metrics tables differ from the report over %s" stdout_path
        path
  | _ -> ());
  print_endline "trace smoke check OK"
