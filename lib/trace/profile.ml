type row = {
  name : string;
  calls : int;
  total_ns : int;
  self_ns : int;
  min_ns : int;
  max_ns : int;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
}

type acc = {
  mutable durs : int list;
  mutable self : int;
}

(* Nearest-rank percentile over the exact durations: element number
   ceil(q * n) of the sorted list (1-based). *)
let nearest_rank sorted n q =
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  let idx = min (n - 1) (max 0 (rank - 1)) in
  sorted.(idx)

let rows (t : Model.t) =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 32 in
  Model.iter t (fun ~depth:_ s ->
      let child_ns =
        List.fold_left (fun a (c : Model.span) -> a + c.dur_ns) 0 s.children
      in
      let self = max 0 (s.dur_ns - child_ns) in
      match Hashtbl.find_opt tbl s.name with
      | Some a ->
        a.durs <- s.dur_ns :: a.durs;
        a.self <- a.self + self
      | None -> Hashtbl.add tbl s.name { durs = [ s.dur_ns ]; self });
  Hashtbl.fold
    (fun name a acc ->
      let durs = Array.of_list a.durs in
      Array.sort Int.compare durs;
      let n = Array.length durs in
      {
        name;
        calls = n;
        total_ns = Array.fold_left ( + ) 0 durs;
        self_ns = a.self;
        min_ns = durs.(0);
        max_ns = durs.(n - 1);
        p50_ns = nearest_rank durs n 0.50;
        p90_ns = nearest_rank durs n 0.90;
        p99_ns = nearest_rank durs n 0.99;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Int.compare b.total_ns a.total_ns with
         | 0 -> String.compare a.name b.name
         | c -> c)

module J = Obs.Json

let row_json r =
  J.Obj
    [
      ("name", J.Str r.name);
      ("calls", J.Int r.calls);
      ("total_ns", J.Int r.total_ns);
      ("self_ns", J.Int r.self_ns);
      ("min_ns", J.Int r.min_ns);
      ("max_ns", J.Int r.max_ns);
      ("p50_ns", J.Int r.p50_ns);
      ("p90_ns", J.Int r.p90_ns);
      ("p99_ns", J.Int r.p99_ns);
    ]

let to_json (t : Model.t) =
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.trace_report);
      ("wall_ns", J.Int (Model.wall_ns t));
      ("roots", J.Int (List.length t.spans));
      ("spans", J.List (List.map row_json (rows t)));
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) t.counters));
      ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) t.gauges));
      ( "histograms",
        J.Obj
          (List.map
             (fun (k, (h : Model.hist)) ->
               ( k,
                 J.Obj
                   [
                     ("count", J.Int h.count);
                     ("sum", J.Float h.sum);
                     ("p50", J.Float (Obs.Histogram.percentile h 0.50));
                     ("p90", J.Float (Obs.Histogram.percentile h 0.90));
                     ("p99", J.Float (Obs.Histogram.percentile h 0.99));
                   ] ))
             t.histograms) );
    ]

(* --- text tables ---------------------------------------------------- *)

let ms ns = float_of_int ns /. 1e6

(* Registered-but-never-touched metrics (instrumented code paths the run
   did not reach) render as noise, so only live values are shown, and a
   section with nothing live is omitted. *)
let to_text ?(top = 0) (t : Model.t) =
  let rows = rows t in
  let rows =
    match top with 0 -> rows | n -> List.filteri (fun i _ -> i < n) rows
  in
  let section l render =
    match l with
    | [] -> None
    | _ ->
      let b = Buffer.create 1024 in
      render b l;
      Some (Buffer.contents b)
  in
  let sections =
    [
      section rows (fun b rows ->
          Printf.bprintf b "%-28s %8s %12s %12s %10s %10s %10s\n" "span"
            "calls" "total ms" "self ms" "p50 ms" "p90 ms" "p99 ms";
          List.iter
            (fun r ->
              Printf.bprintf b "%-28s %8d %12.3f %12.3f %10.3f %10.3f %10.3f\n"
                r.name r.calls (ms r.total_ns) (ms r.self_ns) (ms r.p50_ns)
                (ms r.p90_ns) (ms r.p99_ns))
            rows);
      section (List.filter (fun (_, v) -> v <> 0) t.counters) (fun b l ->
          Printf.bprintf b "%-40s %12s\n" "counter" "value";
          List.iter (fun (k, v) -> Printf.bprintf b "%-40s %12d\n" k v) l);
      section (List.filter (fun (_, v) -> v <> 0.0) t.gauges) (fun b l ->
          Printf.bprintf b "%-40s %12s\n" "gauge" "value";
          List.iter (fun (k, v) -> Printf.bprintf b "%-40s %12g\n" k v) l);
      section
        (List.filter (fun (_, (h : Model.hist)) -> h.count > 0) t.histograms)
        (fun b l ->
          Printf.bprintf b "%-32s %8s %10s %10s %10s %10s\n" "histogram"
            "count" "sum" "p50" "p90" "p99";
          List.iter
            (fun (k, (h : Model.hist)) ->
              let p = Obs.Histogram.percentile h in
              Printf.bprintf b "%-32s %8d %10g %10g %10g %10g\n" k h.count
                h.sum (p 0.50) (p 0.90) (p 0.99))
            l);
    ]
  in
  String.concat "\n" (List.filter_map Fun.id sections)

let snapshot_text snap =
  match Model.of_json (Obs.trace_json snap) with
  | Ok t -> to_text t
  | Error m -> invalid_arg ("Profile.snapshot_text: " ^ m)
