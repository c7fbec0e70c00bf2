type attr = [ `Int of int | `Float of float | `Str of string ]

type span = {
  name : string;
  start_ns : int;
  dur_ns : int;
  attrs : (string * attr) list;
  children : span list;
}

type hist = Obs.Histogram.snap = {
  bounds : float array;
  counts : int array;
  count : int;
  sum : float;
}

type t = {
  spans : span list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
}

let end_ns s = s.start_ns + s.dur_ns

let attr_int s k =
  match List.assoc_opt k s.attrs with
  | Some (`Int i) -> Some i
  | Some (`Float f) -> Some (int_of_float f)
  | _ -> None

let attr_str s k =
  match List.assoc_opt k s.attrs with Some (`Str v) -> Some v | _ -> None

(* --- parsing -------------------------------------------------------- *)

module J = Obs.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let as_int path = function
  | J.Int i -> i
  | J.Float f -> int_of_float f
  | _ -> bad "%s: expected a number" path

let as_float path = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> bad "%s: expected a number" path

let as_str path = function
  | J.Str s -> s
  | _ -> bad "%s: expected a string" path

let as_obj path = function
  | J.Obj kvs -> kvs
  | _ -> bad "%s: expected an object" path

let as_list path = function
  | J.List l -> l
  | _ -> bad "%s: expected an array" path

let parse_attr path = function
  | J.Int i -> `Int i
  | J.Float f -> `Float f
  | J.Str s -> `Str s
  | _ -> bad "%s: expected a number or string attribute" path

let field path kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> bad "%s: missing field %S" path k

let rec parse_span path j =
  let kvs = as_obj path j in
  let name = as_str (path ^ ".name") (field path kvs "name") in
  let path = path ^ ":" ^ name in
  {
    name;
    start_ns = as_int (path ^ ".start_ns") (field path kvs "start_ns");
    dur_ns = as_int (path ^ ".dur_ns") (field path kvs "dur_ns");
    attrs =
      (match List.assoc_opt "attrs" kvs with
      | None -> []
      | Some a ->
        List.map
          (fun (k, v) -> (k, parse_attr (path ^ ".attrs." ^ k) v))
          (as_obj (path ^ ".attrs") a));
    children =
      (match List.assoc_opt "children" kvs with
      | None -> []
      | Some c ->
        List.map (parse_span path) (as_list (path ^ ".children") c));
  }

let parse_hist path j =
  let kvs = as_obj path j in
  {
    bounds =
      Array.of_list
        (List.map
           (as_float (path ^ ".bounds"))
           (as_list (path ^ ".bounds") (field path kvs "bounds")));
    counts =
      Array.of_list
        (List.map
           (as_int (path ^ ".counts"))
           (as_list (path ^ ".counts") (field path kvs "counts")));
    count = as_int (path ^ ".count") (field path kvs "count");
    sum = as_float (path ^ ".sum") (field path kvs "sum");
  }

(* the metric members shared by a trace and a metrics scrape *)
let parse_metrics what kvs spans =
  {
    spans;
    counters =
      List.map
        (fun (k, v) -> (k, as_int ("counters." ^ k) v))
        (as_obj "counters" (field what kvs "counters"));
    gauges =
      List.map
        (fun (k, v) -> (k, as_float ("gauges." ^ k) v))
        (as_obj "gauges" (field what kvs "gauges"));
    histograms =
      List.map
        (fun (k, v) -> (k, parse_hist ("histograms." ^ k) v))
        (as_obj "histograms" (field what kvs "histograms"));
  }

let guard f = match f () with t -> Ok t | exception Bad m -> Error m

let of_json j =
  guard (fun () ->
      let kvs = as_obj "trace" j in
      let schema = as_str "schema" (field "trace" kvs "schema") in
      if not (String.equal schema Obs.Schemas.trace) then
        bad "unsupported schema %S (want %S)" schema Obs.Schemas.trace;
      parse_metrics "trace" kvs
        (List.map (parse_span "spans")
           (as_list "spans" (field "trace" kvs "spans"))))

let metrics_of_json j =
  guard (fun () -> parse_metrics "metrics" (as_obj "metrics" j) [])

let of_string s =
  match J.parse s with
  | Error m -> Error ("bad JSON: " ^ m)
  | Ok j -> of_json j

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | s -> (
    match of_string s with
    | Ok t -> Ok t
    | Error m -> Error (Printf.sprintf "%s: %s" path m))

(* --- traversal ------------------------------------------------------ *)

let iter t f =
  let rec go depth s =
    f ~depth s;
    List.iter (go (depth + 1)) s.children
  in
  List.iter (go 0) t.spans

let wall_ns t =
  match t.spans with
  | [] -> 0
  | s0 :: rest ->
    let lo, hi =
      List.fold_left
        (fun (lo, hi) s -> (min lo s.start_ns, max hi (end_ns s)))
        (s0.start_ns, end_ns s0)
        rest
    in
    hi - lo

let prune ~prefixes t =
  match prefixes with
  | [] -> t
  | _ ->
    let drop name =
      List.exists (fun p -> String.starts_with ~prefix:p name) prefixes
    in
    let rec spans l =
      List.concat_map
        (fun s ->
          let children = spans s.children in
          if drop s.name then children else [ { s with children } ])
        l
    in
    let keep l = List.filter (fun (k, _) -> not (drop k)) l in
    {
      spans = spans t.spans;
      counters = keep t.counters;
      gauges = keep t.gauges;
      histograms = keep t.histograms;
    }

(* --- metric deltas --------------------------------------------------- *)

(* bounds are fixed when a histogram is created, so differing bucket
   counts mean the two readings come from different processes *)
let sub_hist (b : hist) (a : hist) =
  if Array.length b.counts <> Array.length a.counts then a
  else
    {
      a with
      counts = Array.mapi (fun i c -> c - b.counts.(i)) a.counts;
      count = a.count - b.count;
      sum = a.sum -. b.sum;
    }

let delta ~before after =
  let diff sub prev =
    List.map (fun (k, v) ->
        match List.assoc_opt k prev with Some p -> (k, sub p v) | None -> (k, v))
  in
  {
    spans = [];
    counters = diff (fun p v -> v - p) before.counters after.counters;
    gauges = after.gauges;
    histograms = diff sub_hist before.histograms after.histograms;
  }
