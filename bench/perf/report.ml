(** Benchmark results: the metric record, the one-line JSON verdict, and
    the result files [compare] reads.

    Floats are written with 17 significant digits — every digit measured —
    unlike {!Acrobat.Obs.Json.to_string}, which rounds to 6 for
    byte-stable artifacts. *)

module Json = Acrobat.Obs.Json

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  workload : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;  (** Why [correct] is false, one line each. *)
  metrics : metric list;
  notes : metric list;
      (** Printed and saved beside the metrics, outside the verdict: what
          the host's speed was during the run. *)
}

let rec emit buf = function
  | Json.Float f when Float.is_finite f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Json.Float _ -> Buffer.add_string buf "null"
  | Json.List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Json.Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Json.to_string (Json.Str k));
        Buffer.add_string buf ": ";
        emit buf v)
      fields;
    Buffer.add_char buf '}'
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Str _) as v ->
    Buffer.add_string buf (Json.to_string v)

let to_string j =
  let buf = Buffer.create 1024 in
  emit buf j;
  Buffer.contents buf

let write path j =
  let oc = open_out path in
  output_string oc (to_string j);
  output_char oc '\n';
  close_out oc

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> m.name, Json.Obj [ "value", Json.Float m.value; "unit", Json.Str m.unit_ ])
       ms)

(** The verdict line: exactly [correct], [attempted], [failed], [metrics]. *)
let verdict ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      "correct", Json.Bool correct;
      "attempted", Json.Int attempted;
      "failed", Json.Int failed;
      "metrics", metrics;
    ]

let outcome_json (o : outcome) =
  Json.Obj
    [
      "name", Json.Str o.workload;
      "traced", Json.Bool o.traced;
      "correct", Json.Bool o.correct;
      "attempted", Json.Int o.attempted;
      "failed", Json.Int o.failed;
      "problems", Json.List (List.map (fun p -> Json.Str p) o.problems);
      "metrics", metrics_json o.metrics;
      "notes", metrics_json o.notes;
    ]

(** A result file: the settings of the run, so [compare] can refuse to
    pair runs made with different ones, and its workloads. *)
let result_json ~seed ~seconds workloads =
  Json.Obj [ "seed", Json.Int seed; "seconds", Json.Float seconds; "workloads", Json.List workloads ]

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "@[<v>workload %s (%s)@," o.workload (if o.traced then "traced" else "untraced");
  let line m = Fmt.pf ppf "  %-34s %16.6f %s@," m.name m.value m.unit_ in
  List.iter line o.metrics;
  if o.notes <> [] then Fmt.pf ppf "  notes:@,";
  List.iter line o.notes;
  List.iter (fun p -> Fmt.pf ppf "  PROBLEM: %s@," p) o.problems;
  Fmt.pf ppf "  correct %b, attempted %d, failed %d@]" o.correct o.attempted o.failed

(* --- Reading result files back (compare) --- *)

let fail fmt = Fmt.kstr failwith fmt

let num path = function
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | Json.Null -> nan
  | _ -> fail "%s: metric value is not a number" path

type result_file = {
  seed : int;
  seconds : float;
  rows : (string * string * float) list;  (** [(workload, metric, value)]. *)
}

let read path : result_file =
  let j = Json.of_file path in
  let workloads =
    match Option.bind (Json.member "workloads" j) Json.to_list_opt with
    | Some ws -> ws
    | None -> fail "%s: no \"workloads\" list" path
  in
  let setting key =
    match Json.member key j with
    | Some ((Json.Int _ | Json.Float _) as v) -> num path v
    | _ -> fail "%s: no %S" path key
  in
  let rows =
    List.concat_map
      (fun w ->
        let name =
          match Json.member "name" w with Some (Json.Str s) -> s | _ -> fail "%s: unnamed workload" path
        in
        match Json.member "metrics" w with
        | Some (Json.Obj ms) ->
          List.map
            (fun (metric, v) ->
              match Json.member "value" v with
              | Some x -> name, metric, num path x
              | None -> fail "%s: %s.%s has no value" path name metric)
            ms
        | _ -> fail "%s: workload %s has no metrics" path name)
      workloads
  in
  { seed = int_of_float (setting "seed"); seconds = setting "seconds"; rows }
