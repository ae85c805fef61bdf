(* The host-time benchmark.

     dune exec bench/perf/main.exe -- [--workload NAME] [--seed N]
       [--seconds S] [--trace 0|1] [--out DIR]

   With --workload, runs that workload in this process and prints its
   metrics by name and unit, then the verdict as one JSON line with exactly
   the keys correct, attempted, failed and metrics. --trace 0 (the default)
   reports the end-to-end metrics; --trace 1 reports the per-layer ones and
   writes DIR/TRACE_<workload>.json. Without --workload, runs every
   workload, each in a fresh child process, and combines their results
   into DIR/result.json (result.trace.json when traced). Exits 1 if an
   output check failed, 2 on bad arguments.

   --seconds is the run length. It is part of the command interface
   BENCHMARK.json describes: its "command" is invoked with --workload,
   --seed, --seconds and --trace, and --seconds is given that file's
   "run_seconds", so both sides of a comparison run the same length. The
   default is that value too. Each result file records the seconds it ran
   with, and compare.exe refuses to pair runs of different lengths. *)

module Suite = Perf.Suite
module Report = Perf.Report
module Json = Acrobat.Obs.Json

let usage = "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]"
let workload = ref None
let seed = ref 1
let seconds = ref 22.0
let trace = ref 0
let out = ref "bench/perf/out"

let specs =
  [
    ( "--workload",
      Arg.String (fun w -> workload := Some w),
      "NAME  one of " ^ String.concat ", " (List.map (fun w -> w.Suite.name) Suite.workloads) );
    "--seed", Arg.Set_int seed, "N  seeds every generated input (default 1)";
    "--seconds", Arg.Set_float seconds, "S  run length: BENCHMARK.json's run_seconds (default 22)";
    "--trace", Arg.Set_int trace, "0|1  1 = traced run with per-layer metrics (default 0)";
    "--out", Arg.Set_string out, "DIR  results and traces (default bench/perf/out)";
  ]

let bad fmt =
  Fmt.kstr
    (fun m ->
      prerr_endline ("error: " ^ m);
      prerr_endline usage;
      exit 2)
    fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let result_path name =
  Filename.concat !out (name ^ (if !trace = 1 then ".trace" else "") ^ ".json")

let run_one (w : Suite.workload) =
  let traced = !trace = 1 in
  let o, sp = Suite.run ~trace:traced ~seed:!seed ~seconds:!seconds w in
  mkdir_p !out;
  Report.write (result_path w.Suite.name)
    (Report.result_json ~seed:!seed ~seconds:!seconds [ Report.outcome_json o ]);
  if traced then begin
    let path = Filename.concat !out ("TRACE_" ^ w.Suite.name ^ ".json") in
    Report.write path (Acrobat.Trace.to_json (Perf.Spans.to_trace sp ~pid:0 ~process:w.Suite.name));
    Fmt.pr "wrote %s@." path
  end;
  Fmt.pr "%a@." Report.pp_outcome o;
  print_endline
    (Report.to_string
       (Report.verdict ~correct:o.Report.correct ~attempted:o.Report.attempted
          ~failed:o.Report.failed (Report.metrics_json o.Report.metrics)));
  if o.Report.correct then 0 else 1

(* Each workload in a fresh process, so one workload's heap, GC state and
   code layout never colour another's numbers. *)
let run_all () =
  mkdir_p !out;
  let child (w : Suite.workload) =
    let path = result_path w.Suite.name in
    if Sys.file_exists path then Sys.remove path;
    let args =
      [|
        Sys.executable_name; "--workload"; w.Suite.name; "--seed"; string_of_int !seed;
        "--seconds"; Printf.sprintf "%.17g" !seconds; "--trace"; string_of_int !trace;
        "--out"; !out;
      |]
    in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
    let _, status = Unix.waitpid [] pid in
    match status, Json.member "workloads" (Json.of_file path) with
    | Unix.WEXITED (0 | 1), Some (Json.List os) -> os
    | _ | (exception (Sys_error _ | Json.Parse_error _)) ->
      Fmt.epr "error: workload %s did not finish@." w.Suite.name;
      []
  in
  let outcomes = List.map child Suite.workloads in
  let all = List.concat outcomes in
  let combined = result_path "result" in
  Report.write combined (Report.result_json ~seed:!seed ~seconds:!seconds all);
  Fmt.pr "wrote %s@." combined;
  let field k o = Option.value ~default:Json.Null (Json.member k o) in
  let sum k = List.fold_left (fun acc o -> acc + match field k o with Json.Int n -> n | _ -> 0) 0 all in
  let correct =
    List.for_all (( <> ) []) outcomes && List.for_all (fun o -> field "correct" o = Json.Bool true) all
  in
  let metrics =
    List.concat_map
      (fun o ->
        match field "name" o, field "metrics" o with
        | Json.Str w, Json.Obj ms -> List.map (fun (m, v) -> w ^ "." ^ m, v) ms
        | _ -> [])
      all
  in
  print_endline
    (Report.to_string
       (Report.verdict ~correct ~attempted:(sum "attempted") ~failed:(sum "failed") (Json.Obj metrics)));
  if correct then 0 else 1

let () =
  Arg.parse specs (fun a -> bad "unexpected argument %S" a) usage;
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if not (Float.is_finite !seconds && !seconds >= 0.0) then bad "--seconds must be >= 0";
  exit
    (match !workload with
    | None -> run_all ()
    | Some name -> (
      match Suite.find_workload Suite.full name with
      | Some w -> run_one w
      | None -> bad "unknown workload %S" name))
