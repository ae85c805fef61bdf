(* The benchmark's own test: BENCHMARK.json (path in argv) names exactly the
   workloads and metrics the code measures, and every workload, run at tiny
   size untraced and traced, passes its output checks — the oracle,
   conservation, pass identity and the replay guard — and prints a verdict
   line whose metric names are BENCHMARK.json's. *)

module Suite = Perf.Suite
module Report = Perf.Report
module Json = Acrobat.Obs.Json

let failures = ref 0

let check ok fmt =
  Fmt.kstr
    (fun m ->
      if not ok then begin
        incr failures;
        prerr_endline ("FAIL: " ^ m)
      end)
    fmt

let str key j = match Json.member key j with Some (Json.Str s) -> s | _ -> ""
let list key j = match Json.member key j with Some (Json.List xs) -> xs | _ -> []

let () =
  let bench = Json.of_file Sys.argv.(1) in
  check
    (List.map (str "name") (list "workloads" bench)
    = List.map (fun w -> w.Suite.name) Suite.workloads)
    "BENCHMARK.json workloads differ from the suite's";
  let catalogue key (specs : Suite.spec list) =
    let entries = list key bench in
    check
      (List.map (fun e -> str "name" e, str "unit" e, str "better" e) entries
      = List.map
          (fun s ->
            s.Suite.m_name, s.Suite.m_unit, match s.Suite.m_better with Lower -> "lower" | Higher -> "higher")
          specs)
      "BENCHMARK.json %s differs from the suite's catalogue" key;
    List.map (str "name") entries
  in
  (* Probes interleave with the measured work, so they must not allocate. *)
  let speed = Perf.Speed.create () in
  let words = Gc.minor_words () in
  for _ = 1 to 3 do
    Perf.Speed.sample speed;
    Perf.Speed.tick speed
  done;
  check (Gc.minor_words () = words) "a speed probe allocated on the OCaml heap";
  let end_to_end = catalogue "end_to_end" Suite.end_to_end in
  let per_layer = catalogue "per_layer" Suite.per_layer in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let o, _ = Suite.run ~scale:Suite.tiny ~trace ~seed:1 ~seconds:0.0 w in
          let what = w.Suite.name ^ if trace then " (traced)" else "" in
          check (o.Report.correct && o.Report.failed = 0) "%s: %s" what
            (String.concat "; " o.Report.problems);
          let line =
            Json.parse
              (Report.to_string
                 (Report.verdict ~correct:o.Report.correct ~attempted:o.Report.attempted
                    ~failed:o.Report.failed (Report.metrics_json o.Report.metrics)))
          in
          let keys = match line with Json.Obj fs -> List.map fst fs | _ -> [] in
          check (keys = [ "correct"; "attempted"; "failed"; "metrics" ]) "%s: verdict keys" what;
          let printed = match Json.member "metrics" line with Some (Json.Obj ms) -> List.map fst ms | _ -> [] in
          check
            (printed = if trace then per_layer else end_to_end)
            "%s: printed metrics differ from BENCHMARK.json" what)
        [ false; true ])
    Suite.tiny.Suite.workloads;
  if !failures > 0 then exit 1;
  print_endline "bench/perf: BENCHMARK.json matches; every workload passes its checks"
