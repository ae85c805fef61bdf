(* Compare benchmark results of a parent commit and a change.

     dune exec bench/perf/compare.exe -- [--benchmark BENCHMARK.json]
       [--claim WORKLOAD:METRIC]... --parent FILE... --change FILE...

   Each FILE is a result main.exe wrote (one workload, or result.json for
   all). Runs pair up in the order given: the i-th parent file with the
   i-th change file. Both sides need as many files, every file the same run
   length, and each pair the same seed; otherwise it exits 2. Prints one
   row per (workload, metric) with each side's median and quartiles, then a
   verdict:

   - a claimed metric is "met" when the change wins at least 9 of every 10
     pairs (ties count for neither) and the medians differ, in the better
     direction, by more than the parent's interquartile distance;
   - a metric exact for a seed (Suite.exact: the simulated and virtual
     ones) is compared pair by pair: "REGRESSED" if the change is worse on
     any seed, "better" if it is better on some and worse on none,
     "identical" otherwise. Its BENCHMARK.json bound, which has to cover
     the workload's variation across seeds, is not used;
   - any other end-to-end metric is "ok" when the change's median is worse
     than the parent's by at most the metric's bound in BENCHMARK.json,
     "REGRESSED" when by more, and "unresolved" when either side's spread
     (interquartile distance over median) exceeds the bound — unless every
     change run beats every parent run, which reads "better";
   - per-layer metrics have no bound and get no verdict.

   Exits 1 when a claim is not met or a metric regressed. *)

module Json = Acrobat.Obs.Json
module Stat = Perf.Stat
module Report = Perf.Report

type info = { lower_better : bool; bound : float option }

let fail fmt = Fmt.kstr (fun m -> prerr_endline ("error: " ^ m); exit 2) fmt

let catalogue path =
  let j = try Json.of_file path with Sys_error m | Json.Parse_error m -> fail "%s" m in
  let section key =
    match Json.member key j with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          let name = match Json.member "name" m with Some (Json.Str s) -> s | _ -> "" in
          let bound =
            match Json.member "bound" m with
            | Some (Json.Float b) -> Some b
            | Some (Json.Int b) -> Some (float_of_int b)
            | _ -> None
          in
          name, { lower_better = Json.member "better" m <> Some (Json.Str "higher"); bound })
        ms
    | _ -> fail "%s: no %S list" path key
  in
  section "end_to_end" @ section "per_layer"

let () =
  let bench = ref "BENCHMARK.json" and claims = ref [] in
  let parent = ref [] and change = ref [] in
  let rec parse side = function
    | "--benchmark" :: p :: rest ->
      bench := p;
      parse side rest
    | "--claim" :: c :: rest ->
      claims := c :: !claims;
      parse side rest
    | "--parent" :: rest -> parse (Some parent) rest
    | "--change" :: rest -> parse (Some change) rest
    | f :: rest -> (
      match side with
      | Some files ->
        files := f :: !files;
        parse side rest
      | None -> fail "result file %S given before --parent or --change" f)
    | [] -> ()
  in
  parse None (List.tl (Array.to_list Sys.argv));
  if !parent = [] || !change = [] then fail "need --parent FILE... and --change FILE...";
  let info = catalogue !bench in
  let read files =
    Array.of_list
      (List.rev_map
         (fun f ->
           try f, Report.read f with Failure m | Sys_error m | Json.Parse_error m -> fail "%s" m)
         files)
  in
  let pfiles = read !parent and cfiles = read !change in
  let pairs = Array.length pfiles in
  if Array.length cfiles <> pairs then
    fail "%d parent files but %d change files: runs compare in pairs" pairs (Array.length cfiles);
  let f0, r0 = pfiles.(0) in
  Array.iter
    (fun (f, (r : Report.result_file)) ->
      if r.seconds <> r0.seconds then
        fail "%s ran %g s but %s ran %g s: both sides must run the same length" f r.seconds f0
          r0.seconds)
    (Array.append pfiles cfiles);
  Array.iteri
    (fun i ((pf, (p : Report.result_file)), (cf, (c : Report.result_file))) ->
      if p.seed <> c.seed then
        fail "pair %d: %s has seed %d but %s has seed %d" (i + 1) pf p.seed cf c.seed)
    (Array.combine pfiles cfiles);
  (* (workload, metric) in first-seen order, and its value in each file. *)
  let keys =
    List.fold_left
      (fun acc (_, (r : Report.result_file)) ->
        List.fold_left
          (fun acc (w, m, _) -> if List.mem (w, m) acc then acc else (w, m) :: acc)
          acc r.rows)
      [] (Array.to_list pfiles)
    |> List.rev
  in
  let value (_, (r : Report.result_file)) (w, m) =
    List.find_map (fun (w', m', v) -> if w = w' && m = m' then Some v else None) r.rows
  in
  List.iter
    (fun c ->
      match String.index_opt c ':' with
      | Some i when List.mem (String.sub c 0 i, String.sub c (i + 1) (String.length c - i - 1)) keys -> ()
      | _ -> fail "--claim %S: no such WORKLOAD:METRIC in the parent results" c)
    !claims;
  let quart xs = if List.length xs >= 2 then Stat.quartiles xs else Stat.median xs, Stat.median xs in
  let spread xs = if List.length xs >= 2 then Stat.spread xs else 0.0 in
  let bad = ref 0 and unresolved = ref 0 in
  Printf.printf "%-24s %-32s %30s %30s %9s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "delta" "verdict";
  List.iter
    (fun ((w, m) as k) ->
      (* Runs where both files of a pair measured the metric. *)
      let paired =
        List.filter_map
          (fun (pf, cf) ->
            match value pf k, value cf k with Some p, Some c -> Some (p, c) | _ -> None)
          (Array.to_list (Array.combine pfiles cfiles))
      in
      if paired <> [] then begin
        let p = List.map fst paired and c = List.map snd paired in
        let { lower_better; bound } =
          Option.value ~default:{ lower_better = true; bound = None } (List.assoc_opt m info)
        in
        let better a b = if lower_better then a < b else a > b in
        let count f = List.length (List.filter (fun (p, c) -> f c p) paired) in
        let n = List.length paired in
        let mp = Stat.median p and mc = Stat.median c in
        let (p1, p3), (c1, c3) = quart p, quart c in
        let worse = (if lower_better then mc -. mp else mp -. mc) /. Float.abs mp in
        let verdict =
          if List.mem (w ^ ":" ^ m) !claims then begin
            let wins = count better in
            if wins * 10 >= 9 * n && better mc mp && Float.abs (mc -. mp) > p3 -. p1 then
              Printf.sprintf "claim met (%d/%d pair wins)" wins n
            else begin
              incr bad;
              Printf.sprintf "CLAIM NOT MET (%d/%d pair wins)" wins n
            end
          end
          else if List.mem m Perf.Suite.exact then begin
            let losses = count (fun c p -> better p c) and wins = count better in
            if losses > 0 then begin
              incr bad;
              Printf.sprintf "REGRESSED (exact: worse on %d/%d seeds)" losses n
            end
            else if wins > 0 then Printf.sprintf "better (exact: %d/%d seeds)" wins n
            else "identical"
          end
          else
            match bound with
            | None -> ""
            | Some b ->
              if List.for_all (fun x -> List.for_all (fun y -> better x y) p) c then "better"
              else if Float.max (spread p) (spread c) > b then begin
                incr unresolved;
                Printf.sprintf "unresolved (spread > %g)" b
              end
              else if worse > b then begin
                incr bad;
                Printf.sprintf "REGRESSED (bound %g)" b
              end
              else "ok"
        in
        let cell med q1 q3 = Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3 in
        Printf.printf "%-24s %-32s %30s %30s %8s%%  %s\n" w m (cell mp p1 p3) (cell mc c1 c3)
          (if mp = 0.0 then "-" else Printf.sprintf "%+.2f" ((mc -. mp) /. Float.abs mp *. 100.0))
          verdict
      end)
    keys;
  Printf.printf "%d regressed or unmet, %d unresolved\n" !bad !unresolved;
  exit (if !bad > 0 then 1 else 0)
