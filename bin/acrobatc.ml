(** [acrobatc]: the ACROBAT compiler driver.

    Subcommands:
    - [check FILE]   — parse and type check a program.
    - [lower FILE]   — compile and print the lowered program structure
                       (specializations with their parameters and the
                       forwarded-only ones the AOT engine drops, kernels,
                       depths, phases, ghosts).
    - [run FILE]     — compile and execute a program on random inputs,
                       printing outputs and the runtime activity profile.
    - [bench FILE]   — compare frameworks (acrobat / dynet / pytorch) on
                       the same program.
    - [serve]        — simulate online serving of a catalog model: requests
                       arrive over virtual time, are admission-controlled
                       and assembled into cross-request batches, and the
                       SLO report (latency percentiles, throughput, drops)
                       plus the device activity profile is printed.

    Per-instance inputs are named with [-i]; weights are materialized with
    seeded random values. Example:

    {v acrobatc run examples/rnn.acro -i inps --batch 8 --framework dynet v}
*)

open Cmdliner
open Acrobat
module L = Lowered

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- shared arguments --- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input program.")

let inputs_arg =
  Arg.(
    value & opt_all string []
    & info [ "i"; "input" ] ~docv:"NAME"
        ~doc:"@main parameter that varies per batch instance (repeatable).")

let batch_arg =
  Arg.(value & opt int 4 & info [ "batch" ] ~docv:"N" ~doc:"Batch size.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run (open in Perfetto or \
           chrome://tracing). Deterministic: same seed, same trace.")

(* A tracer when --trace was given, else the no-op sink. *)
let tracer_of trace_path =
  match trace_path with Some _ -> Some (Trace.create ()) | None -> None

let write_trace tracer trace_path =
  match tracer, trace_path with
  | Some tr, Some path ->
    Trace.to_file path tr;
    Fmt.pr "wrote %s (%d trace events)@." path (Trace.event_count tr)
  | _ -> ()

let framework_arg =
  let fw_conv =
    Arg.enum
      [
        "acrobat", Frameworks.Acrobat Config.acrobat;
        "dynet", Frameworks.Dynet { improved = false; scheduler = Config.Agenda };
        "dynet++", Frameworks.Dynet { improved = true; scheduler = Config.Agenda };
        "pytorch", Frameworks.Pytorch;
      ]
  in
  Arg.(
    value
    & opt fw_conv (Frameworks.Acrobat Config.acrobat)
    & info [ "framework" ] ~docv:"FW" ~doc:"Execution framework.")

(* Random instance generation from @main's declared input types. *)
let rec hval_of_ty rng (ty : Ir.Ty.t) : Driver.hval =
  match ty with
  | Ir.Ty.Tensor shape -> Driver.Htensor (Tensor.random rng shape)
  | Ir.Ty.Int -> Driver.Hint (Rng.int rng 10)
  | Ir.Ty.Bool -> Driver.Hbool (Rng.bool rng)
  | Ir.Ty.Float -> Driver.Hfloat (Rng.float rng)
  | Ir.Ty.List t ->
    Driver.Hlist (List.init (Rng.int_in rng 3 9) (fun _ -> hval_of_ty rng t))
  | Ir.Ty.Tree t ->
    let rec tree depth =
      if depth = 0 || Rng.bool rng then Driver.Hleaf (hval_of_ty rng t)
      else Driver.Hnode (tree (depth - 1), tree (depth - 1))
    in
    tree 4
  | Ir.Ty.Tup ts -> Driver.Htuple (List.map (hval_of_ty rng) ts)
  | Ir.Ty.Fn _ -> Fmt.invalid_arg "cannot generate a function-typed input"

let gen_setup source ~inputs ~batch ~seed =
  let program = Ir.Typecheck.parse_and_check source in
  let main = Ir.Ast.main_def program in
  let rng = Rng.create seed in
  let weights =
    List.filter_map
      (fun (name, ty) ->
        if List.mem name inputs then None
        else
          match ty with
          | Ir.Ty.Tensor shape -> Some (name, Tensor.random rng shape)
          | _ -> Fmt.invalid_arg "weight %%%s must be a tensor (or pass -i %s)" name name)
      main.Ir.Ast.params
  in
  let instances =
    List.init batch (fun _ ->
        List.filter_map
          (fun (name, ty) ->
            if List.mem name inputs then Some (name, hval_of_ty rng ty) else None)
          main.Ir.Ast.params)
  in
  weights, instances

(* --- check --- *)

(* Uniform error reporting for commands that execute programs. *)
let guarded f =
  match f () with
  | rc -> rc
  | exception Ir.Lexer.Error m
  | (exception Ir.Parser.Error m)
  | (exception Ir.Typecheck.Type_error m) ->
    Fmt.epr "error: %s@." m;
    1
  | exception Invalid_argument m ->
    Fmt.epr "error: %s@." m;
    1
  | exception Value.Runtime_error m ->
    Fmt.epr "runtime error: %s@." m;
    1

let check_cmd =
  let run file =
    match Ir.Typecheck.parse_and_check (read_file file) with
    | p ->
      Fmt.pr "%s: %d definitions OK@." file (List.length p.Ir.Ast.defs);
      0
    | exception Ir.Lexer.Error m | (exception Ir.Parser.Error m)
    | (exception Ir.Typecheck.Type_error m) ->
      Fmt.epr "%s: %s@." file m;
      1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and type check a program.")
    Term.(const run $ file_arg)

(* --- lower --- *)

let print_lowered (lp : L.t) =
  Fmt.pr "specializations (parameters; those the AOT engine drops as forwarded-only):@.";
  let names = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) lp.L.defs []) in
  let dropped_of = Forwarded.dropped lp in
  List.iter
    (fun name ->
      let d = L.find_def lp name in
      let dropped = dropped_of name in
      Fmt.pr "  %s(%s)%s@." name (String.concat ", " d.L.lparams)
        (if dropped = [] then "" else "  drops: " ^ String.concat ", " dropped))
    names;
  Fmt.pr "kernels:@.";
  List.iter (fun k -> Fmt.pr "  %a@." Kernel.pp k) (Kernel.all_kernels lp.L.registry);
  Fmt.pr "max static depth: %d    tensor-dependent control flow: %b@." lp.L.max_static_depth
    lp.L.has_tdc

let lower_cmd =
  let run file inputs =
    match Lower.compile ~inputs (read_file file) with
    | lp ->
      print_lowered lp;
      0
    | exception Ir.Lexer.Error m | (exception Ir.Parser.Error m)
    | (exception Ir.Typecheck.Type_error m) ->
      Fmt.epr "%s: %s@." file m;
      1
  in
  Cmd.v
    (Cmd.info "lower" ~doc:"Compile and print the lowered program.")
    Term.(const run $ file_arg $ inputs_arg)

(* --- run --- *)

let run_cmd =
  let run file inputs batch seed framework values trace_path =
    guarded @@ fun () ->
    let source = read_file file in
    let weights, instances = gen_setup source ~inputs ~batch ~seed in
    let tracer = tracer_of trace_path in
    Option.iter
      (fun tr ->
        Trace.name_process tr ~pid:0 ~name:"run";
        Trace.name_thread tr ~pid:0 ~tid:0 ~name:"device")
      tracer;
    let compiled = compile ~framework ?tracer ~inputs source in
    let compiled = tune compiled ~weights ~calibration:instances in
    let r = run_batch ~compute_values:values ~seed ?tracer compiled ~weights ~instances () in
    if values then
      List.iteri (fun i v -> Fmt.pr "instance %d: %a@." i Value.pp v) r.Driver.outputs;
    Fmt.pr "@.%a@." Profiler.pp r.Driver.stats.profiler;
    write_trace tracer trace_path;
    0
  in
  let values_arg =
    Arg.(value & flag & info [ "values" ] ~doc:"Compute and print real tensor values.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a program on random inputs.")
    Term.(
      const run $ file_arg $ inputs_arg $ batch_arg $ seed_arg $ framework_arg $ values_arg
      $ trace_arg)

(* --- bench --- *)

let bench_cmd =
  let run file inputs batch seed =
    guarded @@ fun () ->
    let source = read_file file in
    let weights, instances = gen_setup source ~inputs ~batch ~seed in
    Fmt.pr "%-10s %10s %8s %8s %8s@." "framework" "latency" "nodes" "batches" "launches";
    List.iter
      (fun (name, framework) ->
        let compiled = compile ~framework ~inputs source in
        let compiled = tune compiled ~weights ~calibration:instances in
        let r = run ~seed compiled ~weights ~instances () in
        let p = r.Driver.stats.profiler in
        Fmt.pr "%-10s %8.3fms %8d %8d %8d@." name r.Driver.stats.latency_ms
          p.Profiler.nodes_created p.Profiler.batches_executed p.Profiler.kernel_calls)
      [
        "acrobat", Frameworks.Acrobat Config.acrobat;
        "dynet", Frameworks.Dynet { improved = false; scheduler = Config.Agenda };
        "pytorch", Frameworks.Pytorch;
      ];
    0
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Compare frameworks on the same program.")
    Term.(const run $ file_arg $ inputs_arg $ batch_arg $ seed_arg)

(* --- serve --- *)

let serve_cmd =
  let run model_id size rate policy requests max_batch max_wait_us queue_cap deadline_ms
      burst seed iters faults_specs replicas dispatch hedge requeue_budget retry_budget
      concurrency_target brownout tenant_specs autoscale audit net_spec min_goodput
      json_path trace_path =
    guarded @@ fun () ->
    Option.iter
      (fun f ->
        if not (Float.is_finite f) || f < 0.0 then
          Fmt.invalid_arg "--retry-budget %g: want a finite fraction >= 0" f)
      retry_budget;
    if not (Float.is_finite audit) || audit < 0.0 || audit > 1.0 then
      Fmt.invalid_arg "--audit %g: want a sampling rate in [0,1]" audit;
    Option.iter
      (fun ms ->
        if not (Float.is_finite ms) || ms <= 0.0 then
          Fmt.invalid_arg "--concurrency-target %g: want a positive delay in ms" ms)
      concurrency_target;
    let resilience =
      {
        Resilience.rs_retry_budget = retry_budget;
        rs_target_delay_us = Option.map (fun ms -> ms *. 1000.0) concurrency_target;
        rs_brownout = Option.map Resilience.brownout_of_string brownout;
      }
    in
    (* Printed only when armed, so legacy invocations stay byte-identical. *)
    let pp_resilience () =
      if Resilience.active resilience then begin
        Fmt.pr "resilience:";
        Option.iter
          (fun f -> Fmt.pr " retry-budget %g" f)
          resilience.Resilience.rs_retry_budget;
        Option.iter
          (fun t -> Fmt.pr " concurrency-target %gms" (t /. 1000.0))
          resilience.Resilience.rs_target_delay_us;
        Option.iter
          (fun b -> Fmt.pr " brownout %s" (Resilience.brownout_to_string b))
          resilience.Resilience.rs_brownout;
        Fmt.pr "@."
      end
    in
    (* Printed only when armed, like [pp_resilience]. *)
    let pp_audit () =
      if audit > 0.0 then
        Fmt.pr "audit: sampling %g of deliveries against an unbatched reference@." audit
    in
    let net =
      Option.map
        (fun spec ->
          let plan = Net.parse spec in
          Net.validate plan;
          plan)
        net_spec
    in
    (* Printed only when a plan is armed, like [pp_resilience]. *)
    let pp_net () =
      Option.iter (fun plan -> Fmt.pr "net: %s@." (Net.to_spec plan)) net
    in
    (* The zero-delivered-corruption assertion: at --audit 1 every delivery
       is fingerprint-checked, so a corrupted result reaching a client is a
       hard failure, not a statistic. *)
    let corruption_gate (summary : Serve.Stats.summary) rc =
      if audit >= 1.0 && summary.Serve.Stats.s_corrupted_delivered > 0 then begin
        Fmt.epr "error: %d corrupted results delivered despite --audit 1@."
          summary.Serve.Stats.s_corrupted_delivered;
        1
      end
      else rc
    in
    let resolve id =
      match size with
      | "tiny" -> Models.tiny id
      | "small" -> (Models.find id).Models.make Model.Small
      | "large" -> (Models.find id).Models.make Model.Large
      | other -> Fmt.invalid_arg "unknown size %S (tiny|small|large)" other
    in
    let policy =
      match policy with
      | "batch1" -> Serve.Batcher.Batch1
      | "fixed" -> Serve.Batcher.Fixed { max_batch; max_wait_us }
      | "adaptive" -> Serve.Batcher.Adaptive { max_batch; max_wait_us }
      | other -> Fmt.invalid_arg "unknown policy %S (batch1|fixed|adaptive)" other
    in
    let fault_plans = List.map Faults.parse faults_specs in
    if tenant_specs <> [] then begin
      (* Multi-tenant path: tenants carry model/rate/SLO/quota; --model,
         --rate, --replicas and --dispatch do not apply. --hedge arms the
         dispatcher's percentile-delay hedging instead. *)
      let tenants =
        Array.of_list
          (List.mapi
             (fun i spec ->
               Tenancy.Tenant.parse ~seed ~index:i ~bursty:burst ~requests spec)
             tenant_specs)
      in
      let min_replicas, max_replicas =
        match autoscale with
        | None -> 1, 1
        | Some s -> (
          match String.split_on_char ':' s with
          | [ a; b ] -> (
            match int_of_string_opt a, int_of_string_opt b with
            | Some lo, Some hi -> lo, hi
            | _ -> Fmt.invalid_arg "--autoscale %S: want MIN:MAX" s)
          | _ -> Fmt.invalid_arg "--autoscale %S: want MIN:MAX" s)
      in
      if List.length fault_plans > max_replicas then
        Fmt.invalid_arg "%d fault plans for at most %d replicas"
          (List.length fault_plans) max_replicas;
      Fmt.pr "multi-tenant serve: %d tenants   autoscale %d..%d   policy %a   seed %d@."
        (Array.length tenants) min_replicas max_replicas Serve.Batcher.pp_policy policy
        seed;
      Array.iter (fun t -> Fmt.pr "  %a@." Tenancy.Tenant.pp t) tenants;
      List.iteri
        (fun i p ->
          if Faults.enabled p then
            Fmt.pr "fault plan (replica %d): %a@." i Faults.pp_plan p)
        fault_plans;
      pp_resilience ();
      pp_audit ();
      pp_net ();
      Fmt.pr "@.";
      let tracer = tracer_of trace_path in
      let report =
        serve_tenants ~policy ~queue_capacity:queue_cap ?iters ~fault_plans ~min_replicas
          ~max_replicas ~resilience ?hedge_percentile:hedge ~audit ?net ?tracer
          ~models:resolve ~tenants ~seed ()
      in
      let summary = Serve.Stats.summarize report.Tenancy.Dispatcher.tn_stats in
      Fmt.pr "%a@.@." Serve.Stats.pp_summary summary;
      List.iter
        (fun (tv : Tenancy.Dispatcher.tenant_view) ->
          let t = tv.Tenancy.Dispatcher.tv_tenant in
          let s = Serve.Stats.summarize tv.Tenancy.Dispatcher.tv_stats in
          Fmt.pr
            "tenant %-10s (%s): completed %d, goodput %.3f, slo %.1f%%, quota shed %d, \
             peak inflight %d@."
            t.Tenancy.Tenant.tn_name t.Tenancy.Tenant.tn_model s.Serve.Stats.s_completed
            (Serve.Stats.goodput s)
            (100.0 *. Serve.Stats.slo_attainment s)
            s.Serve.Stats.s_quota_shed tv.Tenancy.Dispatcher.tv_peak_inflight)
        report.Tenancy.Dispatcher.tn_tenants;
      Fmt.pr "@.replicas: peak %d, final %d, %d model swaps, utilization %.1f%%@."
        report.Tenancy.Dispatcher.tn_peak_replicas
        report.Tenancy.Dispatcher.tn_final_replicas report.Tenancy.Dispatcher.tn_swaps
        (100.0 *. Tenancy.Dispatcher.utilization report);
      List.iter
        (fun (ts_us, ev, n) -> Fmt.pr "  %10.0fus %-10s -> %d replicas@." ts_us ev n)
        report.Tenancy.Dispatcher.tn_scale_events;
      Option.iter
        (fun path ->
          Obs.Json.to_file path (Tenancy.Dispatcher.report_json report);
          Fmt.pr "wrote %s@." path)
        json_path;
      write_trace tracer trace_path;
      corruption_gate summary
        (match min_goodput with
        | Some frac when Serve.Stats.goodput summary < frac ->
          Fmt.epr "error: goodput %.4f below --min-goodput %.4f@."
            (Serve.Stats.goodput summary) frac;
          1
        | _ -> 0)
    end
    else begin
    let model = resolve model_id in
    let process =
      if burst then
        Serve.Traffic.Bursty
          {
            rate_low_per_s = rate /. 4.0;
            rate_high_per_s = rate *. 2.0;
            mean_dwell_us = 50_000.0;
          }
      else Serve.Traffic.Poisson { rate_per_s = rate }
    in
    if replicas < 1 then Fmt.invalid_arg "--replicas must be >= 1";
    let dispatch =
      match Serve.Cluster.dispatch_of_string dispatch with
      | Some d -> d
      | None -> Fmt.invalid_arg "unknown dispatch %S (rr|jsq|lel)" dispatch
    in
    if List.length fault_plans > replicas then
      Fmt.invalid_arg "%d fault plans for %d replicas" (List.length fault_plans) replicas;
    Fmt.pr "model %s (%s)   traffic %a   policy %a   seed %d@.@." model_id size
      Serve.Traffic.pp_process process Serve.Batcher.pp_policy policy seed;
    List.iteri
      (fun i p ->
        if Faults.enabled p then Fmt.pr "fault plan (replica %d): %a@." i Faults.pp_plan p)
      fault_plans;
    if List.exists Faults.enabled fault_plans then Fmt.pr "@.";
    pp_resilience ();
    pp_audit ();
    pp_net ();
    let tracer = tracer_of trace_path in
    let summary =
      if replicas = 1 && hedge = None && requeue_budget = None && net = None then begin
        (* Single-server path: byte-stable with previous releases. *)
        let faults = match fault_plans with [] -> Faults.none | p :: _ -> p in
        let report =
          serve_model ~policy ~queue_capacity:queue_cap ?deadline_ms ?iters ~faults
            ~resilience ~audit ?tracer ~process ~requests ~seed model
        in
        Fmt.pr "%a@.@." Serve.Stats.pp_summary report.sv_summary;
        Fmt.pr "cumulative device activity:@.%a@." Profiler.pp report.sv_profiler;
        Option.iter
          (fun path ->
            Obs.Json.to_file path (serve_report_json report);
            Fmt.pr "wrote %s@." path)
          json_path;
        report.sv_summary
      end
      else begin
        let report =
          serve_cluster ~policy ~queue_capacity:queue_cap ?deadline_ms ?iters ~fault_plans
            ~dispatch ?hedge_percentile:hedge ?requeue_budget ~resilience ~audit ?net
            ?tracer ~replicas ~process ~requests ~seed model
        in
        Fmt.pr "cluster of %d replicas   dispatch %s%a@.@." replicas
          (Serve.Cluster.dispatch_name dispatch)
          Fmt.(option (fun ppf p -> Fmt.pf ppf "   hedge p%g" p))
          hedge;
        Fmt.pr "%a@.@." Serve.Stats.pp_summary report.cr_summary;
        List.iter
          (fun rr ->
            Fmt.pr "replica %d (%s): completed %d, batches %d, failovers %d@." rr.rr_id
              rr.rr_health rr.rr_summary.Serve.Stats.s_completed
              rr.rr_summary.Serve.Stats.s_batches rr.rr_summary.Serve.Stats.s_failovers)
          report.cr_replicas;
        Fmt.pr "@.cumulative device activity:@.%a@." Profiler.pp report.cr_profiler;
        Option.iter
          (fun path ->
            Obs.Json.to_file path (cluster_report_json report);
            Fmt.pr "wrote %s@." path)
          json_path;
        report.cr_summary
      end
    in
    write_trace tracer trace_path;
    corruption_gate summary
      (match min_goodput with
      | Some frac when Serve.Stats.goodput summary < frac ->
        Fmt.epr "error: goodput %.4f below --min-goodput %.4f@."
          (Serve.Stats.goodput summary) frac;
        1
      | _ -> 0)
    end
  in
  let model_arg =
    Arg.(value & opt string "treelstm" & info [ "model" ] ~docv:"ID" ~doc:"Catalog model.")
  in
  let size_arg =
    Arg.(
      value & opt string "small"
      & info [ "size" ] ~docv:"SIZE" ~doc:"Model size: tiny, small or large.")
  in
  let rate_arg =
    Arg.(
      value & opt float 200.0
      & info [ "rate" ] ~docv:"R" ~doc:"Offered load, requests per second.")
  in
  let policy_arg =
    Arg.(
      value & opt string "adaptive"
      & info [ "policy" ] ~docv:"P" ~doc:"Batch assembly: batch1, fixed or adaptive.")
  in
  let requests_arg =
    Arg.(value & opt int 200 & info [ "requests" ] ~docv:"N" ~doc:"Requests to simulate.")
  in
  let max_batch_arg =
    Arg.(value & opt int 16 & info [ "max-batch" ] ~docv:"N" ~doc:"Batch size cap.")
  in
  let max_wait_arg =
    Arg.(
      value & opt float 2000.0
      & info [ "max-wait-us" ] ~docv:"US" ~doc:"Assembly timeout on the oldest request.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-cap" ] ~docv:"N" ~doc:"Admission queue bound (load shedding).")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline; expired drops.")
  in
  let burst_arg =
    Arg.(value & flag & info [ "bursty" ] ~doc:"Markov-modulated bursty arrivals.")
  in
  let iters_arg =
    Arg.(
      value & opt (some int) None
      & info [ "iters" ] ~docv:"N" ~doc:"Auto-scheduler iteration budget.")
  in
  let faults_arg =
    Arg.(
      value & opt_all string []
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Deterministic fault-injection plan, e.g. \
             'seed=7,kernel=0.05,straggler=0.02x6,reset=0.001,capacity=200000,poison=3+17'. \
             Enables retry, bisection, circuit breaking and graceful degradation. \
             Repeatable with --replicas: the i-th plan applies to replica i (replicas \
             without a plan run fault-free).")
  in
  let replicas_arg =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Serve from N replicas with health-checked failover and in-flight requeue \
             (see --dispatch, --hedge).")
  in
  let dispatch_arg =
    Arg.(
      value & opt string "jsq"
      & info [ "dispatch" ] ~docv:"POLICY"
          ~doc:
            "Replica dispatch policy: rr (round-robin), jsq (join shortest queue) or lel \
             (least expected latency).")
  in
  let hedge_arg =
    Arg.(
      value & opt (some float) None
      & info [ "hedge" ] ~docv:"P"
          ~doc:
            "Hedge straggling requests: re-issue on another replica after the P-th \
             percentile (e.g. 95) of recent latency; first completion wins.")
  in
  let requeue_budget_arg =
    Arg.(
      value & opt (some int) None
      & info [ "requeue-budget" ] ~docv:"N"
          ~doc:
            "Failover re-dispatches per request before it is dropped (default 8). \
             Setting it forces the cluster engine even with --replicas 1.")
  in
  let tenant_arg =
    Arg.(
      value & opt_all string []
      & info [ "tenant" ] ~docv:"SPEC"
          ~doc:
            "Serve a tenant: NAME:MODEL:RATE:SLO:QUOTA with an optional :WEIGHT field \
             (rate in req/s, SLO in ms with 0 = none, quota = max inflight per replica). \
             Repeatable; any --tenant switches to the multi-tenant dispatcher, where \
             batches form only within a model and --model/--rate/--replicas/--dispatch \
             do not apply (--hedge re-issues straggling requests within the tenant's \
             queue). Tenant i's traffic seed derives from --seed + 101*i.")
  in
  let retry_budget_arg =
    Arg.(
      value & opt (some float) None
      & info [ "retry-budget" ] ~docv:"FRAC"
          ~doc:
            "Cap transient-fault retries with a token bucket: each fresh admitted \
             request deposits FRAC tokens, each re-executed request spends one, and an \
             empty bucket converts the retry into a counted shed. Bounds retry \
             amplification at FRAC times the offered load.")
  in
  let concurrency_target_arg =
    Arg.(
      value & opt (some float) None
      & info [ "concurrency-target" ] ~docv:"MS"
          ~doc:
            "Adaptive concurrency limit (AIMD): gate admission ahead of the bounded \
             queue, growing the limit additively while observed queue delay stays under \
             MS milliseconds and backing off multiplicatively when it exceeds it.")
  in
  let brownout_arg =
    Arg.(
      value & opt (some string) None
      & info [ "brownout" ] ~docv:"HIGH_MS:DWELL_MS[:LOW_MS]"
          ~doc:
            "Brownout to the model's degraded variant when queue delay stays above \
             HIGH_MS for DWELL_MS, restoring full quality after it stays below LOW_MS \
             (default HIGH_MS/2) for the same dwell — hysteresis prevents flapping.")
  in
  let autoscale_arg =
    Arg.(
      value & opt (some string) None
      & info [ "autoscale" ] ~docv:"MIN:MAX"
          ~doc:
            "Autoscaler replica bounds for the multi-tenant dispatcher (default 1:1 = \
             one fixed replica). Scale-up reacts to sustained queue delay; scale-down \
             drains the victim replica before retiring it.")
  in
  let audit_arg =
    Arg.(
      value & opt float 0.0
      & info [ "audit" ] ~docv:"RATE"
          ~doc:
            "Audit sampled deliveries for silent data corruption: each completed \
             request is re-executed unbatched on a clean reference engine with \
             probability RATE and the result fingerprints are compared before delivery. \
             A mismatch delivers the reference result instead and feeds the replica's \
             corruption scoreboard, which quarantines repeat offenders (drain, requeue, \
             probe-based re-admission). At RATE 1 every delivery is verified and the \
             run exits nonzero if any corrupted result slips through.")
  in
  let net_arg =
    Arg.(
      value & opt (some string) None
      & info [ "net" ] ~docv:"PLAN"
          ~doc:
            "Lossy virtual transport between dispatcher and replicas, e.g. \
             'seed=7,delay=120:60,drop=0.05,dup=0.1,reorder=0.2,gray=0.02,\
             partition=8000:20000,timeout=5000,resends=2'. Dispatches and completions \
             traverse seeded per-link fault processes; idempotency keys with a \
             per-replica dedup window keep delivery exactly-once under duplication and \
             resend, and partitioned replicas fail over until the cut heals. Forces the \
             cluster engine even with --replicas 1.")
  in
  let min_goodput_arg =
    Arg.(
      value & opt (some float) None
      & info [ "min-goodput" ] ~docv:"FRAC"
          ~doc:
            "Exit nonzero when goodput (completed/offered) falls below FRAC — makes \
             fault-injected smoke runs assert availability.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Dump the SLO summary as JSON.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Simulate online serving with cross-request batching.")
    Term.(
      const run $ model_arg $ size_arg $ rate_arg $ policy_arg $ requests_arg
      $ max_batch_arg $ max_wait_arg $ queue_cap_arg $ deadline_arg $ burst_arg $ seed_arg
      $ iters_arg $ faults_arg $ replicas_arg $ dispatch_arg $ hedge_arg
      $ requeue_budget_arg $ retry_budget_arg $ concurrency_target_arg $ brownout_arg
      $ tenant_arg $ autoscale_arg $ audit_arg $ net_arg $ min_goodput_arg
      $ json_arg $ trace_arg)

(* --- chaos (randomized fault search with invariant checking) --- *)

let chaos_cmd =
  let print_outcome ca (oc : Chaos.outcome) =
    let sc = oc.Chaos.oc_scenario in
    Fmt.pr "scenario %d (seed %d, %d requests, %d replicas, %d fault clauses) VIOLATES:@."
      sc.Chaos.Scenario.sc_index sc.Chaos.Scenario.sc_seed sc.Chaos.Scenario.sc_requests
      sc.Chaos.Scenario.sc_replicas
      (Chaos.Scenario.fault_clause_count sc);
    let shown, rest =
      let vs = oc.Chaos.oc_violations in
      if List.length vs <= 5 then vs, 0
      else List.filteri (fun i _ -> i < 5) vs, List.length vs - 5
    in
    List.iter
      (fun (v : Chaos.Invariants.violation) ->
        Fmt.pr "  [%s] %s@." v.Chaos.Invariants.vi_name v.Chaos.Invariants.vi_detail)
      shown;
    if rest > 0 then Fmt.pr "  ... and %d more violations@." rest;
    (match oc.Chaos.oc_shrunk with
    | None -> ()
    | Some (msc, _) ->
      Fmt.pr "  shrunk to %d fault clauses, %d requests, %d replicas@."
        (Chaos.Scenario.fault_clause_count msc)
        msc.Chaos.Scenario.sc_requests msc.Chaos.Scenario.sc_replicas);
    List.iter (fun line -> Fmt.pr "  %s@." line) (Chaos.repro_lines ca oc);
    Fmt.pr "@."
  in
  let write_artifacts ca outcomes repro_path trace_path =
    match outcomes with
    | [] -> ()
    | first :: _ ->
      Option.iter
        (fun path ->
          let oc = open_out path in
          List.iter
            (fun o -> List.iter (fun l -> Printf.fprintf oc "%s\n" l) (Chaos.repro_lines ca o))
            outcomes;
          close_out oc;
          Fmt.pr "wrote %s@." path)
        repro_path;
      Option.iter
        (fun path ->
          Obs.Json.to_file path first.Chaos.oc_trace;
          Fmt.pr "wrote %s (failing trace)@." path)
        trace_path
  in
  let run seed runs fault_prob shrink shrink_budget min_goodput only json_path repro_path
      trace_path =
    guarded @@ fun () ->
    let ca =
      {
        Chaos.default_campaign with
        Chaos.ca_seed = seed;
        ca_runs = runs;
        ca_fault_prob = fault_prob;
        ca_goodput_floor = min_goodput;
        ca_shrink = shrink;
        ca_shrink_budget = shrink_budget;
      }
    in
    match only with
    | Some index ->
      (* Replay one scenario of the campaign by index. *)
      let sc = Chaos.Scenario.generate ~campaign_seed:seed ~fault_prob index in
      Fmt.pr "scenario %d of campaign seed %d:@.  %s@.@." index seed
        (Chaos.Scenario.to_cli sc);
      (match Chaos.check_one ca index with
      | None ->
        Fmt.pr "no violations.@.";
        0
      | Some outcome ->
        print_outcome ca outcome;
        write_artifacts ca [ outcome ] repro_path trace_path;
        1)
    | None ->
      let report = Chaos.run_campaign ca in
      let violating = List.length report.Chaos.rp_outcomes in
      Fmt.pr "campaign seed %d: %d scenarios, %d violating (%.1f per kiloscenario)@.@."
        seed report.Chaos.rp_scenarios violating
        (Chaos.violations_per_kiloscenario report);
      List.iter (print_outcome ca) report.Chaos.rp_outcomes;
      Option.iter
        (fun path ->
          Obs.Json.to_file path (Chaos.report_json report);
          Fmt.pr "wrote %s@." path)
        json_path;
      write_artifacts ca report.Chaos.rp_outcomes repro_path trace_path;
      if violating = 0 then 0 else 1
  in
  let runs_arg =
    Arg.(
      value & opt int 100
      & info [ "runs" ] ~docv:"K" ~doc:"Scenarios to generate and check.")
  in
  let fault_prob_arg =
    Arg.(
      value & opt float 0.5
      & info [ "fault-prob" ] ~docv:"P"
          ~doc:"Per-replica probability of a randomized fault plan (0 = clean fleet).")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Minimize each violating scenario by delta debugging (drop fault clauses, \
             halve rates, shrink the fleet) while the violation still reproduces.")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int Chaos.default_campaign.Chaos.ca_shrink_budget
      & info [ "shrink-budget" ] ~docv:"N" ~doc:"Max re-simulations per shrink.")
  in
  let min_goodput_arg =
    Arg.(
      value & opt (some float) None
      & info [ "min-goodput" ] ~docv:"FRAC"
          ~doc:
            "Treat goodput below FRAC as a violation in every scenario (on top of the \
             derived floor for provably-clean ones).")
  in
  let only_arg =
    Arg.(
      value & opt (some int) None
      & info [ "only" ] ~docv:"I"
          ~doc:"Check only scenario I of the campaign (reproducer replay).")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Dump the campaign report as JSON.")
  in
  let repro_arg =
    Arg.(
      value & opt (some string) None
      & info [ "repro" ] ~docv:"FILE"
          ~doc:"On violation, write one-line reproducer commands to FILE.")
  in
  let chaos_trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"On violation, write the first failing scenario's trace JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Randomized fault search over the serving stack: generate seeded scenarios, \
          check invariants (request conservation, terminal uniqueness, requeue budgets, \
          goodput floors, deterministic replay), and shrink violations to minimal \
          reproducers.")
    Term.(
      const run $ seed_arg $ runs_arg $ fault_prob_arg $ shrink_arg $ shrink_budget_arg
      $ min_goodput_arg $ only_arg $ json_arg $ repro_arg $ chaos_trace_arg)

(* --- trace (validate a --trace export) --- *)

let trace_cmd =
  let module J = Obs.Json in
  let valid_phases = [ 'X'; 'i'; 'C'; 'M' ] in
  let validate_event i (ev : J.t) =
    let str k = match J.member k ev with Some (J.Str s) -> Some s | _ -> None in
    let num k =
      match J.member k ev with
      | Some (J.Int n) -> Some (float_of_int n)
      | Some (J.Float f) -> Some f
      | _ -> None
    in
    let fail fmt = Fmt.invalid_arg ("event %d: " ^^ fmt) i in
    let ph =
      match str "ph" with
      | Some p when String.length p = 1 && List.mem p.[0] valid_phases -> p.[0]
      | Some p -> fail "unknown phase %S" p
      | None -> fail "missing \"ph\""
    in
    if str "name" = None then fail "missing \"name\"";
    if num "pid" = None then fail "missing \"pid\"";
    if num "tid" = None then fail "missing \"tid\"";
    (match ph with
    | 'M' -> ()
    | _ -> (
      match num "ts" with
      | Some ts when ts >= 0.0 -> ()
      | Some _ -> fail "negative \"ts\""
      | None -> fail "missing \"ts\""));
    if ph = 'X' then begin
      match num "dur" with
      | Some d when d >= 0.0 -> ()
      | Some _ -> fail "negative \"dur\""
      | None -> fail "complete event missing \"dur\""
    end;
    ph
  in
  let run file =
    guarded @@ fun () ->
    match J.of_file file with
    | exception J.Parse_error m ->
      Fmt.epr "%s: invalid JSON: %s@." file m;
      1
    | json -> (
      match Option.bind (J.member "traceEvents" json) J.to_list_opt with
      | None ->
        Fmt.epr "%s: no \"traceEvents\" array@." file;
        1
      | Some events ->
        let phases = List.mapi validate_event events in
        let count ph = List.length (List.filter (Char.equal ph) phases) in
        Fmt.pr "%s: %d events OK (%d spans, %d instants, %d counters, %d metadata)@." file
          (List.length events) (count 'X') (count 'i') (count 'C') (count 'M');
        0)
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace JSON to check.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Validate a Chrome trace_event JSON file written by --trace.")
    Term.(const run $ file_arg)

let () =
  let info = Cmd.info "acrobatc" ~version:"1.0" ~doc:"The ACROBAT compiler driver." in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ check_cmd; lower_cmd; run_cmd; bench_cmd; serve_cmd; chaos_cmd; trace_cmd ]))
