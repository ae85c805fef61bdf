(** Experiment drivers: one per table / figure of the paper's evaluation.

    Every experiment runs the real pipeline (compile -> tune -> execute on
    the simulated device) with fixed seeds; latencies are the simulated
    milliseconds described in DESIGN.md. Paper reference numbers are
    embedded so the output prints measured-vs-paper side by side; the goal
    is matching {e shape} (who wins, rough factors), not absolute values. *)

open Acrobat
module P = Profiler

type run = { latency_ms : float; profiler : P.t; flushes : int }

let run_framework ?(batch = 8) ?(seed = 1) ?iters ~(kind : Frameworks.kind)
    (model : Model.t) : run =
  let compiled, weights = compile_model ~framework:kind ?iters model ~batch ~seed in
  let instances = gen_batch model ~batch ~seed:(seed + 100) in
  let r = run compiled ~weights ~instances () in
  {
    latency_ms = r.Driver.stats.latency_ms;
    profiler = r.Driver.stats.profiler;
    flushes = r.Driver.stats.flushes;
  }

(** DyNet's best of its two scheduling schemes (paper footnote 7). *)
let run_dynet_best ?batch ?seed ?(improved = false) (model : Model.t) : run =
  let agenda =
    run_framework ?batch ?seed
      ~kind:(Frameworks.Dynet { improved; scheduler = Config.Agenda })
      model
  in
  let depth =
    run_framework ?batch ?seed
      ~kind:(Frameworks.Dynet { improved; scheduler = Config.Runtime_depth })
      model
  in
  if agenda.latency_ms <= depth.latency_ms then agenda else depth

let run_acrobat ?batch ?seed ?(config = Config.acrobat) (model : Model.t) : run =
  run_framework ?batch ?seed ~kind:(Frameworks.Acrobat config) model

(* --- Table 4: DyNet vs ACROBAT across all models --- *)

type t4_row = {
  t4_model : string;
  t4_size : Model.size;
  t4_batch : int;
  t4_dynet : float;
  t4_acrobat : float;
  t4_paper_dynet : float option;  (** None: the paper's run OOMed. *)
  t4_paper_acrobat : float;
}

let paper_table4 =
  (* model, size, batch, DyNet ms (None = OOM), ACROBAT ms *)
  [
    "treelstm", Model.Small, 8, Some 4.31, 1.48;
    "treelstm", Model.Small, 64, Some 26.18, 5.81;
    "treelstm", Model.Large, 8, Some 4.58, 2.4;
    "treelstm", Model.Large, 64, Some 26.53, 11.44;
    "mvrnn", Model.Small, 8, Some 2.11, 0.54;
    "mvrnn", Model.Small, 64, Some 12.45, 1.48;
    "mvrnn", Model.Large, 8, Some 2.27, 1.04;
    "mvrnn", Model.Large, 64, Some 13.89, 4.46;
    "birnn", Model.Small, 8, Some 3.13, 2.16;
    "birnn", Model.Small, 64, Some 12.04, 4.86;
    "birnn", Model.Large, 8, Some 3.95, 4.43;
    "birnn", Model.Large, 64, Some 12.11, 13.11;
    "nestedrnn", Model.Small, 8, Some 29.38, 31.01;
    "nestedrnn", Model.Small, 64, Some 84.55, 65.73;
    "nestedrnn", Model.Large, 8, Some 46.03, 35.61;
    "nestedrnn", Model.Large, 64, Some 94.97, 100.17;
    "drnn", Model.Small, 8, Some 6.7, 1.74;
    "drnn", Model.Small, 64, Some 25.3, 5.24;
    "drnn", Model.Large, 8, Some 8.44, 2.45;
    "drnn", Model.Large, 64, Some 26.5, 9.99;
    "berxit", Model.Small, 8, Some 63.54, 38.49;
    "berxit", Model.Small, 64, None, 204.54;
    "berxit", Model.Large, 8, Some 113.18, 64.49;
    "berxit", Model.Large, 64, None, 335.3;
    "stackrnn", Model.Small, 8, Some 47.78, 22.69;
    "stackrnn", Model.Small, 64, Some 213.98, 39.06;
    "stackrnn", Model.Large, 8, Some 64.67, 43.75;
    "stackrnn", Model.Large, 64, Some 230.74, 86.82;
  ]

let table4 ?(models = List.map (fun (e : Models.entry) -> e.Models.id) Models.all)
    ?(batches = [ 8; 64 ]) ?(sizes = [ Model.Small; Model.Large ]) () : t4_row list =
  List.concat_map
    (fun id ->
      let entry = Models.find id in
      List.concat_map
        (fun size ->
          let model = entry.Models.make size in
          List.map
            (fun batch ->
              let dynet = run_dynet_best ~batch model in
              let acro = run_acrobat ~batch model in
              let paper_dynet, paper_acrobat =
                match
                  List.find_opt (fun (m, s, b, _, _) -> m = id && s = size && b = batch)
                    paper_table4
                with
                | Some (_, _, _, d, a) -> d, a
                | None -> None, nan
              in
              {
                t4_model = id;
                t4_size = size;
                t4_batch = batch;
                t4_dynet = dynet.latency_ms;
                t4_acrobat = acro.latency_ms;
                t4_paper_dynet = paper_dynet;
                t4_paper_acrobat = paper_acrobat;
              })
            batches)
        sizes)
    models

(* --- Table 5: activity breakdown --- *)

type t5_cell = {
  t5_dfg : float;
  t5_sched : float;
  t5_mem : float;
  t5_kernel : float;
  t5_kernel_calls : int;
  t5_api : float;
}

let activity_cell (r : run) : t5_cell =
  let ms a = P.time_us r.profiler a /. 1000.0 in
  {
    t5_dfg = ms P.Dfg_construction;
    t5_sched = ms P.Scheduling;
    t5_mem = ms P.Mem_transfer;
    t5_kernel = ms P.Kernel_exec;
    t5_kernel_calls = r.profiler.P.kernel_calls;
    t5_api = ms P.Api_overhead;
  }

(** (config label, DyNet cell, ACROBAT cell) for TreeLSTM-small and
    BiRNN-large at batch size 64. *)
let table5 () =
  let one id size =
    let model = (Models.find id).Models.make size in
    let dynet = run_dynet_best ~batch:64 model in
    let acro = run_acrobat ~batch:64 model in
    Fmt.str "%s, %s" id (Model.size_name size), activity_cell dynet, activity_cell acro
  in
  [ one "treelstm" Model.Small; one "birnn" Model.Large ]

(* --- Table 6: Cortex vs ACROBAT --- *)

let paper_table6 =
  [
    (* model, size, batch, cortex, acrobat *)
    "treelstm", Model.Small, 8, 0.79, 1.48;
    "treelstm", Model.Small, 64, 3.62, 5.81;
    "treelstm", Model.Large, 8, 1.84, 2.4;
    "treelstm", Model.Large, 64, 10.23, 11.44;
    "mvrnn", Model.Small, 8, 1.14, 0.54;
    "mvrnn", Model.Small, 64, 6.92, 1.48;
    "mvrnn", Model.Large, 8, 5.3, 1.04;
    "mvrnn", Model.Large, 64, 41.15, 4.46;
    "birnn", Model.Small, 8, 1.28, 2.16;
    "birnn", Model.Small, 64, 3.48, 4.86;
    "birnn", Model.Large, 8, 2.47, 4.43;
    "birnn", Model.Large, 64, 10.74, 13.11;
  ]

(* Cortex consumes raw workload structures; the generators are seeded
   identically to the model instance generators (gen_batch with
   seed + 100), so both frameworks see the same trees/sentences. *)
let cortex_latency id size batch =
  let seed = 1 + 100 in
  let rng = Rng.create seed in
  match id with
  | "treelstm" ->
    let hidden = match size with Model.Small -> 256 | Model.Large -> 512 in
    let trees = List.init batch (fun _ -> Workloads.Trees.sample rng) in
    (Cortex.run_treelstm ~hidden trees).Cortex.latency_ms
  | "mvrnn" ->
    let hidden = match size with Model.Small -> 64 | Model.Large -> 128 in
    let trees = List.init batch (fun _ -> Workloads.Trees.sample rng) in
    (Cortex.run_mvrnn ~hidden trees).Cortex.latency_ms
  | "birnn" ->
    let hidden = match size with Model.Small -> 256 | Model.Large -> 512 in
    let sentences = List.init batch (fun _ -> Workloads.Sentences.sample rng) in
    (Cortex.run_birnn ~hidden ~classes:16 sentences).Cortex.latency_ms
  | other -> Fmt.invalid_arg "Cortex does not support %s (recursive models only)" other

type t6_row = {
  t6_model : string;
  t6_size : Model.size;
  t6_batch : int;
  t6_cortex : float;
  t6_acrobat : float;
  t6_paper_cortex : float;
  t6_paper_acrobat : float;
}

let table6 () : t6_row list =
  List.map
    (fun (id, size, batch, pc, pa) ->
      let model = (Models.find id).Models.make size in
      let acro = run_acrobat ~batch model in
      {
        t6_model = id;
        t6_size = size;
        t6_batch = batch;
        t6_cortex = cortex_latency id size batch;
        t6_acrobat = acro.latency_ms;
        t6_paper_cortex = pc;
        t6_paper_acrobat = pa;
      })
    paper_table6

(* --- Table 7: Relay VM vs AOT compilation --- *)

let paper_table7 =
  [
    "treelstm", Model.Small, 8, 30.68, 2.66;
    "treelstm", Model.Small, 64, 28.94, 9.47;
    "treelstm", Model.Large, 8, 31.64, 3.85;
    "treelstm", Model.Large, 64, 29.49, 15.9;
    "mvrnn", Model.Small, 8, 4.0, 0.55;
    "mvrnn", Model.Small, 64, 3.91, 1.63;
    "mvrnn", Model.Large, 8, 4.34, 1.06;
    "mvrnn", Model.Large, 64, 4.36, 4.6;
    "birnn", Model.Small, 8, 29.88, 2.23;
    "birnn", Model.Small, 64, 28.88, 5.47;
    "birnn", Model.Large, 8, 32.04, 4.82;
    "birnn", Model.Large, 64, 30.43, 13.72;
  ]

type t7_row = {
  t7_model : string;
  t7_size : Model.size;
  t7_batch : int;
  t7_vm : float;
  t7_aot : float;
  t7_paper_vm : float;
  t7_paper_aot : float;
}

let run_mode ~mode ?(batch = 8) ?(seed = 1) (model : Model.t) : run =
  let compiled, weights = compile_model ~framework:(Frameworks.Acrobat Config.acrobat) model ~batch ~seed in
  let instances = gen_batch model ~batch ~seed:(seed + 100) in
  let r =
    Driver.run_batch ~mode ~policy:Policy.acrobat_policy ~quality:compiled.quality
      ~lprog:compiled.lprog ~weights ~instances ()
  in
  {
    latency_ms = r.Driver.stats.latency_ms;
    profiler = r.Driver.stats.profiler;
    flushes = r.Driver.stats.flushes;
  }

let table7 () : t7_row list =
  List.map
    (fun (id, size, batch, pvm, paot) ->
      let model = (Models.find id).Models.make size in
      let vm = run_mode ~mode:Driver.Vm_mode ~batch model in
      let aot = run_mode ~mode:Driver.Aot_mode ~batch model in
      {
        t7_model = id;
        t7_size = size;
        t7_batch = batch;
        t7_vm = vm.latency_ms;
        t7_aot = aot.latency_ms;
        t7_paper_vm = pvm;
        t7_paper_aot = paot;
      })
    paper_table7

(* --- Table 8: DyNet vs DyNet++ (improved heuristics) vs ACROBAT --- *)

let paper_table8 =
  [
    "treelstm", Model.Small, 8, 4.31, 3.8, 1.48;
    "treelstm", Model.Small, 64, 26.18, 22.69, 5.81;
    "treelstm", Model.Large, 8, 4.58, 4.14, 2.4;
    "treelstm", Model.Large, 64, 26.53, 24.09, 11.44;
    "mvrnn", Model.Small, 8, 2.11, 1.05, 0.54;
    "mvrnn", Model.Small, 64, 12.45, 3.15, 1.48;
    "mvrnn", Model.Large, 8, 2.27, 1.83, 1.04;
    "mvrnn", Model.Large, 64, 13.89, 10.47, 4.46;
    "drnn", Model.Small, 8, 6.7, 3.29, 1.74;
    "drnn", Model.Small, 64, 25.3, 18.51, 5.24;
    "drnn", Model.Large, 8, 8.44, 3.82, 2.45;
    "drnn", Model.Large, 64, 26.5, 18.86, 9.99;
  ]

type t8_row = {
  t8_model : string;
  t8_size : Model.size;
  t8_batch : int;
  t8_dn : float;
  t8_dnpp : float;
  t8_ab : float;
  t8_paper : float * float * float;
}

let table8 () : t8_row list =
  List.map
    (fun (id, size, batch, pdn, pdnpp, pab) ->
      let model = (Models.find id).Models.make size in
      let dn = run_dynet_best ~batch model in
      let dnpp = run_dynet_best ~improved:true ~batch model in
      let ab = run_acrobat ~batch model in
      {
        t8_model = id;
        t8_size = size;
        t8_batch = batch;
        t8_dn = dn.latency_ms;
        t8_dnpp = dnpp.latency_ms;
        t8_ab = ab.latency_ms;
        t8_paper = pdn, pdnpp, pab;
      })
    paper_table8

(* --- Table 9: PGO benefit in auto-scheduling (NestedRNN small, bs 8) --- *)

let paper_table9 =
  [ 100, 41.08, 42.49; 250, 34.58, 30.88; 500, 31.61, 24.4; 750, 27.33, 23.72; 1000, 25.63, 24.34 ]

type t9_row = {
  t9_iters : int;
  t9_nopgo : float;
  t9_pgo : float;
  t9_paper_nopgo : float;
  t9_paper_pgo : float;
}

(* One NestedRNN run at a given budget/PGO setting and search seed. The
   paper averages 10 auto-scheduler runs (footnote 13): the search is
   stochastic. *)
let table9_one ~iters ~pgo ~search_seed =
  let model = (Models.find "nestedrnn").Models.make Model.Small in
  let config = { Config.acrobat with autosched_iters = iters; pgo } in
  let compiled, weights =
    compile_model ~framework:(Frameworks.Acrobat config) model ~batch:8 ~seed:1
  in
  let compiled = tune ~iters ~search_seed compiled ~weights ~calibration:(gen_batch model ~batch:8 ~seed:2) in
  let instances = gen_batch model ~batch:8 ~seed:101 in
  (run compiled ~weights ~instances ()).Driver.stats.latency_ms

let table9 ?(runs = 10) () : t9_row list =
  let mean f = List.init runs f |> List.fold_left ( +. ) 0.0 |> fun s -> s /. float_of_int runs in
  List.map
    (fun (iters, pno, pyes) ->
      {
        t9_iters = iters;
        t9_nopgo = mean (fun seed -> table9_one ~iters ~pgo:false ~search_seed:seed);
        t9_pgo = mean (fun seed -> table9_one ~iters ~pgo:true ~search_seed:seed);
        t9_paper_nopgo = pno;
        t9_paper_pgo = pyes;
      })
    paper_table9

(* --- Figure 5: ablation ladder (large size, batch 64) --- *)

let ablation_ladder : (string * Config.t) list =
  let base =
    {
      Config.acrobat with
      kernel_fusion = false;
      horizontal_fusion = false;
      grain_coarsening = false;
      scheduler = Config.Runtime_depth;
      ghost_ops = false;
      program_phases = false;
      gather_fusion = false;
      hoisting = false;
    }
  in
  let plus_fusion = { base with kernel_fusion = true; horizontal_fusion = true } in
  let plus_coarsen = { plus_fusion with grain_coarsening = true } in
  let plus_inline = { plus_coarsen with scheduler = Config.Inline_depth; hoisting = true } in
  let plus_phases = { plus_inline with program_phases = true; ghost_ops = true } in
  let full = { plus_phases with gather_fusion = true } in
  [
    "no-opt", base;
    "+fusion", plus_fusion;
    "+coarsening", plus_coarsen;
    "+inline-depth", plus_inline;
    "+phases/ghost", plus_phases;
    "+gather-fusion", full;
  ]

type fig5_row = { f5_model : string; f5_steps : (string * float) list }

let fig5 ?(models = List.map (fun (e : Models.entry) -> e.Models.id) Models.all) () :
    fig5_row list =
  List.map
    (fun id ->
      let model = (Models.find id).Models.make Model.Large in
      let steps =
        List.map
          (fun (label, config) ->
            let r = run_acrobat ~batch:64 ~config model in
            label, r.latency_ms)
          ablation_ladder
      in
      { f5_model = id; f5_steps = steps })
    models

(* --- Figure 9: speedups over PyTorch --- *)

type fig9_row = {
  f9_model : string;
  f9_size : Model.size;
  f9_batch : int;
  f9_pytorch : float;
  f9_acrobat : float;
}

(* PyTorch runs eagerly through the interpreter, except BiRNN which uses
   TorchScript in the paper (footnote 12) — compiled but still unbatched. *)
let run_pytorch ?(batch = 8) ?(seed = 1) ~(model_id : string) (model : Model.t) : run =
  let kind = Frameworks.Pytorch in
  let compiled, weights = compile_model ~framework:kind model ~batch ~seed in
  let instances = gen_batch model ~batch ~seed:(seed + 100) in
  let mode = if model_id = "birnn" then Driver.Aot_mode else Driver.Vm_mode in
  let r =
    Driver.run_batch ~mode ~policy:(Frameworks.policy kind) ~quality:compiled.quality
      ~lprog:compiled.lprog ~weights ~instances ()
  in
  {
    latency_ms = r.Driver.stats.latency_ms;
    profiler = r.Driver.stats.profiler;
    flushes = r.Driver.stats.flushes;
  }

let fig9 ?(batches = [ 8; 64 ]) () : fig9_row list =
  List.concat_map
    (fun id ->
      List.concat_map
        (fun size ->
          let model = (Models.find id).Models.make size in
          List.map
            (fun batch ->
              let pt = run_pytorch ~batch ~model_id:id model in
              let ab = run_acrobat ~batch model in
              {
                f9_model = id;
                f9_size = size;
                f9_batch = batch;
                f9_pytorch = pt.latency_ms;
                f9_acrobat = ab.latency_ms;
              })
            batches)
        [ Model.Small; Model.Large ])
    [ "treelstm"; "mvrnn"; "birnn" ]

(* --- Serving: latency vs offered load (beyond the paper: the online
   front-end feeding ACROBAT's scheduler from independent requests) --- *)

type serve_row = {
  sv_model : string;
  sv_policy : string;
  sv_load : float;  (** Offered load as a multiple of batch-1 capacity. *)
  sv_rate : float;  (** Requests per second. *)
  sv_throughput : float;
  sv_p50 : float;
  sv_p95 : float;
  sv_p99 : float;
  sv_mean_batch : float;
  sv_drop_rate : float;
}

let serve_policies ~max_batch ~max_wait_us =
  [
    "batch1", Serve.Batcher.Batch1;
    "fixed", Serve.Batcher.Fixed { max_batch; max_wait_us };
    "adaptive", Serve.Batcher.Adaptive { max_batch; max_wait_us };
  ]

(** Latency-vs-offered-load curves. Each model compiles and tunes once; the
    same traffic trace (same seed) then replays under every policy, with
    offered load anchored to the measured batch-1 service rate so "2.0x
    load" means the same thing for every model. Fully deterministic. *)
let serve_curve ?(models = [ "treelstm"; "birnn" ]) ?(size = Model.Small)
    ?(loads = [ 0.5; 1.0; 2.0 ]) ?(requests = 150) ?(max_batch = 16)
    ?(max_wait_us = 1500.0) ?iters ?(seed = 1) () : serve_row list =
  List.concat_map
    (fun id ->
      let model = (Models.find id).Models.make size in
      let c, weights = compile_model ?iters model ~batch:8 ~seed in
      let execute batch = batch_executor ~seed c ~weights batch in
      (* Probe the single-request service time to anchor offered load. *)
      let probe_rng = Rng.create (seed + 7) in
      let l1_us =
        (execute [ model.Model.gen_instance probe_rng ]).Serve.Server.ex_latency_us
      in
      let base_rate_per_s = 1.0e6 /. l1_us in
      List.concat_map
        (fun load ->
          let rate = base_rate_per_s *. load in
          List.map
            (fun (pname, policy) ->
              let payload_rng = Rng.create ((seed * 31) + 5) in
              let payloads =
                Array.init requests (fun _ -> model.Model.gen_instance payload_rng)
              in
              let arrivals =
                Serve.Traffic.arrivals
                  ~rng:(Rng.create ((seed * 53) + 11))
                  (Serve.Traffic.Poisson { rate_per_s = rate })
                  ~n:requests
              in
              let config = { Serve.Server.default_config with Serve.Server.policy } in
              let stats =
                Serve.Server.simulate config ~arrivals
                  ~payload:(fun i -> payloads.(i))
                  ~execute:(Serve.Server.infallible execute)
              in
              let s = Serve.Stats.summarize stats in
              {
                sv_model = id;
                sv_policy = pname;
                sv_load = load;
                sv_rate = rate;
                sv_throughput = s.Serve.Stats.s_throughput_rps;
                sv_p50 = s.Serve.Stats.s_p50_ms;
                sv_p95 = s.Serve.Stats.s_p95_ms;
                sv_p99 = s.Serve.Stats.s_p99_ms;
                sv_mean_batch = s.Serve.Stats.s_mean_batch;
                sv_drop_rate = Serve.Stats.drop_rate s;
              })
            (serve_policies ~max_batch ~max_wait_us))
        loads)
    models

(* --- Serving availability under injected faults (DESIGN.md §8) --- *)

type faults_row = {
  fv_policy : string;
  fv_fault_rate : float;  (** Injected per-attempt kernel-fault probability. *)
  fv_goodput : float;
  fv_throughput : float;
  fv_p50 : float;
  fv_p99 : float;
  fv_fault_batches : int;
  fv_retries : int;
  fv_bisections : int;
  fv_poisoned : int;
  fv_breaker_opens : int;
}

(** Availability under faults: goodput and tail latency of the TreeLSTM
    serve bench as the injected kernel-fault rate rises, for each batching
    policy. The fault seed is fixed, so each rate's fault sequence is
    reproducible; rate 0.0 is the fault-free baseline the goodput ratios
    read against. *)
let serve_faults ?(rates = [ 0.0; 0.02; 0.05; 0.10 ]) ?(requests = 150)
    ?(rate_per_s = 4000.0) ?(max_batch = 16) ?(max_wait_us = 1500.0) ?(iters = 100)
    ?(seed = 1) () : faults_row list =
  let model = Models.tiny "treelstm" in
  List.concat_map
    (fun (pname, policy) ->
      List.map
        (fun fault_rate ->
          let faults =
            { Faults.none with Faults.seed = 7; kernel_fault_rate = fault_rate }
          in
          let report =
            serve_model ~iters ~policy ~faults
              ~process:(Serve.Traffic.Poisson { rate_per_s })
              ~requests ~seed model
          in
          let s = report.sv_summary in
          {
            fv_policy = pname;
            fv_fault_rate = fault_rate;
            fv_goodput = Serve.Stats.goodput s;
            fv_throughput = s.Serve.Stats.s_throughput_rps;
            fv_p50 = s.Serve.Stats.s_p50_ms;
            fv_p99 = s.Serve.Stats.s_p99_ms;
            fv_fault_batches = s.Serve.Stats.s_fault_batches;
            fv_retries = s.Serve.Stats.s_retries;
            fv_bisections = s.Serve.Stats.s_bisections;
            fv_poisoned = s.Serve.Stats.s_poisoned;
            fv_breaker_opens = s.Serve.Stats.s_breaker_opens;
          })
        rates)
    (serve_policies ~max_batch ~max_wait_us)

(* --- Serving: replicated cluster — availability and tail latency
   (DESIGN.md §9) --- *)

type cluster_row = {
  cl_label : string;
  cl_replicas : int;
  cl_hedge : float option;  (** Hedge percentile, when hedging is on. *)
  cl_goodput : float;
  cl_completed : int;
  cl_p50 : float;
  cl_p99 : float;
  cl_failovers : int;
  cl_requeued : int;
  cl_hedges : int;
  cl_hedge_wins : int;
}

(** Replication and hedging under injected faults, on the TreeLSTM tiny
    serve bench. Two sweeps, both deterministic:

    - {e availability vs replica count}: replica 0 carries a fault plan
      harsh enough to open a single server's breaker (75% kernel faults +
      10% resets per attempt); with peers to fail over to, goodput recovers
      from near-total collapse to ≥ 99%.
    - {e hedging vs stragglers}: every replica straggles 15% of batches at
      8x latency; hedging at the 90th percentile re-issues the stragglers'
      requests elsewhere and cuts the p99. *)
let serve_cluster_bench ?(requests = 150) ?(rate_per_s = 4000.0) ?(iters = 50) ?(seed = 3)
    () : cluster_row list =
  let model = Models.tiny "treelstm" in
  let run ~label ~replicas ~fault_plans ?hedge () =
    let r =
      serve_cluster ~iters ~fault_plans ?hedge_percentile:hedge ~replicas
        ~process:(Serve.Traffic.Poisson { rate_per_s })
        ~requests ~seed model
    in
    let s = r.cr_summary in
    {
      cl_label = label;
      cl_replicas = replicas;
      cl_hedge = hedge;
      cl_goodput = Serve.Stats.goodput s;
      cl_completed = s.Serve.Stats.s_completed;
      cl_p50 = s.Serve.Stats.s_p50_ms;
      cl_p99 = s.Serve.Stats.s_p99_ms;
      cl_failovers = s.Serve.Stats.s_failovers;
      cl_requeued = s.Serve.Stats.s_requeued;
      cl_hedges = s.Serve.Stats.s_hedges;
      cl_hedge_wins = s.Serve.Stats.s_hedge_wins;
    }
  in
  let faulty = Faults.parse "seed=7,kernel=0.75,reset=0.1" in
  let strag s = Faults.parse (Fmt.str "seed=%d,straggler=0.15x8" s) in
  (* The 1-replica baseline is the single-server path (what `acrobatc serve
     --replicas 1` runs): no peers to fail over to, so the breaker sheds
     and goodput collapses. A 1-replica *cluster* instead cycles the lone
     replica through probe/requeue forever — goodput survives but latency
     explodes; the single-server number is the honest availability floor. *)
  let single_server ~label ~fault_plan =
    let r =
      serve_model ~iters ~faults:fault_plan
        ~process:(Serve.Traffic.Poisson { rate_per_s })
        ~requests ~seed model
    in
    let s = r.sv_summary in
    {
      cl_label = label;
      cl_replicas = 1;
      cl_hedge = None;
      cl_goodput = Serve.Stats.goodput s;
      cl_completed = s.Serve.Stats.s_completed;
      cl_p50 = s.Serve.Stats.s_p50_ms;
      cl_p99 = s.Serve.Stats.s_p99_ms;
      cl_failovers = 0;
      cl_requeued = 0;
      cl_hedges = 0;
      cl_hedge_wins = 0;
    }
  in
  [
    single_server ~label:"faulty, single server" ~fault_plan:faulty;
    run ~label:"faulty r0, 2 replicas" ~replicas:2 ~fault_plans:[ faulty ] ();
    run ~label:"faulty r0, 3 replicas" ~replicas:3 ~fault_plans:[ faulty ] ();
    run ~label:"stragglers, no hedge" ~replicas:3
      ~fault_plans:[ strag 5; strag 6; strag 9 ]
      ();
    run ~label:"stragglers, hedge p90" ~replicas:3
      ~fault_plans:[ strag 5; strag 6; strag 9 ]
      ~hedge:90.0 ();
  ]

(* --- Integrity: delivered corruption and goodput vs audit sampling
   rate (DESIGN.md §14) --- *)

type integrity_row = {
  ig_audit : float;
  ig_goodput : float;
  ig_completed : int;
  ig_corrupted_batches : int;
  ig_corrupted_delivered : int;
  ig_audits : int;
  ig_audit_mismatches : int;
  ig_quarantines : int;
  ig_quarantine_restores : int;
  ig_p50 : float;
  ig_p99 : float;
}

(** Sweep the audit sampling rate over the {e same} corrupted cluster:
    identical seeds, identical arrival trace — the only intended change
    between rows is how many deliveries the audit gate verifies. Replica 0
    silently corrupts a fraction of its batch attempts (nothing raises —
    without auditing the wrong answers are simply delivered); replica 1 is
    clean. Rate 0.0 is the integrity layer off, 1.0 audits every delivery.
    Each rate is run over several seeds and the counts summed: quarantine
    drains perturb batch composition, so the per-seed {e injected}
    corruption wobbles a little between rates, and aggregating isolates the
    interception effect we are actually claiming. Expected shape (gated in
    [bench integrity]): delivered corruption falls monotonically with the
    sampling rate, reaches exactly zero at 1.0, and costs bounded goodput;
    the corruption scoreboard quarantines the dirty replica once mismatches
    accumulate. *)
let integrity_bench ?(audits = [ 0.0; 0.25; 0.5; 0.75; 1.0 ]) ?(requests = 120)
    ?(rate_per_s = 4000.0) ?(iters = 50) ?(seeds = [ 9; 10; 11; 12; 13 ]) () :
    integrity_row list =
  let model = Models.tiny "treelstm" in
  let corrupt = Faults.parse "seed=21,corrupt=0.4" in
  List.map
    (fun audit ->
      let runs =
        List.map
          (fun seed ->
            let r =
              serve_cluster ~iters ~fault_plans:[ corrupt ] ~replicas:2
                ~deadline_ms:50.0 ~audit
                ~process:(Serve.Traffic.Poisson { rate_per_s })
                ~requests ~seed model
            in
            r.cr_summary)
          seeds
      in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 runs in
      let mean f =
        List.fold_left (fun acc s -> acc +. f s) 0.0 runs
        /. float_of_int (List.length runs)
      in
      {
        ig_audit = audit;
        ig_goodput = mean Serve.Stats.goodput;
        ig_completed = sum (fun s -> s.Serve.Stats.s_completed);
        ig_corrupted_batches = sum (fun s -> s.Serve.Stats.s_corrupted_batches);
        ig_corrupted_delivered = sum (fun s -> s.Serve.Stats.s_corrupted_delivered);
        ig_audits = sum (fun s -> s.Serve.Stats.s_audits);
        ig_audit_mismatches = sum (fun s -> s.Serve.Stats.s_audit_mismatches);
        ig_quarantines = sum (fun s -> s.Serve.Stats.s_quarantines);
        ig_quarantine_restores = sum (fun s -> s.Serve.Stats.s_quarantine_restores);
        ig_p50 = mean (fun s -> s.Serve.Stats.s_p50_ms);
        ig_p99 = mean (fun s -> s.Serve.Stats.s_p99_ms);
      })
    audits

(* --- Observability: the metrics timeline of a serve run (DESIGN.md
   §10) --- *)

(** One fault-injected serve run with periodic snapshots on. The export
    carries every [device.*] counter — including the ones
    [Profiler.pp] used to drop silently (gather bytes, memcpy calls,
    unbatched ops, fiber switches) — every [serve.*] counter, and the
    periodic virtual-clock snapshots, so `bench --json` tracks the full
    telemetry surface across commits. Deterministic for a fixed seed. *)
let observability ?(requests = 150) ?(rate_per_s = 4000.0) ?(iters = 50) ?(seed = 1) () :
    Serve.Json.t =
  let model = Models.tiny "treelstm" in
  let faults = Faults.parse "seed=7,kernel=0.05" in
  let report =
    serve_model ~iters ~faults ~snapshot_every_us:10_000.0
      ~process:(Serve.Traffic.Poisson { rate_per_s })
      ~requests ~seed model
  in
  Serve.Stats.metrics_json report.sv_stats

(* --- Extras: ablations called out in DESIGN.md §6 --- *)

(** Scheduler ablation: identical DFGs under the three schedulers. *)
let ablation_scheduler () =
  List.concat_map
    (fun id ->
      let model = (Models.find id).Models.make Model.Small in
      List.map
        (fun sched ->
          let r = run_acrobat ~batch:64 ~config:{ Config.acrobat with scheduler = sched } model in
          ( id,
            Config.scheduler_name sched,
            r.latency_ms,
            P.time_us r.profiler P.Scheduling /. 1000.0,
            r.profiler.P.batches_executed ))
        [ Config.Inline_depth; Config.Runtime_depth; Config.Agenda ])
    [ "treelstm"; "birnn" ]

(** Context-sensitivity ablation: BiRNN loses parameter-reuse knowledge
    without it, forcing weight gathers. *)
let ablation_context () =
  List.map
    (fun ctx ->
      let model = (Models.find "birnn").Models.make Model.Small in
      let r =
        run_acrobat ~batch:64 ~config:{ Config.acrobat with context_sensitive = ctx } model
      in
      ctx, r.latency_ms, r.profiler.P.gather_bytes, r.profiler.P.gather_kernels)
    [ true; false ]

(* --- Multi-tenant serving: fixed-at-min vs autoscaled fleet (DESIGN.md
   §12) --- *)

(** Three-tenant flash-crowd mix over the model catalog. [crowd] is an
    MMPP tenant whose high phase doubles its rate, so the offered load
    swings between roughly 1500 and 3600 req/s while a single replica of
    the synthetic device below sustains about 2200 req/s: a fixed fleet
    of one is under water on average and drowns during every burst,
    while the autoscaler has headroom to absorb it. Seeds derive from
    [seed] with the registry's standard stride so the two configurations
    replay byte-identical arrival streams. *)
let tenants_mix ~seed : Tenancy.Tenant.t array =
  let tenant index tn_name tn_model tn_rate_per_s tn_bursty tn_slo_ms tn_weight tn_requests =
    {
      Tenancy.Tenant.tn_name;
      tn_model;
      tn_rate_per_s;
      tn_bursty;
      tn_seed = Tenancy.Tenant.derived_seed ~seed ~index;
      tn_slo_ms;
      tn_quota = 64;
      tn_weight;
      tn_requests;
    }
  in
  [|
    tenant 0 "steady" "treelstm" 800.0 false 15.0 1.0 1000;
    tenant 1 "crowd" "birnn" 1200.0 true 15.0 2.0 1200;
    tenant 2 "light" "moe" 400.0 false 20.0 1.0 400;
  |]

(** The same mix served by a fleet pinned at one replica and by the
    autoscaler ranging over 1..4; everything else — arrivals, payloads,
    the synthetic device, swap costs — is identical, so the goodput gap
    is attributable to scaling alone. The synthetic executor charges
    2000us + 200us per request in the batch (a real-ish setup-dominated
    device), and [model_bytes] sizes the resident-model swap penalty per
    catalog entry. *)
let tenants_bench ?(seed = 11) () : (string * Tenancy.Dispatcher.report) list =
  let tenants = tenants_mix ~seed in
  let execute _replica ~model:_ batch =
    let n = List.length batch in
    Serve.Server.Exec_ok
      {
        Serve.Server.ex_latency_us = 2_000.0 +. (200.0 *. float_of_int n);
        ex_profiler = None;
        ex_fingerprints = None;
        ex_corrupted = false;
      }
  in
  let model_bytes = function
    | "treelstm" -> 1_600_000
    | "birnn" -> 800_000
    | _ -> 2_400_000
  in
  let payload ~tenant:_ ~index:_ ~id = id in
  let server =
    {
      Serve.Server.default_config with
      Serve.Server.policy = Serve.Batcher.Adaptive { max_batch = 8; max_wait_us = 1_000.0 };
      queue_capacity = 128;
    }
  in
  let run label scaler =
    let cfg =
      {
        Tenancy.Dispatcher.default_config with
        Tenancy.Dispatcher.t_server = server;
        t_autoscale = scaler;
      }
    in
    label, Tenancy.Dispatcher.simulate cfg ~tenants ~payload ~execute ~model_bytes
  in
  [
    run "fixed@min" (Tenancy.Autoscaler.fixed 1);
    run "autoscale" (Tenancy.Autoscaler.default ~min_replicas:1 ~max_replicas:4);
  ]

(* --- Overload resilience: goodput vs offered load, controls on vs off
   (DESIGN.md §13) --- *)

type overload_row = {
  ov_config : string;  (** ["off"] or ["resilience"]. *)
  ov_load : float;  (** Offered load as a multiple of device capacity. *)
  ov_rate_per_s : float;
  ov_goodput : float;
  ov_completed : int;
  ov_expired : int;
  ov_shed : int;  (** Queue-full sheds. *)
  ov_limit_shed : int;
  ov_retry_shed : int;
  ov_retried : int;  (** Requests re-executed under the retry budget. *)
  ov_retries : int;  (** Batch retry attempts (both configs). *)
  ov_bisections : int;
  ov_poisoned : int;
  ov_degraded_batches : int;
  ov_brownouts : int;
  ov_brownout_restores : int;
  ov_p50 : float;
  ov_p99 : float;
  ov_limit_trajectory : (float * float) list;
      (** [(ts_us, limit)] samples of the AIMD concurrency limit, from the
          serving stats' periodic snapshots; empty when the limiter is
          off. *)
}

(** Goodput as the offered load climbs through and past device saturation,
    with the overload controls off (the PR-6 server: retries, bisection
    and the bounded queue only) and on (retry budget + adaptive
    concurrency limiter + brownout). The device is synthetic and
    setup-dominated — a batch of [n] costs 1000us + 150us*n, 55% of that
    in the degraded (early-exit) variant — so full strength sustains
    ~3640 req/s at max batch 8 and the brownout's capacity purchase is
    explicit. Every attempt faults transiently with probability 0.25 from
    a per-run seeded stream, which makes uncapped retry + bisection the
    off-config's capacity sink: above saturation that re-offered load is
    exactly what the retry budget converts into fresh completions.

    Deterministic for a fixed [seed]; each (load, config) cell draws its
    own arrival and fault streams from it. *)
let overload_bench ?(loads = [ 0.5; 0.8; 1.1; 1.4; 1.8 ]) ?(requests = 1200)
    ?(seed = 17) () : overload_row list =
  let max_batch = 8 in
  let setup_us = 1_000.0 and per_req_us = 150.0 in
  let capacity_rps =
    float_of_int max_batch
    /. ((setup_us +. (per_req_us *. float_of_int max_batch)) /. 1.0e6)
  in
  let fault_rate = 0.15 in
  let armed =
    {
      Resilience.rs_retry_budget = Some 0.2;
      rs_target_delay_us = Some 12_000.0;
      rs_brownout = Some (Resilience.brownout_of_string "6:10:2");
    }
  in
  let run ~load (label, resilience) =
    let rate_per_s = load *. capacity_rps in
    let fault_rng = Rng.create ((seed * 97) + 13) in
    let execute ~degraded batch =
      let n = List.length batch in
      let cost = setup_us +. (per_req_us *. float_of_int n) in
      let cost = if degraded then cost *. 0.55 else cost in
      if Rng.float fault_rng < fault_rate then
        Serve.Server.Exec_fault
          {
            ef_latency_us = cost;
            ef_reason = "transient";
            ef_transient = true;
            ef_oom = false;
            ef_reset = false;
          }
      else Serve.Server.Exec_ok
          { ex_latency_us = cost; ex_profiler = None; ex_fingerprints = None; ex_corrupted = false }
    in
    let arrivals =
      Serve.Traffic.arrivals
        ~rng:(Rng.create ((seed * 53) + 11))
        (Serve.Traffic.Poisson { rate_per_s })
        ~n:requests
    in
    let config =
      {
        Serve.Server.default_config with
        Serve.Server.policy = Serve.Batcher.Adaptive { max_batch; max_wait_us = 1_000.0 };
        queue_capacity = 256;
        deadline_us = Some 25_000.0;
        resilience;
      }
    in
    let stats =
      Serve.Server.simulate
        ?snapshot_every_us:(if Resilience.active resilience then Some 10_000.0 else None)
        config ~arrivals ~payload:(fun i -> i) ~execute
    in
    let s = Serve.Stats.summarize stats in
    let trajectory =
      List.filter_map
        (fun (ts_us, values) ->
          Option.map (fun v -> ts_us, v) (List.assoc_opt "resilience.limit" values))
        (Serve.Stats.snapshots stats)
    in
    {
      ov_config = label;
      ov_load = load;
      ov_rate_per_s = rate_per_s;
      ov_goodput = Serve.Stats.goodput s;
      ov_completed = s.Serve.Stats.s_completed;
      ov_expired = s.Serve.Stats.s_expired;
      ov_shed = s.Serve.Stats.s_shed;
      ov_limit_shed = s.Serve.Stats.s_limit_shed;
      ov_retry_shed = s.Serve.Stats.s_retry_shed;
      ov_retried = s.Serve.Stats.s_retried_requests;
      ov_retries = s.Serve.Stats.s_retries;
      ov_bisections = s.Serve.Stats.s_bisections;
      ov_poisoned = s.Serve.Stats.s_poisoned;
      ov_degraded_batches = s.Serve.Stats.s_degraded_batches;
      ov_brownouts = s.Serve.Stats.s_brownouts;
      ov_brownout_restores = s.Serve.Stats.s_brownout_restores;
      ov_p50 = s.Serve.Stats.s_p50_ms;
      ov_p99 = s.Serve.Stats.s_p99_ms;
      ov_limit_trajectory = trajectory;
    }
  in
  List.concat_map
    (fun load ->
      List.map (run ~load) [ "off", Resilience.off; "resilience", armed ])
    loads

(* --- simulator-core scale: events/sec at 10^3..10^6 requests --- *)

type scale_row = {
  sc_requests : int;
  sc_backend : string;
      (** ["heap"] (the production serving core) or ["reference"] (its
          reference build over the Map agenda and the sorted-list queue). *)
  sc_events : int;  (** Event-loop dispatches the campaign performed. *)
  sc_completed : int;
  sc_shed : int;
  sc_expired : int;
  sc_batches : int;
  sc_p50 : float;
  sc_p99 : float;
  sc_mean : float;
  sc_wall_s : float;
      (** Host CPU seconds for the whole simulation. Printed, never
          serialized: BENCH_scale.json must stay byte-identical across
          runs. *)
  sc_equivalent : bool;
      (** Whether this size's full summary JSON was byte-identical across
          the two cores — the in-process determinism gate proving the
          heaps change nothing but speed. *)
}

(** Run the same synthetic overload campaign through the production
    serving core ({!Serve.Server.simulate}) and through its reference build
    ([Acrobat_serve_reference.Server.simulate]: the same sources compiled
    over the Map event agenda and the sorted-list EDF queue) at each size.
    The executor is pure arithmetic (no model, no faults), so wall time is
    dominated by the event loop, the admission queue, and stats — exactly
    the paths the heaps target. The stream runs at 1.2x device capacity
    with a deadline, keeping the admission queue pinned near capacity: the
    regime where the reference's O(n) list walks hurt most, and the regime
    a shedding server actually lives in. *)
let scale_bench ?(sizes = [ 1_000; 10_000; 100_000; 1_000_000 ]) ?(seed = 29) () :
    scale_row list =
  let max_batch = 16 and max_wait_us = 400.0 in
  let setup_us = 200.0 and per_req_us = 20.0 in
  let capacity_rps =
    float_of_int max_batch
    /. ((setup_us +. (per_req_us *. float_of_int max_batch)) /. 1.0e6)
  in
  let rate_per_s = 1.2 *. capacity_rps in
  let latency_us batch = setup_us +. (per_req_us *. float_of_int (List.length batch)) in
  (* Queue depth and deadline sized for the traffic, not for the reference
     queue's comfort: under 1.2x load the queue pins at capacity and every
     offer pays the full-queue sweep, which is where the sorted-list
     admission's O(n) walks collapse. *)
  let queue_capacity = 3072 and deadline_us = Some 100_000.0 in
  let row ~backend ~events ~completed ~shed ~expired ~batches ~p50 ~p99 ~mean =
    {
      sc_requests = 0;
      sc_backend = backend;
      sc_events = events;
      sc_completed = completed;
      sc_shed = shed;
      sc_expired = expired;
      sc_batches = batches;
      sc_p50 = p50;
      sc_p99 = p99;
      sc_mean = mean;
      sc_wall_s = 0.0;
      sc_equivalent = false;
    }
  in
  (* The campaign on each core: simulate, then return the report. The two
     bodies are the same text over different modules — the reference build
     compiles the same sources, so only the types differ. *)
  let heap arrivals =
    let open Serve in
    let config =
      {
        Server.default_config with
        Server.policy = Batcher.Adaptive { max_batch; max_wait_us };
        queue_capacity;
        deadline_us;
      }
    in
    let stats =
      Server.simulate config ~arrivals ~payload:Fun.id
        ~execute:
          (Server.infallible (fun batch ->
               {
                 Server.ex_latency_us = latency_us batch;
                 ex_profiler = None;
                 ex_fingerprints = None;
                 ex_corrupted = false;
               }))
    in
    fun () ->
      let s = Stats.summarize stats in
      ( row ~backend:"heap" ~events:stats.Stats.loop_events ~completed:s.Stats.s_completed
          ~shed:s.Stats.s_shed ~expired:s.Stats.s_expired ~batches:s.Stats.s_batches
          ~p50:s.Stats.s_p50_ms ~p99:s.Stats.s_p99_ms ~mean:s.Stats.s_mean_ms,
        Json.to_string (Stats.summary_to_json s) )
  in
  let reference arrivals =
    let open Acrobat_serve_reference in
    let config =
      {
        Server.default_config with
        Server.policy = Batcher.Adaptive { max_batch; max_wait_us };
        queue_capacity;
        deadline_us;
      }
    in
    let stats =
      Server.simulate config ~arrivals ~payload:Fun.id
        ~execute:
          (Server.infallible (fun batch ->
               {
                 Server.ex_latency_us = latency_us batch;
                 ex_profiler = None;
                 ex_fingerprints = None;
                 ex_corrupted = false;
               }))
    in
    fun () ->
      let s = Stats.summarize stats in
      ( row ~backend:"reference" ~events:stats.Stats.loop_events
          ~completed:s.Stats.s_completed ~shed:s.Stats.s_shed ~expired:s.Stats.s_expired
          ~batches:s.Stats.s_batches ~p50:s.Stats.s_p50_ms ~p99:s.Stats.s_p99_ms
          ~mean:s.Stats.s_mean_ms,
        Json.to_string (Stats.summary_to_json s) )
  in
  let run ~requests core =
    (* A million-request campaign allocates heavily on both cores; the
       default 256k-word minor heap turns that into minor-GC thrash that
       drowns the signal. One shared (hence fair) setting for the whole
       comparison. *)
    let gc0 = Gc.get () in
    Gc.set { gc0 with Gc.minor_heap_size = 8 * 1024 * 1024 };
    Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
    let arrivals =
      Serve.Traffic.arrivals
        ~rng:(Rng.create ((seed * 31) + requests))
        (Serve.Traffic.Poisson { rate_per_s })
        ~n:requests
    in
    let t0 = Sys.time () in
    let report = core arrivals in
    let wall = Sys.time () -. t0 in
    let r, json = report () in
    { r with sc_requests = requests; sc_wall_s = wall }, json
  in
  List.concat_map
    (fun requests ->
      let heap, heap_json = run ~requests heap in
      let reference, ref_json = run ~requests reference in
      (* The two cores must produce byte-identical summaries: the
         simulation is deterministic and the heaps are a pure speedup. *)
      let equivalent = String.equal heap_json ref_json in
      [
        { heap with sc_equivalent = equivalent };
        { reference with sc_equivalent = equivalent };
      ])
    sizes

(* --- Net partition: goodput through a partition/heal cycle, naive
   resend vs exactly-once delivery (DESIGN.md §16) --- *)

type partition_row = {
  pt_label : string;
  pt_goodput : float;
  pt_offered : int;
  pt_completed : int;
  pt_shed : int;
  pt_expired : int;
  pt_p50 : float;
  pt_p99 : float;
  pt_net_sends : int;
  pt_net_resends : int;
  pt_net_dups : int;  (** Duplicate copies the transport delivered. *)
  pt_net_partition_drops : int;
  pt_net_dedup_hits : int;  (** Duplicates the idempotency window absorbed. *)
  pt_net_fresh : int;  (** Deliveries that reached the executor. *)
  pt_net_timeouts : int;
  pt_link_downs : int;
  pt_heals : int;
}

(** The same loaded 3-replica cluster behind three transports: direct
    calls (no network), the lossy transport with exactly-once delivery
    (idempotency keys + per-replica dedup window), and the same lossy
    transport with deduplication switched off — the naive-resend
    strawman, where every duplicated or re-sent dispatch that reaches a
    replica executes again. The plan duplicates aggressively and cuts
    replica 2 off for a mid-run window, so the duplicated executions
    burn real capacity: under load the naive rows' queues absorb ghost
    work and goodput drops strictly below the exactly-once row (gated
    in [bench partition]). Arrivals, seeds and the fault window are
    identical in all three rows; the only degree of freedom is the
    delivery protocol. *)
let partition_bench ?(requests = 2400) ?(rate_per_s = 30000.0) ?(iters = 50) ?(seed = 17) ()
    : partition_row list =
  let model = Models.tiny "treelstm" in
  let plan =
    Net.parse
      "seed=11,delay=150:50,drop=0.04,dup=0.3,partition=20000:50000:2,timeout=8000,resends=3"
  in
  let run ~label ?net () =
    let r =
      serve_cluster ~iters ?net ~replicas:3 ~deadline_ms:15.0
        ~process:(Serve.Traffic.Poisson { rate_per_s })
        ~requests ~seed model
    in
    let s = r.cr_summary in
    {
      pt_label = label;
      pt_goodput = Serve.Stats.goodput s;
      pt_offered = s.Serve.Stats.s_offered;
      pt_completed = s.Serve.Stats.s_completed;
      pt_shed = s.Serve.Stats.s_shed;
      pt_expired = s.Serve.Stats.s_expired;
      pt_p50 = s.Serve.Stats.s_p50_ms;
      pt_p99 = s.Serve.Stats.s_p99_ms;
      pt_net_sends = s.Serve.Stats.s_net_sends;
      pt_net_resends = s.Serve.Stats.s_net_resends;
      pt_net_dups = s.Serve.Stats.s_net_dups;
      pt_net_partition_drops = s.Serve.Stats.s_net_partition_drops;
      pt_net_dedup_hits = s.Serve.Stats.s_net_dedup_hits;
      pt_net_fresh = s.Serve.Stats.s_net_fresh;
      pt_net_timeouts = s.Serve.Stats.s_net_timeouts;
      pt_link_downs = s.Serve.Stats.s_net_link_downs;
      pt_heals = s.Serve.Stats.s_net_heals;
    }
  in
  [
    run ~label:"direct calls" ();
    run ~label:"exactly-once" ~net:plan ();
    run ~label:"naive resend" ~net:{ plan with Net.np_dedup = false } ();
  ]
