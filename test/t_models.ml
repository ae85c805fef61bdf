(** Tests for the model zoo, workload generators and the Cortex baseline. *)

open Acrobat
open T_util
module W = Workloads
module P = Profiler

(* --- Workload generators --- *)

let test_tree_sampling_deterministic () =
  let t1 = W.Trees.sample (Rng.create 5) in
  let t2 = W.Trees.sample (Rng.create 5) in
  check_true "same seed, same tree" (t1 = t2)

let prop_tree_structure =
  qtest "trees: size = 2*leaves - 1 (binary)" QCheck2.Gen.int (fun seed ->
      let t = W.Trees.sample (Rng.create seed) in
      W.Trees.size t = (2 * W.Trees.leaves t) - 1)

let prop_tree_levels =
  qtest "trees: level sizes sum to size" QCheck2.Gen.int (fun seed ->
      let t = W.Trees.sample (Rng.create seed) in
      List.fold_left ( + ) 0 (W.Trees.level_sizes t) = W.Trees.size t)

let prop_tree_height_bounds =
  qtest "trees: log n <= height < n" QCheck2.Gen.int (fun seed ->
      let t = W.Trees.sample (Rng.create seed) in
      let h = W.Trees.height t and n = W.Trees.leaves t in
      h < n && float_of_int h >= Float.log2 (float_of_int n) -. 1e-9)

let prop_sentence_lengths =
  qtest "sentences: length in [4, 50]" QCheck2.Gen.int (fun seed ->
      let s = W.Sentences.sample (Rng.create seed) in
      let n = List.length s in
      n >= 4 && n <= 50)

let test_embedding_cache () =
  let table = W.Embeddings.create ~shape:[ 1; 4 ] ~seed:3 in
  let a = W.Embeddings.lookup table 42 in
  let b = W.Embeddings.lookup table 42 in
  check_true "same word shares storage" (a == b);
  let c = W.Embeddings.lookup table 43 in
  check_bool "different words differ" false (Tensor.equal a c)

(* --- Models --- *)

let test_all_models_compile_and_run () =
  (* Full-size models compile (analysis, lowering, kernel generation) and
     run a small accounting-only batch under ACROBAT and DyNet. *)
  List.iter
    (fun (e : Models.entry) ->
      let model = e.Models.make Model.Small in
      List.iter
        (fun kind ->
          let compiled = compile ~framework:kind ~inputs:model.Model.inputs model.Model.source in
          let weights = model.Model.gen_weights 1 in
          let instances = gen_batch model ~batch:2 ~seed:5 in
          let r = run compiled ~weights ~instances () in
          check_true
            (e.Models.id ^ ": executed kernels")
            (r.Driver.stats.profiler.P.kernel_calls > 0))
        [ acrobat_kind; dynet_kind ])
    Models.all

let test_model_tdc_flags () =
  List.iter
    (fun (e : Models.entry) ->
      let model = e.Models.make Model.Small in
      let lp = Lower.compile ~inputs:model.Model.inputs model.Model.source in
      check_bool (e.Models.id ^ ": TDC flag") e.Models.has_tdc lp.Lowered.has_tdc)
    Models.all

let test_treelstm_output_is_distribution () =
  let r = run_tiny ~framework:acrobat_kind "treelstm" in
  List.iter
    (fun v ->
      match Value.handles [] v with
      | [ h ] -> begin
        match Value.handle_tensor h with
        | Some t ->
          check_float ~eps:1e-9 "softmax sums to 1" 1.0 (Tensor.sum t);
          Array.iter (fun p -> check_true "probability" (p >= 0.0 && p <= 1.0)) (Tensor.data t)
        | _ -> Alcotest.fail "output not computed"
      end
      | _ -> Alcotest.fail "expected one output tensor")
    r.Driver.outputs

let test_rnn_output_length_matches_input () =
  let model = Models.tiny "rnn" in
  let compiled = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch:3 ~seed:3 in
  let r = run ~compute_values:true compiled ~weights ~instances () in
  List.iter2
    (fun inst v ->
      let input_len =
        match List.assoc "inps" inst with Driver.Hlist l -> List.length l | _ -> 0
      in
      check_int "one output per token" input_len (List.length (Value.handles [] v)))
    instances r.Driver.outputs

let test_berxit_early_exit_varies () =
  (* Different instances exit at different layers: flush count exceeds one
     and per-instance kernel counts differ across a batch. *)
  let model = Models.tiny "berxit" in
  let compiled = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch:8 ~seed:3 in
  let r = run compiled ~weights ~instances () in
  check_true "multiple flush rounds (per-layer decisions)" (r.Driver.stats.flushes > 2)

let test_stackrnn_terminates_and_scales () =
  let model = Models.tiny "stackrnn" in
  let compiled = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let small = run compiled ~weights ~instances:(gen_batch model ~batch:2 ~seed:3) () in
  let large = run compiled ~weights ~instances:(gen_batch model ~batch:8 ~seed:3) () in
  check_true "more instances, more nodes"
    (large.Driver.stats.profiler.P.nodes_created > small.Driver.stats.profiler.P.nodes_created)

let test_model_sizes_differ () =
  List.iter
    (fun id ->
      let entry = Models.find id in
      let run_size size =
        let model = entry.Models.make size in
        let compiled = compile ~inputs:model.Model.inputs model.Model.source in
        let weights = model.Model.gen_weights 1 in
        let instances = gen_batch model ~batch:2 ~seed:5 in
        (run compiled ~weights ~instances ()).Driver.stats.latency_ms
      in
      check_true (id ^ ": large slower than small") (run_size Model.Large > run_size Model.Small))
    [ "treelstm"; "birnn"; "berxit" ]

(* --- Cortex baseline --- *)

let test_cortex_treelstm_scales () =
  let rng = Rng.create 3 in
  let trees8 = List.init 8 (fun _ -> W.Trees.sample rng) in
  let rng = Rng.create 3 in
  let trees64 = List.init 64 (fun _ -> W.Trees.sample rng) in
  let r8 = Cortex.run_treelstm ~hidden:256 trees8 in
  let r64 = Cortex.run_treelstm ~hidden:256 trees64 in
  check_true "positive latency" (r8.Cortex.latency_ms > 0.0);
  check_true "batch 64 slower" (r64.Cortex.latency_ms > r8.Cortex.latency_ms);
  check_true "sublinear in batch (level batching)"
    (r64.Cortex.latency_ms < 8.0 *. r8.Cortex.latency_ms)

let test_cortex_few_launches () =
  let rng = Rng.create 3 in
  let trees = List.init 64 (fun _ -> W.Trees.sample rng) in
  let r = Cortex.run_treelstm ~hidden:256 trees in
  let max_height = List.fold_left (fun acc t -> max acc (W.Trees.height t)) 0 trees in
  check_true "about one persistent launch per level" (r.Cortex.kernel_calls <= max_height + 4)

let test_cortex_mvrnn_copy_penalty () =
  let rng = Rng.create 3 in
  let trees = List.init 16 (fun _ -> W.Trees.sample rng) in
  let tree_r = Cortex.run_treelstm ~hidden:64 trees in
  let mv_r = Cortex.run_mvrnn ~hidden:64 trees in
  (* Same trees, comparable compute, but MV-RNN pays per-leaf matrix
     copies. *)
  check_true "leaf copies dominate MV-RNN" (mv_r.Cortex.latency_ms > tree_r.Cortex.latency_ms)

let test_cortex_birnn () =
  let rng = Rng.create 3 in
  let sentences = List.init 16 (fun _ -> W.Sentences.sample rng) in
  let r = Cortex.run_birnn ~hidden:256 ~classes:16 sentences in
  let max_len = List.fold_left (fun acc s -> max acc (List.length s)) 0 sentences in
  check_true "two launches per step plus hoisted ends"
    (r.Cortex.kernel_calls <= (2 * max_len) + 4)

let test_moe_routing_batches () =
  (* Instances routed to the same expert share its kernels: with 16
     instances over 4 experts, expert kernels batch. *)
  let model = Models.tiny "moe" in
  let compiled = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch:16 ~seed:3 in
  let r = run compiled ~weights ~instances () in
  let p = r.Driver.stats.profiler in
  check_true "expert invocations batch across instances"
    (p.P.batches_executed < p.P.nodes_created / 2)

let test_beamsearch_beams_batch () =
  (* All beams of all instances expand at the same depth per step. *)
  let model = Models.tiny "beamsearch" in
  let compiled = compile ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch:8 ~seed:3 in
  let r = run compiled ~weights ~instances () in
  let p = r.Driver.stats.profiler in
  (* 8 instances x 3 beams expand together: ~1 batch per decode step. *)
  check_true "beam expansions batch" (p.P.batches_executed <= r.Driver.stats.flushes * 3)

let suite =
  [
    Alcotest.test_case "workloads: tree determinism" `Quick test_tree_sampling_deterministic;
    prop_tree_structure;
    prop_tree_levels;
    prop_tree_height_bounds;
    prop_sentence_lengths;
    Alcotest.test_case "workloads: embedding cache" `Quick test_embedding_cache;
    Alcotest.test_case "models: all compile and run" `Slow test_all_models_compile_and_run;
    Alcotest.test_case "models: TDC flags" `Quick test_model_tdc_flags;
    Alcotest.test_case "models: treelstm softmax output" `Quick test_treelstm_output_is_distribution;
    Alcotest.test_case "models: rnn output length" `Quick test_rnn_output_length_matches_input;
    Alcotest.test_case "models: berxit early exit" `Quick test_berxit_early_exit_varies;
    Alcotest.test_case "models: stackrnn scaling" `Quick test_stackrnn_terminates_and_scales;
    Alcotest.test_case "models: size scaling" `Slow test_model_sizes_differ;
    Alcotest.test_case "cortex: treelstm scaling" `Quick test_cortex_treelstm_scales;
    Alcotest.test_case "cortex: few launches" `Quick test_cortex_few_launches;
    Alcotest.test_case "cortex: mvrnn copy penalty" `Quick test_cortex_mvrnn_copy_penalty;
    Alcotest.test_case "cortex: birnn" `Quick test_cortex_birnn;
    Alcotest.test_case "models: moe routing batches" `Quick test_moe_routing_batches;
    Alcotest.test_case "models: beam expansions batch" `Quick test_beamsearch_beams_batch;
  ]
