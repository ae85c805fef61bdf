(** Sentiment classification with a TreeLSTM over parse trees — the
    recursive, instance-parallel workload the paper's introduction
    motivates. Compares the batching behaviour of ACROBAT against the
    DyNet-style dynamic baseline on the same trees.

    Run with: [dune exec examples/sentiment_treelstm.exe] *)

open Acrobat
module P = Profiler

let labels = [| "--"; "-"; "0"; "+"; "++" |]

let () =
  let model = Acrobat_models.Treelstm.make ~hidden:16 ~classes:5 Model.Small in
  let weights = model.Model.gen_weights 7 in
  let instances = gen_batch model ~batch:8 ~seed:11 in

  let run_with name kind =
    let compiled = compile ~framework:kind ~inputs:model.Model.inputs model.Model.source in
    let compiled = tune compiled ~weights ~calibration:instances in
    let r = run ~compute_values:true compiled ~weights ~instances () in
    let p = r.Driver.stats.profiler in
    Fmt.pr "%-8s latency=%6.2f ms  DFG nodes=%4d  batches=%4d  kernel launches=%4d@." name
      r.Driver.stats.latency_ms p.P.nodes_created p.P.batches_executed p.P.kernel_calls;
    r
  in
  Fmt.pr "classifying 8 synthetic parse trees:@.";
  let r = run_with "acrobat" (Frameworks.Acrobat Config.acrobat) in
  let _ = run_with "dynet" (Frameworks.Dynet { improved = false; scheduler = Config.Agenda }) in

  Fmt.pr "@.predictions (argmax of the root softmax):@.";
  List.iteri
    (fun i v ->
      match Value.handles [] v with
      | [ h ] -> begin
        match Value.handle_tensor h with
        | Some t ->
          let cls = Tensor.argmax t in
          Fmt.pr "  tree %d -> %s (p=%.3f)@." i labels.(cls) (Tensor.get t cls)
        | _ -> ()
      end
      | _ -> ())
    r.Driver.outputs
