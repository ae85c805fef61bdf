(** Shared test helpers. *)

open Acrobat

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true msg b = Alcotest.(check bool) msg true b

let tensor_testable =
  Alcotest.testable Tensor.pp (fun a b -> Tensor.approx_equal ~eps:1e-9 a b)

let check_tensor msg a b = Alcotest.check tensor_testable msg a b

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(** Small positive dims for random shapes. *)
let gen_dim = QCheck2.Gen.int_range 1 6
let gen_shape = QCheck2.Gen.(list_size (int_range 0 3) gen_dim)

let gen_tensor_of_shape shape =
  QCheck2.Gen.(map (fun seed -> Tensor.random (Rng.create seed) shape) int)

(* --- End-to-end helpers --- *)

let run_tiny ?(compute_values = true) ?(batch = 4) ?(seed = 3) ~framework id =
  let model = Models.tiny id in
  let compiled = compile ~framework ~inputs:model.Model.inputs model.Model.source in
  let weights = model.Model.gen_weights 1 in
  let instances = gen_batch model ~batch ~seed in
  run ~compute_values compiled ~weights ~instances ()

(** Flatten every computed tensor of the outputs into one float list (exact
    cross-engine comparison). *)
let output_values (r : Driver.result) : float list =
  List.concat_map
    (fun v ->
      List.concat_map
        (fun h ->
          match Value.handle_tensor h with
          | Some t -> Array.to_list (Tensor.data t)
          | _ -> [])
        (List.rev (Value.handles [] v)))
    r.Driver.outputs

let dynet_kind = Frameworks.Dynet { improved = false; scheduler = Config.Agenda }
let dynet_depth_kind = Frameworks.Dynet { improved = false; scheduler = Config.Runtime_depth }
let acrobat_kind = Frameworks.Acrobat Config.acrobat

(** Substring test (for error-message assertions). *)
let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(** A hand-built kernel: [groups] of [(op, srcs)] instructions, each group
    one launch, temporaries numbered in order. *)
let make_kernel reg ~name ~roles ~shared_binds ~out_tmps groups =
  let next = ref (-1) in
  Kernel.finish reg ~name ~roles ~shared_binds ~out_tmps
    (List.map
       (List.map (fun (op, srcs) ->
            incr next;
            { Kernel.op; srcs; dst = !next }))
       groups)

(** A kernel of the one instruction [op srcs]. *)
let op_kernel reg ~name ~roles ~shared_binds op srcs =
  make_kernel reg ~name ~roles ~shared_binds ~out_tmps:[| 0 |] [ [ op, srcs ] ]
