(** Tests for the compiler: ANF, call graph, taint analysis (parameter
    reuse, hoisting, context sensitivity), kernel construction and fusion,
    lowering (coarsening, ghosts, phases), and the auto-scheduler. *)

open Acrobat
open T_util
module C = Acrobat_compiler
module Ast = Ir.Ast
module Op = Ir.Op
module L = Lowered

let parse_anf src = C.Anf.program (Ir.Typecheck.parse_and_check src)

(* --- ANF --- *)

let rec prims_are_let_bound (e : Ast.expr) ~tail_ok =
  ignore tail_ok;
  match e with
  | Ast.Let (_, Ast.Prim (_, args), body) ->
    List.for_all atomic_arg args && prims_are_let_bound body ~tail_ok
  | Ast.Prim _ -> false
  | e ->
    Ast.fold_expr
      (fun acc sub ->
        acc
        &&
        match sub with
        | Ast.Prim (_, args) -> List.for_all atomic_arg args
        | _ -> true)
      true e

and atomic_arg = function
  | Ast.Var _ | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ -> true
  | Ast.Proj (a, _) -> atomic_arg a
  | _ -> false

let test_anf_flattens () =
  let p =
    parse_anf
      "def @main(%a: Tensor[(1, 4)], %w: Tensor[(4, 4)]) -> Tensor[(1, 4)] { \
       sigmoid(%a + matmul(%a, %w)) }"
  in
  let d = List.hd p.Ast.defs in
  check_true "all prim args atomic" (prims_are_let_bound d.Ast.body ~tail_ok:true)

let test_anf_preserves_semantics () =
  (* The same model computes the same values before/after ANF is implied by
     every end-to-end test; here check ANF of all models at least produces
     well-formed programs. *)
  List.iter
    (fun id ->
      let m = Models.tiny id in
      let p = parse_anf m.Model.source in
      List.iter (fun (d : Ast.def) -> check_true (id ^ " anf ok") (prims_are_let_bound d.Ast.body ~tail_ok:true)) p.Ast.defs)
    Models.tiny_ids

(* The outputs of [src], whose @main takes an input [x] of shape
   [1; 4] and a weight [w] of shape [4; 4], on three seeded instances. *)
let program_values ?(framework = acrobat_kind) src =
  let c = compile ~framework ~inputs:[ "x" ] src in
  let rng = Rng.create 5 in
  let weights = [ "w", Tensor.random rng [ 4; 4 ] ] in
  let instances = List.init 3 (fun _ -> [ "x", Driver.Htensor (Tensor.random rng [ 1; 4 ]) ]) in
  output_values (run ~compute_values:true c ~weights ~instances ())

(* A source variable named like an ANF temporary must not collide with
   one: each program gets temporaries that none of its identifiers use. *)
let test_anf_temporaries_avoid_source_names () =
  let program x =
    Fmt.str
      "def @main(%%x: Tensor[(1, 4)], %%w: Tensor[(4, 4)]) -> Tensor[(1, 4)] { let %%%s = %%x; \
       let %%y = sigmoid(add(matmul(%%%s, %%w), %%x)); add(%%y, %%%s) }"
      x x x
  in
  (* The name a temporary numbered on from a probe's would take second
     in the next program: where a counter shared across programs
     collides. *)
  let next_second =
    match parse_anf "def @main(%x: Tensor[(1, 4)]) -> Tensor[(1, 4)] { sigmoid(%x) }" with
    | { Ast.defs = [ { Ast.body = Ast.Let (v, _, _); _ } ] } ->
      Fmt.str "_t%d" (int_of_string (String.sub v 2 (String.length v - 2)) + 2)
    | _ -> Alcotest.fail "probe is not one let"
  in
  let colliding = program_values (program next_second) in
  let expected = program_values (program "a") in
  check_int "twin computes" 12 (List.length expected);
  Alcotest.(check (list (float 0.0))) "same values as the renamed twin" expected colliding;
  Alcotest.(check (list (float 0.0))) "_t2 too" expected (program_values (program "_t2"))

(* A straight-line run that rebinds a name reads, at each use, the
   binding in scope there: the same values as with distinct names. With
   fusion and no coarsening (DyNet's config) the rebinding fuses into the
   first binding's block, which a later block reads. *)
let test_run_rebinding_a_name () =
  let program y2 =
    Fmt.str
      "def @main(%%x: Tensor[(1, 4)], %%w: Tensor[(4, 4)]) -> Tensor[(1, 4)] { \
       let %%y = matmul(%%x, %%w); let %%r = matmul(%%y, %%w); let %%%s = tanh(%%y); \
       add(%%r, %%%s) }"
      y2 y2
  in
  List.iter
    (fun framework ->
      Alcotest.(check (list (float 0.0))) "rebound = renamed"
        (program_values ~framework (program "q"))
        (program_values ~framework (program "y")))
    [ acrobat_kind; dynet_kind ]

(* --- Call graph --- *)

let cg_src =
  {|
def @leaffn(%x: Int) -> Int { %x }
def @even(%n: Int) -> Int { if (%n == 0) { 1 } else { @odd(%n - 1) } }
def @odd(%n: Int) -> Int { if (%n == 0) { 0 } else { @even(%n - 1) } }
def @selfrec(%n: Int) -> Int { if (%n == 0) { 0 } else { @selfrec(%n - 1) } }
def @main(%n: Int) -> Int { @leaffn(@even(%n) + @selfrec(%n)) }
|}

let test_call_graph () =
  let p = Ir.Typecheck.parse_and_check cg_src in
  let cg = C.Call_graph.build p in
  check_bool "leaffn not recursive" false (C.Call_graph.is_recursive cg "leaffn");
  check_bool "main not recursive" false (C.Call_graph.is_recursive cg "main");
  check_true "selfrec recursive" (C.Call_graph.is_recursive cg "selfrec");
  check_true "even mutual" (C.Call_graph.is_recursive cg "even");
  check_true "odd mutual" (C.Call_graph.is_recursive cg "odd");
  check_true "even/odd same scc" (C.Call_graph.same_scc cg "even" "odd");
  check_bool "selfrec separate scc" false (C.Call_graph.same_scc cg "even" "selfrec")

(* --- Taint / lowering: roles, hoisting, duplication --- *)

let lower ?(config = Config.acrobat) ~inputs src = Lower.compile ~config ~inputs src

let all_blocks (lp : L.t) : L.block list =
  let acc = ref [] in
  let rec walk (e : L.lexpr) =
    match e with
    | L.Lblock (b, cont) ->
      acc := b :: !acc;
      List.iter walk b.L.args;
      walk cont
    | L.Llet (_, a, b) | L.Lcons (a, b) | L.Lnode (a, b) | L.Lmap (a, b) | L.Lbinop (_, a, b) ->
      walk a;
      walk b
    | L.Lif (a, b, c) ->
      walk a;
      walk b;
      walk c
    | L.Lcall (f, args) ->
      walk f;
      List.iter walk args
    | L.Lfn (_, b) | L.Lleaf b | L.Lproj (b, _) | L.Lnot b | L.Lscalar b | L.Lchoice b
    | L.Lcoin b | L.Lghost (_, b) | L.Lphase (_, b) ->
      walk b
    | L.Lmatch (s, cases) ->
      walk s;
      List.iter (fun (_, e) -> walk e) cases
    | L.Ltuple es | L.Lconcurrent es -> List.iter walk es
    | L.Lvar _ | L.Lglobal _ | L.Lint _ | L.Lfloat _ | L.Lbool _ | L.Lnil | L.Lshared _ -> ()
  in
  Hashtbl.iter (fun _ (d : L.ldef) -> walk d.L.lbody) lp.L.defs;
  !acc

let rnn_model () = Models.tiny "rnn"

let test_rnn_hoisting () =
  let m = rnn_model () in
  let lp = lower ~inputs:m.Model.inputs m.Model.source in
  check_int "one hoisted level" 0 lp.L.max_static_depth;
  let blocks = all_blocks lp in
  let static_blocks = List.filter (fun (b : L.block) -> b.L.depth = L.Static 0) blocks in
  check_int "input transform hoisted (Listing 2)" 1 (List.length static_blocks);
  let hoisted = List.hd static_blocks in
  check_true "hoisted kernel is the input linear"
    (T_util.contains hoisted.L.kernel.Kernel.name "matmul")

let test_rnn_shared_roles () =
  let m = rnn_model () in
  let lp = lower ~inputs:m.Model.inputs m.Model.source in
  List.iter
    (fun (b : L.block) ->
      let k = b.L.kernel in
      (* Every kernel of this model has exactly one batched (per-instance)
         argument; weights and biases are shared. *)
      let batched =
        Array.to_list k.Kernel.roles |> List.filter (fun r -> r = Kernel.Batched)
      in
      check_true (k.Kernel.name ^ ": at most 2 batched args") (List.length batched <= 2);
      check_true
        (k.Kernel.name ^ ": has shared args")
        (Array.exists (fun r -> r = Kernel.Shared) k.Kernel.roles))
    (all_blocks lp)

let test_rnn_no_param_reuse_all_batched () =
  let m = rnn_model () in
  let config = { Config.acrobat with Config.parameter_reuse = false; hoisting = false } in
  let lp = lower ~config ~inputs:m.Model.inputs m.Model.source in
  List.iter
    (fun (b : L.block) ->
      Array.iter
        (fun r -> check_true "all batched without analysis" (r = Kernel.Batched))
        b.L.kernel.Kernel.roles)
    (all_blocks lp)

let test_birnn_duplication () =
  let m = Models.tiny "birnn" in
  let lp = lower ~inputs:m.Model.inputs m.Model.source in
  let rnn_defs =
    Hashtbl.fold (fun name _ acc -> if T_util.contains name "rnn$" then name :: acc else acc)
      lp.L.defs []
  in
  check_int "forward and backward @rnn specializations" 2 (List.length rnn_defs);
  (* The two specializations bind different weights: their dynamic cell
     kernels must be distinct. *)
  let cell_kernels =
    all_blocks lp
    |> List.filter_map (fun (b : L.block) ->
           if T_util.contains b.L.kernel.Kernel.name "sigmoid" then Some b.L.kernel.Kernel.id
           else None)
    |> List.sort_uniq compare
  in
  check_true "distinct kernels per context" (List.length cell_kernels >= 2)

let test_birnn_no_context_merges () =
  let m = Models.tiny "birnn" in
  let config = { Config.acrobat with Config.context_sensitive = false } in
  let lp = lower ~config ~inputs:m.Model.inputs m.Model.source in
  let rnn_defs =
    Hashtbl.fold (fun name _ acc -> if T_util.contains name "rnn" && not (T_util.contains name "reverse") then name :: acc else acc)
      lp.L.defs []
  in
  check_int "single @rnn without context sensitivity" 1 (List.length rnn_defs)

let test_constant_reuse () =
  let src =
    {|
def @main(%x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {
  let %z = zeros((1, 4));
  let %a = %x + %z;
  let %b = %a + zeros((1, 4));
  %b
}
|}
  in
  let lp = lower ~inputs:[ "x" ] src in
  (* With constant reuse the zeros never become kernels. *)
  List.iter
    (fun (b : L.block) ->
      check_bool "no constant kernels" false (T_util.contains b.L.kernel.Kernel.name "const"))
    (all_blocks lp);
  let config = { Config.acrobat with Config.constant_reuse = false; hoisting = false } in
  let lp2 = lower ~config ~inputs:[ "x" ] src in
  let const_blocks =
    all_blocks lp2
    |> List.filter (fun (b : L.block) -> T_util.contains b.L.kernel.Kernel.name "const")
  in
  check_true "constants become kernels without reuse" (List.length const_blocks >= 1)

let test_phases_in_main () =
  let m = Models.tiny "birnn" in
  let lp = lower ~inputs:m.Model.inputs m.Model.source in
  let main = L.entry_def lp in
  let rec max_phase acc = function
    | L.Lphase (k, cont) -> max_phase (max acc k) cont
    | L.Llet (_, _, cont) | L.Lblock (_, cont) -> max_phase acc cont
    | _ -> acc
  in
  check_int "BiRNN has six semantic stages" 5 (max_phase 0 main.L.lbody);
  let no_phases = { Config.acrobat with Config.program_phases = false } in
  let lp2 = lower ~config:no_phases ~inputs:m.Model.inputs m.Model.source in
  check_int "no phases when disabled" 0 (max_phase 0 (L.entry_def lp2).L.lbody)

let test_ghost_insertion () =
  let src =
    {|
def @main(%x: Tensor[(1, 4)], %w: Tensor[(4, 4)], %c: Bool) -> Tensor[(1, 4)] {
  let %y = sigmoid(matmul(%x, %w));
  if (%c) {
    let %a = tanh(matmul(%y, %w));
    let %q = Cons(%a, Nil);
    let %b = relu(matmul(%a, %w));
    %b
  } else {
    %y
  }
}
|}
  in
  (* Without recursion everything is hoistable (static depth), and ghost
     padding only counts dynamic blocks - disable hoisting to exercise it. *)
  let lp = lower ~config:{ Config.acrobat with Config.hoisting = false } ~inputs:[ "x"; "c" ] src in
  let rec ghosts acc = function
    | L.Lghost (n, cont) -> ghosts (acc + n) cont
    | L.Llet (_, a, b) -> ghosts (ghosts acc a) b
    | L.Lif (c, a, b) -> ghosts (ghosts (ghosts acc c) a) b
    | L.Lblock (_, cont) -> ghosts acc cont
    | L.Lmatch (s, cases) -> List.fold_left (fun a (_, e) -> ghosts a e) (ghosts acc s) cases
    | _ -> acc
  in
  let main = L.entry_def lp in
  check_int "else branch padded by two ghosts" 2 (ghosts 0 main.L.lbody);
  let no_ghost = { Config.acrobat with Config.ghost_ops = false; hoisting = false } in
  let lp2 = lower ~config:no_ghost ~inputs:[ "x"; "c" ] src in
  check_int "no ghosts when disabled" 0 (ghosts 0 (L.entry_def lp2).L.lbody)

let test_coarsening_block_counts () =
  let m = Models.tiny "treelstm" in
  let coarse = lower ~inputs:m.Model.inputs m.Model.source in
  let fine =
    lower ~config:{ Config.acrobat with Config.grain_coarsening = false } ~inputs:m.Model.inputs
      m.Model.source
  in
  let n lp =
    Hashtbl.fold (fun _ (d : L.ldef) acc -> acc + List.length (L.blocks d.L.lbody)) lp.L.defs 0
  in
  check_true "coarsening reduces scheduling blocks" (n coarse < n fine)

(* --- Kernel fusion --- *)

let lower_single_def ~fusion ~horizontal src =
  let config =
    { Config.acrobat with Config.kernel_fusion = fusion; horizontal_fusion = horizontal }
  in
  lower ~config ~inputs:[ "x" ] src

let lstm_gates_src =
  {|
def @main(%x: Tensor[(1, 8)], %wi: Tensor[(8, 8)], %wf: Tensor[(8, 8)],
          %wo: Tensor[(8, 8)], %wu: Tensor[(8, 8)]) -> Tensor[(1, 8)] {
  let %i = sigmoid(matmul(%x, %wi));
  let %f = sigmoid(matmul(%x, %wf));
  let %o = sigmoid(matmul(%x, %wo));
  let %u = tanh(matmul(%x, %wu));
  mul(mul(%i, %f), mul(%o, %u))
}
|}

let launches lp =
  all_blocks lp |> List.fold_left (fun acc (b : L.block) -> acc + Kernel.launches b.L.kernel) 0

let test_vertical_fusion_reduces_launches () =
  let unfused = lower_single_def ~fusion:false ~horizontal:false lstm_gates_src in
  let fused = lower_single_def ~fusion:true ~horizontal:false lstm_gates_src in
  check_true "fusion reduces launches" (launches fused < launches unfused)

let test_horizontal_fusion_merges_gates () =
  let vertical = lower_single_def ~fusion:true ~horizontal:false lstm_gates_src in
  let both = lower_single_def ~fusion:true ~horizontal:true lstm_gates_src in
  check_true "horizontal fusion merges sibling projections" (launches both < launches vertical)

let test_fusion_groups_respect_dependencies () =
  (* Every Tmp read inside a group must come from the same or an earlier
     group (groups launch in order). *)
  List.iter
    (fun id ->
      let m = Models.tiny id in
      let lp = lower ~inputs:m.Model.inputs m.Model.source in
      List.iter
        (fun (b : L.block) ->
          let k = b.L.kernel in
          let group_of = Hashtbl.create 16 in
          List.iteri
            (fun gi (g : Kernel.group) ->
              List.iter (fun (i : Kernel.instr) -> Hashtbl.replace group_of i.Kernel.dst gi) g.Kernel.instrs)
            k.Kernel.groups;
          List.iteri
            (fun gi (g : Kernel.group) ->
              List.iter
                (fun (i : Kernel.instr) ->
                  List.iter
                    (function
                      | Kernel.Tmp j ->
                        check_true
                          (id ^ ": group ordering respects deps")
                          (Hashtbl.find group_of j <= gi)
                      | Kernel.Arg _ -> ())
                    i.Kernel.srcs)
                g.Kernel.instrs)
            k.Kernel.groups)
        (all_blocks lp))
    Models.tiny_ids

let test_kernel_dedup () =
  let m = rnn_model () in
  let lp = lower ~inputs:m.Model.inputs m.Model.source in
  (* The recursive cell appears at one site: every recursion step reuses the
     same kernel (it is the same block). A second compile of the same
     source under the same registry would also dedup; here just check ids
     are stable and small in number. *)
  let ids =
    all_blocks lp |> List.map (fun (b : L.block) -> b.L.kernel.Kernel.id) |> List.sort_uniq compare
  in
  check_true "few distinct kernels" (List.length ids <= 4)

(* Structural dedup keys constants on their exact bits and the shapes of
   constant and random tensors. *)
let test_kernel_dedup_exact_constants () =
  let reg = Kernel.registry () in
  let source op =
    op_kernel reg ~name:"src" ~roles:[||] ~shared_binds:[] op []
  in
  let const shape value = source (Op.Constant { shape; value }) in
  let bound value =
    op_kernel reg ~name:"bias" ~roles:[| Kernel.Batched; Kernel.Shared |]
      ~shared_binds:[ 1, Kernel.Bconst { shape = [ 1; 4 ]; value } ]
      Op.Add [ Kernel.Arg 0; Kernel.Arg 1 ]
  in
  check_true "equal constants dedup" (const [ 1; 4 ] 1.0 == const [ 1; 4 ] 1.0);
  check_true "close constant values" (const [ 1; 4 ] 1.0000001 != const [ 1; 4 ] 1.0000003);
  check_true "constant shapes" (const [ 1; 4 ] 3.0 != const [ 2; 4 ] 3.0);
  check_true "close bound constants" (bound 1.0000001 != bound 1.0000003);
  check_true "random shapes"
    (source (Op.Random { shape = [ 1; 4 ] }) != source (Op.Random { shape = [ 2; 4 ] }))

let test_kernel_execute_matches_ops () =
  (* Build a fused kernel x @ w + b |> sigmoid by hand and compare with
     direct evaluation. *)
  let reg = Kernel.registry () in
  let k =
    make_kernel reg ~name:"dense_sigmoid"
      ~roles:[| Kernel.Batched; Kernel.Shared; Kernel.Shared |]
      ~shared_binds:[ 1, Kernel.Bparam "w"; 2, Kernel.Bparam "b" ]
      ~out_tmps:[| 2 |]
      [
        [
          Op.Matmul, [ Kernel.Arg 0; Kernel.Arg 1 ];
          Op.Add, [ Kernel.Tmp 0; Kernel.Arg 2 ];
          Op.Sigmoid, [ Kernel.Tmp 1 ];
        ];
      ]
  in
  let rng = Rng.create 3 in
  let x = Tensor.random rng [ 1; 4 ]
  and w = Tensor.random rng [ 4; 4 ]
  and bias = Tensor.random rng [ 1; 4 ] in
  let expected = Ops.sigmoid (Ops.add (Ops.matmul x w) bias) in
  let got = (Kernel.execute k [| x; w; bias |]).(0) in
  check_tensor "kernel body = ops composition" expected got;
  Alcotest.(check (list int)) "out shape" [ 1; 4 ]
    (Kernel.plan k [| [ 1; 4 ]; [ 4; 4 ]; [ 1; 4 ] |]).out_shapes.(0);
  check_int "fused into one launch" 1 (Kernel.launches k)

let test_kernel_flops_positive () =
  List.iter
    (fun id ->
      let m = Models.tiny id in
      let lp = lower ~inputs:m.Model.inputs m.Model.source in
      List.iter
        (fun (k : Kernel.t) ->
          ignore k)
        (Kernel.all_kernels lp.L.registry))
    Models.tiny_ids

(* --- Auto-scheduler --- *)

let test_autosched_monotone_in_iters () =
  let q n = C.Autosched.search ~id:3 ~flops:1.0e6 ~weight_elems:1000 ~iters:n () in
  check_true "more iterations never hurt" (q 10 <= q 100 && q 100 <= q 1000);
  check_true "below cap" (q 10_000 <= C.Autosched.quality_cap ~flops:1.0e6 ~weight_elems:1000)

let test_autosched_deterministic () =
  let a = C.Autosched.search ~id:7 ~flops:1.0e5 ~iters:321 () in
  let b = C.Autosched.search ~id:7 ~flops:1.0e5 ~iters:321 () in
  check_float "deterministic" a b

let test_autosched_cap_regimes () =
  let huge = C.Autosched.quality_cap ~flops:1.0e8 ~weight_elems:0 in
  let mid = C.Autosched.quality_cap ~flops:1.0e6 ~weight_elems:300_000 in
  let small = C.Autosched.quality_cap ~flops:1.0e4 ~weight_elems:100 in
  check_true "huge kernels competitive" (huge > mid);
  check_true "small fused kernels best" (small > mid)

let test_autosched_tune_prioritizes () =
  let reg = Kernel.registry () in
  let mk name =
    op_kernel reg ~name ~roles:[||] ~shared_binds:[]
      (Op.Constant { shape = [ 1; String.length name ]; value = 1.0 })
      []
  in
  let hot = mk "hot" and cold = mk "colder" in
  let table =
    C.Autosched.tune ~registry:reg ~iters:200
      ~priority:(fun id -> if id = hot.Kernel.id then 1000.0 else 1.0)
      ~flops:(fun _ -> 1.0e6)
      ~weight_elems:(fun _ -> 0)
      ()
  in
  check_true "hot kernel tuned at least as well"
    (C.Autosched.quality table hot.Kernel.id >= C.Autosched.quality table cold.Kernel.id)

let test_autosched_dense_table () =
  let m = Models.tiny "treelstm" in
  let lp = lower ~inputs:m.Model.inputs m.Model.source in
  let kernels = Kernel.all_kernels lp.L.registry in
  let nk = List.length kernels in
  check_true "the model has kernels" (nk > 1);
  let flops id = 1.0e5 *. float_of_int (id + 1) and weight_elems id = 30_000 * id in
  (* Equal priorities and a budget of 40 per kernel: each kernel gets its
     round-robin 10 plus a proportional 30 iterations. *)
  let table =
    C.Autosched.tune ~registry:lp.L.registry ~iters:(40 * nk) ~priority:(fun _ -> 1.0) ~flops
      ~weight_elems ()
  in
  List.iter
    (fun (k : Kernel.t) ->
      let id = k.Kernel.id in
      check_float ~eps:0.0 (Fmt.str "kernel %d tuned as searched" id)
        (C.Autosched.search ~id ~flops:(flops id) ~weight_elems:(weight_elems id) ~iters:40 ())
        (C.Autosched.quality table id))
    kernels;
  let default = table.C.Autosched.default in
  check_float "negative id" default (C.Autosched.quality table (-1));
  check_float "past the table's end" default (C.Autosched.quality table nk);
  check_float "far past the end" default (C.Autosched.quality table max_int);
  let gappy = { table with C.Autosched.quality = Float.Array.of_list [ 0.5; Float.nan; 0.6 ] } in
  check_float "tuned" 0.6 (C.Autosched.quality gappy 2);
  check_float "never tuned" default (C.Autosched.quality gappy 1);
  check_float "vendor" 0.9 (C.Autosched.quality C.Autosched.vendor 0);
  check_float "vendor, any id" 0.9 (C.Autosched.quality C.Autosched.vendor (-3));
  check_float "fixed" 0.42 (C.Autosched.quality (C.Autosched.fixed 0.42) 7)

(* --- Forwarded-only parameters --- *)

let dropped_names lp name = Forwarded.dropped lp name

let test_forwarded_treelstm () =
  let m = Models.tiny "treelstm" in
  let lp = lower ~inputs:m.Model.inputs m.Model.source in
  let weights = Acrobat_models.Treelstm.weight_names in
  check_int "twenty weights" 20 (List.length weights);
  let specs = ref 0 and trees = ref 0 in
  Hashtbl.iter
    (fun name _ ->
      if name = lp.L.entry then
        Alcotest.(check (list string)) "@main drops nothing" [] (dropped_names lp name)
      else begin
        incr specs;
        let dropped = dropped_names lp name in
        check_true (name ^ " drops every weight")
          (List.for_all (fun w -> List.mem w dropped) weights);
        (* The leaf @cell also drops its four child states: zero
           constants, resolved as shared bindings. *)
        let expected = if contains name "tree" then weights else dropped in
        Alcotest.(check (list string)) (name ^ " drops only what it never reads") expected dropped;
        if contains name "tree" then incr trees
      end)
    lp.L.defs;
  (* @tree and the leaf and internal @cell specializations. *)
  check_int "three specializations besides @main" 3 !specs;
  check_int "one @tree" 1 !trees;
  (* Without parameter reuse the weights are batched kernel arguments:
     read, so live. *)
  let m = rnn_model () in
  let config = { Config.acrobat with Config.parameter_reuse = false; hoisting = false } in
  let lp = lower ~config ~inputs:m.Model.inputs m.Model.source in
  Hashtbl.iter
    (fun name _ ->
      Alcotest.(check (list string)) (name ^ ": batched weights stay live") []
        (dropped_names lp name))
    lp.L.defs

(* Analyze hand-built definitions; [name] -> its forwarded-only params. *)
let analyze_defs ~entry defs =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (lname, lparams, lbody) -> Hashtbl.replace table lname { L.lname; lparams; lbody })
    defs;
  let masks = Forwarded.analyze ~entry table in
  fun name ->
    let mask = Hashtbl.find masks name in
    List.filteri (fun i _ -> mask.(i)) (Hashtbl.find table name).L.lparams

let call g args = L.Lcall (L.Lglobal g, List.map (fun x -> L.Lvar x) args)

let test_forwarded_live_cases () =
  let dropped =
    analyze_defs ~entry:"main"
      [
        "sink", [ "a"; "b" ], L.Lint 0;
        "reader", [ "a"; "b" ], L.Lvar "a";
        "fwd", [ "x"; "w" ], call "sink" [ "x"; "w" ];
        (* [x] lands on reader's live [a], [w] on its unread [b]. *)
        "swapped", [ "w"; "x" ], call "reader" [ "x"; "w" ];
        "first", [ "w" ], L.Lint 0;
        "in_fn", [ "w" ], L.Lfn ([ "y" ], call "sink" [ "y"; "w" ]);
        "tupled", [ "w" ], L.Lcall (L.Lglobal "sink", [ L.Ltuple [ L.Lvar "w" ]; L.Lint 0 ]);
        "shadow", [ "w" ], L.Llet ("w", L.Lint 1, call "sink" [ "w"; "w" ]);
        "main", [ "w" ], L.Ltuple [ call "sink" [ "w"; "w" ]; L.Lmap (L.Lglobal "first", L.Lnil) ];
      ]
  in
  let check name expected = Alcotest.(check (list string)) name expected (dropped name) in
  check "sink" [ "a"; "b" ];
  check "reader" [ "b" ];
  check "fwd" [ "x"; "w" ];
  check "swapped" [ "w" ];
  check "first" [];
  check "in_fn" [];
  check "tupled" [];
  check "shadow" [];
  check "main" [];
  (* A call with the wrong arity is not direct: it references its callee
     first-class, which makes every callee parameter live, and so every
     parameter forwarded to one. *)
  let dropped =
    analyze_defs ~entry:"main"
      [
        "sink", [ "a"; "b" ], L.Lint 0;
        "fwd", [ "x"; "w" ], call "sink" [ "x"; "w" ];
        "main", [ "w" ], call "sink" [ "w" ];
      ]
  in
  Alcotest.(check (list string)) "sink called with one argument" [] (dropped "sink");
  Alcotest.(check (list string)) "forwarded to a live parameter" [] (dropped "fwd")

let test_forwarded_mutual_recursion () =
  let walker self other ~reads =
    let recur = call other [ "t"; "w" ] in
    ( self,
      [ "xs"; "w" ],
      L.Lmatch
        ( L.Lvar "xs",
          [
            Ast.Pnil, L.Lint 0;
            Ast.Pcons ("h", "t"), (if reads then L.Ltuple [ recur; L.Lvar "w" ] else recur);
          ] ) )
  in
  let dropped =
    analyze_defs ~entry:"main"
      [
        walker "even" "odd" ~reads:false;
        walker "odd" "even" ~reads:false;
        (* The same cycle, but one side reads [w]: live on both sides. *)
        walker "even2" "odd2" ~reads:false;
        walker "odd2" "even2" ~reads:true;
        "main", [ "xs"; "w" ], L.Ltuple [ call "even" [ "xs"; "w" ]; call "even2" [ "xs"; "w" ] ];
      ]
  in
  Alcotest.(check (list string)) "even" [ "w" ] (dropped "even");
  Alcotest.(check (list string)) "odd" [ "w" ] (dropped "odd");
  Alcotest.(check (list string)) "even2" [] (dropped "even2");
  Alcotest.(check (list string)) "odd2" [] (dropped "odd2")

(* --- Lowering golden ---

   One digest over every catalog model's lowered program, at tiny and
   small sizes, under each Fig 5 ablation rung and the DyNet, DN++ and
   PyTorch configurations. Per kernel: its id, name, roles, shared
   bindings, launch groups (each instruction's op, exact constant bits,
   sources and destination) and outputs, which together are its canonical
   key. Per specialization, each block: its kernel, depth, once flag,
   arguments and outputs. ANF temporaries are renamed in order of first
   appearance, so the digest does not depend on how they are numbered.
   Regenerate only for a deliberate change of what lowering produces. *)

let golden_lowering = "22353765ed65946bf5e5ca3a28647d94"

let lowering_configs =
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
  let fusion = { base with kernel_fusion = true; horizontal_fusion = true } in
  let coarsening = { fusion with grain_coarsening = true } in
  let inline = { coarsening with scheduler = Config.Inline_depth; hoisting = true } in
  let phases = { inline with program_phases = true; ghost_ops = true } in
  [
    base;
    fusion;
    coarsening;
    inline;
    phases;
    { phases with gather_fusion = true };
    Frameworks.dynet_config ();
    Frameworks.dynet_config ~improved:true ();
    Frameworks.pytorch_config;
  ]

let lowering_listing (lp : L.t) =
  let buf = Buffer.create 4096 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  let temps = Hashtbl.create 64 in
  let var x =
    let is_temp =
      String.length x > 2
      && String.sub x 0 2 = "_t"
      && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub x 2 (String.length x - 2))
    in
    if not is_temp then x
    else
      match Hashtbl.find_opt temps x with
      | Some y -> y
      | None ->
        let y = Fmt.str "_T%d" (Hashtbl.length temps) in
        Hashtbl.replace temps x y;
        y
  in
  let bits = Int64.bits_of_float in
  let bind = function
    | Kernel.Bparam p -> Fmt.str "p:%s" p
    | Kernel.Bconst { shape; value } -> Fmt.str "c:%a:%Lx" Shape.pp shape (bits value)
    | Kernel.Bonce { kernel; out } -> Fmt.str "o:%d.%d" kernel out
  in
  let op = function
    | Op.Constant { shape; value } -> Fmt.str "const:%a:%Lx" Shape.pp shape (bits value)
    | Op.Random { shape } -> Fmt.str "random:%a" Shape.pp shape
    | o -> Op.name o
  in
  let src = function Kernel.Arg i -> Fmt.str "a%d" i | Kernel.Tmp j -> Fmt.str "t%d" j in
  List.iter
    (fun (k : Kernel.t) ->
      add "kernel %d %s roles=%s binds=%s outs=%s\n" k.Kernel.id k.Kernel.name
        (String.concat ""
           (Array.to_list
              (Array.map (function Kernel.Shared -> "S" | Kernel.Batched -> "B") k.roles)))
        (String.concat "," (List.map (fun (i, b) -> Fmt.str "%d=%s" i (bind b)) k.shared_binds))
        (String.concat "," (Array.to_list (Array.map string_of_int k.out_tmps)));
      List.iter
        (fun (g : Kernel.group) ->
          add "  group %s\n"
            (String.concat ";"
               (List.map
                  (fun (i : Kernel.instr) ->
                    Fmt.str "%s(%s)>%d" (op i.op) (String.concat "," (List.map src i.srcs)) i.dst)
                  g.instrs)))
        k.groups)
    (Kernel.all_kernels lp.L.registry);
  let rec arg = function
    | L.Lvar x -> "%" ^ var x
    | L.Lshared b -> bind b
    | L.Lint n -> string_of_int n
    | L.Lfloat f -> Fmt.str "%Lx" (bits f)
    | L.Lbool b -> string_of_bool b
    | L.Lproj (a, k) -> Fmt.str "%s.%d" (arg a) k
    | _ -> "?"
  in
  Hashtbl.fold (fun name d acc -> (name, d) :: acc) lp.L.defs []
  |> List.sort compare
  |> List.iter (fun (name, (d : L.ldef)) ->
         add "def %s(%s)\n" name (String.concat "," (List.map var d.L.lparams));
         List.iter
           (fun (b : L.block) ->
             add "  block k%d %s%s (%s) -> %s\n" b.L.kernel.Kernel.id
               (match b.L.depth with L.Static d -> Fmt.str "static %d" d | L.Dynamic -> "dynamic")
               (if L.runs_once b then " once" else "")
               (String.concat "," (List.map arg b.L.args))
               (String.concat "," (List.map var b.L.outs)))
           (L.blocks d.L.lbody));
  add "max static %d\n" lp.L.max_static_depth;
  Buffer.contents buf

let lowering_digest () =
  let models =
    List.map (fun id -> "tiny " ^ id, Models.tiny id) Models.tiny_ids
    @ List.map
        (fun (e : Models.entry) -> "small " ^ e.Models.id, e.Models.make Model.Small)
        (Models.all @ Models.extras)
  in
  let digests =
    List.concat_map
      (fun (label, (m : Model.t)) ->
        List.mapi
          (fun i config ->
            let lp = lower ~config ~inputs:m.Model.inputs m.Model.source in
            Digest.string (Fmt.str "%s config %d\n%s" label i (lowering_listing lp)))
          lowering_configs)
      models
  in
  Digest.to_hex (Digest.string (String.concat "" digests))

let test_golden_lowering () =
  Alcotest.(check string) "lowering digest" golden_lowering (lowering_digest ())

let suite =
  [
    Alcotest.test_case "anf: flattens prims" `Quick test_anf_flattens;
    Alcotest.test_case "anf: all models" `Quick test_anf_preserves_semantics;
    Alcotest.test_case "anf: temporaries avoid source names" `Quick
      test_anf_temporaries_avoid_source_names;
    Alcotest.test_case "lower: a run rebinding a name" `Quick test_run_rebinding_a_name;
    Alcotest.test_case "callgraph: sccs" `Quick test_call_graph;
    Alcotest.test_case "lower: RNN hoisting (Listing 2)" `Quick test_rnn_hoisting;
    Alcotest.test_case "lower: RNN shared roles" `Quick test_rnn_shared_roles;
    Alcotest.test_case "lower: roles without analysis" `Quick test_rnn_no_param_reuse_all_batched;
    Alcotest.test_case "lower: BiRNN code duplication" `Quick test_birnn_duplication;
    Alcotest.test_case "lower: no duplication without ctx" `Quick test_birnn_no_context_merges;
    Alcotest.test_case "lower: constant reuse" `Quick test_constant_reuse;
    Alcotest.test_case "lower: program phases" `Quick test_phases_in_main;
    Alcotest.test_case "lower: ghost insertion" `Quick test_ghost_insertion;
    Alcotest.test_case "lower: coarsening" `Quick test_coarsening_block_counts;
    Alcotest.test_case "fusion: vertical" `Quick test_vertical_fusion_reduces_launches;
    Alcotest.test_case "fusion: horizontal" `Quick test_horizontal_fusion_merges_gates;
    Alcotest.test_case "fusion: dependency order" `Quick test_fusion_groups_respect_dependencies;
    Alcotest.test_case "kernel: dedup" `Quick test_kernel_dedup;
    Alcotest.test_case "kernel: dedup keys constants exactly" `Quick
      test_kernel_dedup_exact_constants;
    Alcotest.test_case "kernel: execute semantics" `Quick test_kernel_execute_matches_ops;
    Alcotest.test_case "kernel: registry walk" `Quick test_kernel_flops_positive;
    Alcotest.test_case "autosched: monotone" `Quick test_autosched_monotone_in_iters;
    Alcotest.test_case "autosched: deterministic" `Quick test_autosched_deterministic;
    Alcotest.test_case "autosched: cap regimes" `Quick test_autosched_cap_regimes;
    Alcotest.test_case "autosched: priorities" `Quick test_autosched_tune_prioritizes;
    Alcotest.test_case "autosched: dense table" `Quick test_autosched_dense_table;
    Alcotest.test_case "forwarded: TreeLSTM weights" `Quick test_forwarded_treelstm;
    Alcotest.test_case "forwarded: live cases" `Quick test_forwarded_live_cases;
    Alcotest.test_case "forwarded: mutual recursion" `Quick test_forwarded_mutual_recursion;
    Alcotest.test_case "lower: golden listing of every catalog model" `Quick test_golden_lowering;
  ]
