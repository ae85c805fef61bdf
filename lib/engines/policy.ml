(** Engine policies: the knobs that distinguish frameworks sharing the same
    runtime substrate — how nodes are signed for batching (where DyNet's
    brittle heuristics live, §E.4), whether instance parallelism may fork
    fibers, whether execution is eager, and whether host<->device transfers
    are batched. *)

open Acrobat_ir
open Acrobat_runtime
open Acrobat_compiler

type t = {
  sig_of : base:string -> Kernel.t -> Value.handle array -> string;
      (** A node's batching signature, given [base], ACROBAT's signature
          of its plan (kernel identity + argument shapes). *)
  allow_fork : bool;  (** Fork fibers at [concurrent]/[map] (§4.2). *)
  eager : bool;  (** Flush after every node (no batching: PyTorch). *)
  batched_io : bool;  (** Batch host<->device transfers (§D.3). *)
  detect_dynamic_sharing : bool;
      (** Check argument pointer identity at batch time to avoid gathers
          (a dynamic-framework behaviour: DyNet). ACROBAT's generated
          kernels bake the gather/shared decision in statically, so they
          get no such runtime check — this is what makes code duplication
          (§C.1) matter. *)
}

(** ACROBAT: kernel identity + shapes. All reuse knowledge is static. *)
let acrobat_policy =
  {
    sig_of = (fun ~base _ _ -> base);
    allow_fork = true;
    eager = false;
    batched_io = true;
    detect_dynamic_sharing = false;
  }

(* A stable identity for a tensor argument: device address when
   materialized, node/slot otherwise. This is the "same first argument"
   pointer check of DyNet's matmul heuristic. *)
let arg_identity (h : Value.handle) =
  match h with
  | Value.Hmat o -> "a" ^ string_of_int o.addr
  | Value.Hnode (n, i) -> begin
    match n.outs with
    | Some outs -> "a" ^ string_of_int outs.(i).addr
    | None -> "n" ^ string_of_int n.id ^ "." ^ string_of_int i
  end

(* How DyNet's vendor-library batching treats a (composite) kernel given
   concrete argument shapes. *)
type dynet_class =
  | Dplain  (** Batches by (kernel, shapes). *)
  | Dmatmul_key of int
      (** Batches only when runtime argument [j] (the weight operand of the
          kernel's matrix multiplication) is the same tensor. *)
  | Dunbatchable  (** No batched vendor kernel: executes one-by-one. *)

let classify_for_dynet ~improved_matmul (kernel : Kernel.t)
    (arg_shapes : Acrobat_tensor.Shape.t array) : dynet_class =
  let instrs = List.concat_map (fun (g : Kernel.group) -> g.instrs) kernel.groups in
  let tmp_shapes = Kernel.tmp_shapes kernel arg_shapes in
  let shape_of = function Kernel.Arg i -> arg_shapes.(i) | Kernel.Tmp j -> tmp_shapes.(j) in
  let is_broadcast_mul (i : Kernel.instr) =
    match i.op, i.srcs with
    | Op.Mul, [ a; b ] -> not (Acrobat_tensor.Shape.equal (shape_of a) (shape_of b))
    | _ -> false
  in
  if
    List.exists
      (fun (i : Kernel.instr) ->
        match i.op with Op.Argmax | Op.Constant _ -> true | _ -> is_broadcast_mul i)
      instrs
  then Dunbatchable
  else begin
    match List.find_opt (fun (i : Kernel.instr) -> i.op = Op.Matmul) instrs with
    | None -> Dplain
    | Some { srcs = [ _; weight_src ]; _ } when improved_matmul ->
      (* The DN++ fix (§E.4) batches matmuls by shape and gathers the
         differing operands; that is only sane when the gathered operand is
         small (MV-RNN's activation matrices), not a large weight. *)
      if Acrobat_tensor.Shape.numel (shape_of weight_src) <= 50_000 then Dplain
      else begin
        match weight_src with
        | Kernel.Arg j -> Dmatmul_key j
        | Kernel.Tmp _ -> Dunbatchable
      end
    | Some { srcs = [ _; Kernel.Arg j ]; _ } -> Dmatmul_key j
    | Some _ ->
      (* The weight operand is itself an intermediate: no stable tensor to
         key batching on, so the heuristic never batches it. *)
      Dunbatchable
  end

(** DyNet's dynamic batching signature (§E.4):
    - matrix multiplication batches only when the weight-position argument
      is the same tensor (unless [improved_matmul]). DyNet writes [W * x]
      and keys on the first argument; our input language writes [x @ W], so
      the equivalent heuristic keys on the second. It "usually works" —
      that operand is usually a model parameter — and fails exactly when a
      model multiplies two activations (MV-RNN);
    - argmax, broadcasting elementwise multiplication and constant
      construction have no batched vendor kernels: each instance gets a
      unique signature and executes alone. *)
let dynet_sig ?(improved_matmul = false) () =
  let unique = ref 0 in
  let classes : (string, dynet_class) Hashtbl.t = Hashtbl.create 64 in
  fun ~base (kernel : Kernel.t) (args : Value.handle array) ->
    let cls =
      match Hashtbl.find_opt classes base with
      | Some c -> c
      | None ->
        let c =
          classify_for_dynet ~improved_matmul kernel (Array.map Value.handle_shape args)
        in
        Hashtbl.replace classes base c;
        c
    in
    match cls with
    | Dplain -> base
    | Dmatmul_key j -> base ^ "|wt=" ^ arg_identity args.(j)
    | Dunbatchable ->
      incr unique;
      base ^ "|u" ^ string_of_int !unique

(** DyNet baseline. [improved] applies the paper's §E.4 fixes (DN++):
    a relaxed matmul heuristic, and manually exposed instance
    parallelism. *)
let dynet_policy ?(improved = false) () =
  {
    sig_of = dynet_sig ~improved_matmul:improved ();
    allow_fork = improved;
    eager = false;
    batched_io = false;
    detect_dynamic_sharing = true;
  }

(** PyTorch-like eager execution: one kernel per op, no batching at all. *)
let pytorch_policy =
  {
    sig_of = (fun ~base _ _ -> base);
    allow_fork = false;
    eager = true;
    batched_io = false;
    detect_dynamic_sharing = true;
  }
