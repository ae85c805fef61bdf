(** Primitive tensor operators of the input language.

    Each operator knows its shape rule, a FLOP estimate (consumed by the
    device cost model and the auto-scheduler), and whether it is elementwise
    (the property kernel fusion keys on). *)

open Acrobat_tensor

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Matmul
  | Sigmoid
  | Tanh
  | Relu
  | Gelu
  | Exp
  | Softmax
  | Argmax
  | Concat of int  (** Number of inputs; concatenation along the last axis. *)
  | Slice of { lo : int; hi : int }  (** Slice of the last axis. *)
  | Constant of { shape : Shape.t; value : float }  (** 0-input constant. *)
  | Transpose
  | Reduce_sum
  | Reduce_mean
  | Layernorm  (** [x; gain; bias]. *)
  | Entropy
  | Random of { shape : Shape.t }
      (** 0-input pseudo-random tensor; underlies emulated tensor-dependent
          control flow (paper §E.1). *)

let name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Matmul -> "matmul"
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Relu -> "relu"
  | Gelu -> "gelu"
  | Exp -> "exp"
  | Softmax -> "softmax"
  | Argmax -> "argmax"
  | Concat n -> Fmt.str "concat%d" n
  | Slice { lo; hi } -> Fmt.str "slice_%d_%d" lo hi
  | Constant { value; _ } -> Fmt.str "const_%g" value
  | Transpose -> "transpose"
  | Reduce_sum -> "reduce_sum"
  | Reduce_mean -> "reduce_mean"
  | Layernorm -> "layernorm"
  | Entropy -> "entropy"
  | Random _ -> "random"

let arity = function
  | Add | Sub | Mul | Div | Matmul -> 2
  | Sigmoid | Tanh | Relu | Gelu | Exp | Softmax | Argmax | Transpose | Reduce_sum
  | Reduce_mean | Entropy ->
    1
  | Slice _ -> 1
  | Concat n -> n
  | Constant _ | Random _ -> 0
  | Layernorm -> 3

(** Is the op elementwise (fusable into a producer/consumer without changing
    the iteration space)? Broadcasting adds/muls count: the fused kernel just
    indexes the smaller operand. *)
let is_elementwise = function
  | Add | Sub | Mul | Div | Sigmoid | Tanh | Relu | Gelu | Exp -> true
  | Matmul | Softmax | Argmax | Concat _ | Slice _ | Constant _ | Transpose
  | Reduce_sum | Reduce_mean | Layernorm | Entropy | Random _ ->
    false

exception Shape_error of string

let shape_fail op fmt =
  Fmt.kstr (fun m -> raise (Shape_error (Fmt.str "%s: %s" (name op) m))) fmt

(** Output shape given input shapes. *)
let out_shape op (inputs : Shape.t list) : Shape.t =
  let unary () = match inputs with [ s ] -> s | _ -> shape_fail op "expected 1 input" in
  match op with
  | Add | Sub | Mul | Div -> begin
    match inputs with
    | [ a; b ] -> Shape.broadcast a b
    | _ -> shape_fail op "expected 2 inputs"
  end
  | Matmul -> begin
    match inputs with
    | [ a; b ] -> Shape.matmul a b
    | _ -> shape_fail op "expected 2 inputs"
  end
  | Sigmoid | Tanh | Relu | Gelu | Exp | Softmax -> unary ()
  | Argmax -> begin
    match unary () with
    | [] | [ _ ] -> [ 1 ]
    | s -> List.filteri (fun i _ -> i < Shape.rank s - 1) s
  end
  | Concat n -> begin
    if List.length inputs <> n then shape_fail op "expected %d inputs" n;
    match inputs with
    | [] -> shape_fail op "expected at least 1 input"
    | [] :: _ -> shape_fail op "cannot concatenate rank-0 tensors"
    | first :: _ -> Shape.concat ~axis:(Shape.rank first - 1) inputs
  end
  | Slice { lo; hi } ->
    let s = unary () in
    let w = match List.rev s with d :: _ -> d | [] -> 0 in
    if not (0 <= lo && lo < hi && hi <= w) then
      shape_fail op "range [%d,%d) out of bounds for %a" lo hi Shape.pp s;
    List.mapi (fun i d -> if i = Shape.rank s - 1 then hi - lo else d) s
  | Constant { shape; _ } | Random { shape } ->
    if inputs <> [] then shape_fail op "expected 0 inputs";
    shape
  | Transpose -> begin
    match unary () with
    | [ m; n ] -> [ n; m ]
    | s -> shape_fail op "expected 2-D input, got %a" Shape.pp s
  end
  | Reduce_sum | Reduce_mean | Entropy -> [ 1 ]
  | Layernorm -> begin
    match inputs with
    | [ x; g; b ] ->
      let w, _ = Shape.rows x in
      if Shape.numel g <> w || Shape.numel b <> w then
        shape_fail op "gain %a and bias %a must have %d elements (the last dim of %a)"
          Shape.pp g Shape.pp b w Shape.pp x;
      x
    | _ -> shape_fail op "expected 3 inputs"
  end

(** FLOP estimate for the cost model. *)
let flops op (inputs : Shape.t list) : float =
  let out = out_shape op inputs in
  let n = float_of_int (Shape.numel out) in
  match op with
  | Add | Sub | Mul | Div | Relu -> n
  | Sigmoid | Tanh | Exp -> 4.0 *. n
  | Gelu -> 8.0 *. n
  | Matmul -> begin
    match inputs with
    | [ [ m; k ]; [ _; p ] ] -> 2.0 *. float_of_int (m * k * p)
    | _ -> n
  end
  | Softmax -> 5.0 *. n
  | Argmax | Concat _ | Slice _ | Transpose ->
    (* Memory-bound: charge one flop-equivalent per element moved. *)
    float_of_int (List.fold_left (fun acc s -> acc + Shape.numel s) 0 inputs)
  | Constant _ | Random _ -> n
  | Reduce_sum | Reduce_mean | Entropy ->
    float_of_int (List.fold_left (fun acc s -> acc + Shape.numel s) 0 inputs)
  | Layernorm -> 8.0 *. float_of_int (Shape.numel (List.hd inputs))

(** Reference semantics on concrete tensors: [eval op get args] applies [op]
    to [get] of each argument, so a caller holding argument references
    builds no tensor list. [rand] supplies values for {!Random} nodes. *)
let eval ?rand op (get : 'a -> Tensor.t) (args : 'a list) : Tensor.t =
  match op, args with
  | Add, [ a; b ] -> Ops.add (get a) (get b)
  | Sub, [ a; b ] -> Ops.sub (get a) (get b)
  | Mul, [ a; b ] -> Ops.mul (get a) (get b)
  | Div, [ a; b ] -> Ops.div (get a) (get b)
  | Matmul, [ a; b ] -> Ops.matmul (get a) (get b)
  | Sigmoid, [ a ] -> Ops.sigmoid (get a)
  | Tanh, [ a ] -> Ops.tanh (get a)
  | Relu, [ a ] -> Ops.relu (get a)
  | Gelu, [ a ] -> Ops.gelu (get a)
  | Exp, [ a ] -> Ops.exp (get a)
  | Softmax, [ a ] -> Ops.softmax (get a)
  | Argmax, [ a ] -> Ops.argmax (get a)
  | Concat _, args -> Ops.concat (List.map get args)
  | Slice { lo; hi }, [ a ] -> Ops.slice (get a) ~lo ~hi
  | Constant { shape; value }, [] -> Tensor.full shape value
  | Random { shape }, [] -> begin
    match rand with
    | Some rng -> Tensor.init shape (fun _ -> Rng.float rng)
    | None -> Tensor.zeros shape
  end
  | Transpose, [ a ] -> Ops.transpose (get a)
  | Reduce_sum, [ a ] -> Ops.reduce_sum (get a)
  | Reduce_mean, [ a ] -> Ops.reduce_mean (get a)
  | Layernorm, [ x; g; b ] -> Ops.layernorm (get x) (get g) (get b)
  | Entropy, [ a ] -> Ops.entropy (get a)
  | ( ( Add | Sub | Mul | Div | Matmul | Sigmoid | Tanh | Relu | Gelu | Exp | Softmax
      | Argmax | Slice _ | Constant _ | Random _ | Transpose | Reduce_sum | Reduce_mean
      | Layernorm | Entropy ),
      _ ) ->
    shape_fail op "wrong number of arguments (%d)" (List.length args)
