(** Tensor operators.

    These are the primitive computations referenced by IR ops and executed by
    the simulated device. Shape rules live in {!Shape}; FLOP estimates used by
    the device cost model live in [Device.Cost_model].

    The loops index without bounds checks. Every such index is bounded by a
    check made earlier in the same function — an array length, or a shape
    rule such as {!Shape.matmul} — together with {!Tensor}'s invariant that
    a tensor's [numel] equals its array length. Each kernel evaluates the
    same float expression per element, accumulating in the same order, as a
    plain closure-per-element loop would, so results are bit-identical to
    one (DESIGN.md §18). *)

let add a b = Tensor.broadcast_op2 Add a b
let sub a b = Tensor.broadcast_op2 Sub a b
let mul a b = Tensor.broadcast_op2 Mul a b
let div a b = Tensor.broadcast_op2 Div a b

type unop = Sigmoid | Tanh | Relu | Gelu | Exp | Sqrt

(** Apply [op] to every element; the loop runs to the source's length. *)
let unary op t =
  let src = Tensor.data t in
  let n = Array.length src in
  let dst = Array.create_float n in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get src i in
    Array.unsafe_set dst i
      (match op with
       | Sigmoid -> 1.0 /. (1.0 +. Stdlib.exp (-.x))
       | Tanh -> Float.tanh x
       (* [Float.max 0.0 x], spelled out so it needs no call: [x] when it
          is greater or nan, else [0.0] (also for [-0.0]). *)
       | Relu -> if x > 0.0 || Float.is_nan x then x else 0.0
       (* Tanh-approximation GELU, as used by BERT-family models. *)
       | Gelu ->
         0.5 *. x
         *. (1.0 +. Float.tanh (0.7978845608028654 *. (x +. (0.044715 *. x *. x *. x))))
       | Exp -> Stdlib.exp x
       | Sqrt -> Stdlib.sqrt x)
  done;
  Tensor.create (Tensor.shape t) dst

(* Its own loop, not a [unary] case: here [k] stays the first operand of
   the product, as in [fun x -> k *. x] (see [matmul] on operand order). *)
let scale k t =
  let src = Tensor.data t in
  let dst = Array.create_float (Array.length src) in
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (k *. Array.unsafe_get src i)
  done;
  Tensor.create (Tensor.shape t) dst

let neg t = scale (-1.0) t
let sigmoid t = unary Sigmoid t
let tanh t = unary Tanh t
let relu t = unary Relu t
let gelu t = unary Gelu t
let exp t = unary Exp t
let sqrt t = unary Sqrt t

(** [matmul a b] for 2-D [a : (m, k)] and [b : (k, n)]. The [i, l, j] loop
    order adds each output element's products in increasing [l]; a zero
    [a] element is skipped, so [0 * inf] and [0 * nan] contribute nothing.
    The [j] loop is unrolled by four with a remainder loop. *)
let matmul a b =
  let out_shape = Shape.matmul (Tensor.shape a) (Tensor.shape b) in
  match Tensor.shape a, Tensor.shape b with
  | [ m; k ], [ _; n ] ->
    let da = Tensor.data a and db = Tensor.data b in
    let dc = Array.make (Shape.numel out_shape) 0.0 in
    let n4 = n - (n mod 4) in
    for i = 0 to m - 1 do
      let coff = i * n in
      for l = 0 to k - 1 do
        let aa = Array.unsafe_get da ((i * k) + l) in
        if aa <> 0.0 then begin
          let boff = l * n in
          (* Each accumulator is read into a variable before the add. That
             keeps it the first operand, as the bounds-checked read made it:
             when both operands are nan, x86 returns the first one's payload
             and sign, so the order shows in the bits. *)
          let j = ref 0 in
          while !j < n4 do
            let cj = coff + !j and bj = boff + !j in
            let c0 = Array.unsafe_get dc cj and c1 = Array.unsafe_get dc (cj + 1) in
            let c2 = Array.unsafe_get dc (cj + 2) and c3 = Array.unsafe_get dc (cj + 3) in
            Array.unsafe_set dc cj (c0 +. (aa *. Array.unsafe_get db bj));
            Array.unsafe_set dc (cj + 1) (c1 +. (aa *. Array.unsafe_get db (bj + 1)));
            Array.unsafe_set dc (cj + 2) (c2 +. (aa *. Array.unsafe_get db (bj + 2)));
            Array.unsafe_set dc (cj + 3) (c3 +. (aa *. Array.unsafe_get db (bj + 3)));
            j := !j + 4
          done;
          for j = n4 to n - 1 do
            let c = Array.unsafe_get dc (coff + j) in
            Array.unsafe_set dc (coff + j) (c +. (aa *. Array.unsafe_get db (boff + j)))
          done
        end
      done
    done;
    Tensor.create out_shape dc
  | _ -> Shape.fail "matmul: expected 2-D tensors"

(** [dense x w] is [x @ w]; the linear-transformation primitive. *)
let dense x w = matmul x w

(** [dense_bias x w b] is [x @ w + b]. *)
let dense_bias x w b = add (matmul x w) b

let transpose t =
  match Tensor.shape t with
  | [ m; n ] ->
    let src = Tensor.data t and dst = Array.create_float (m * n) in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        Array.unsafe_set dst ((j * m) + i) (Array.unsafe_get src ((i * n) + j))
      done
    done;
    Tensor.create [ n; m ] dst
  | s -> Shape.fail "transpose: expected 2-D tensor, got %a" Shape.pp s

(** Concatenate along the last axis; all other dims must agree. *)
let concat ts =
  match ts with
  | [] -> Shape.fail "concat: empty list"
  | first :: _ ->
    let axis = Shape.rank (Tensor.shape first) - 1 in
    let out_shape = Shape.concat ~axis (List.map Tensor.shape ts) in
    let row_width, rows = Shape.rows out_shape in
    let dst = Array.create_float (Shape.numel out_shape) in
    let col = ref 0 in
    if rows > 0 then
      List.iter
        (fun t ->
          let src = Tensor.data t in
          let w = Array.length src / rows in
          for r = 0 to rows - 1 do
            Array.blit src (r * w) dst ((r * row_width) + !col) w
          done;
          col := !col + w)
        ts;
    Tensor.create out_shape dst

(** [slice t ~lo ~hi] slices the last axis to the half-open range [lo, hi). *)
let slice t ~lo ~hi =
  let s = Tensor.shape t in
  let w = match List.rev s with d :: _ -> d | [] -> Shape.fail "slice: rank-0 tensor" in
  if not (0 <= lo && lo < hi && hi <= w) then
    Shape.fail "slice: bad range [%d, %d) for width %d" lo hi w;
  let rows = Tensor.numel t / w in
  let w' = hi - lo in
  let axis = Shape.rank s - 1 in
  let out_shape = List.mapi (fun i d -> if i = axis then w' else d) s in
  let src = Tensor.data t and dst = Array.create_float (rows * w') in
  for r = 0 to rows - 1 do
    Array.blit src ((r * w) + lo) dst (r * w') w'
  done;
  Tensor.create out_shape dst

(** Softmax over the last axis. *)
let softmax t =
  let w, rows = Shape.rows (Tensor.shape t) in
  let d = Array.copy (Tensor.data t) in
  for r = 0 to rows - 1 do
    let off = r * w in
    let m = ref neg_infinity in
    for j = 0 to w - 1 do
      m := Float.max !m (Array.unsafe_get d (off + j))
    done;
    let z = ref 0.0 in
    for j = 0 to w - 1 do
      let e = Stdlib.exp (Array.unsafe_get d (off + j) -. !m) in
      Array.unsafe_set d (off + j) e;
      z := !z +. e
    done;
    for j = 0 to w - 1 do
      Array.unsafe_set d (off + j) (Array.unsafe_get d (off + j) /. !z)
    done
  done;
  Tensor.create (Tensor.shape t) d

(** Argmax over the last axis, returned as a tensor of indices (as floats). *)
let argmax t =
  let s = Tensor.shape t in
  let w, rows = Shape.rows s in
  let out_shape = match s with [] | [ _ ] -> [ 1 ] | _ -> List.rev (List.tl (List.rev s)) in
  let src = Tensor.data t and dst = Array.make (Shape.numel out_shape) 0.0 in
  for r = 0 to rows - 1 do
    let off = r * w in
    let best = ref 0 in
    for j = 1 to w - 1 do
      if Array.unsafe_get src (off + j) > Array.unsafe_get src (off + !best) then best := j
    done;
    dst.(r) <- float_of_int !best
  done;
  Tensor.create out_shape dst

let reduce_sum t = Tensor.scalar (Tensor.sum t)

let reduce_mean t = Tensor.scalar (Tensor.mean t)

(** Layer normalisation over the last axis with learned gain/bias, each
    holding one element per column. *)
let layernorm ?(eps = 1e-5) t gain bias =
  let w, rows = Shape.rows (Tensor.shape t) in
  if Tensor.numel gain <> w || Tensor.numel bias <> w then
    Shape.fail "layernorm: gain %a and bias %a must have %d elements" Shape.pp
      (Tensor.shape gain) Shape.pp (Tensor.shape bias) w;
  let d = Array.copy (Tensor.data t) in
  let g = Tensor.data gain and b = Tensor.data bias in
  for r = 0 to rows - 1 do
    let off = r * w in
    let mu = ref 0.0 in
    for j = 0 to w - 1 do
      mu := !mu +. Array.unsafe_get d (off + j)
    done;
    let mu = !mu /. float_of_int w in
    let var = ref 0.0 in
    for j = 0 to w - 1 do
      let dx = Array.unsafe_get d (off + j) -. mu in
      var := !var +. (dx *. dx)
    done;
    let denom = Stdlib.sqrt ((!var /. float_of_int w) +. eps) in
    for j = 0 to w - 1 do
      Array.unsafe_set d (off + j)
        (((Array.unsafe_get d (off + j) -. mu) /. denom) *. Array.unsafe_get g j
        +. Array.unsafe_get b j)
    done
  done;
  Tensor.create (Tensor.shape t) d

(** Entropy of a probability row-vector; used by early-exit confidence. *)
let entropy t =
  let p = Tensor.data t in
  let h = ref 0.0 in
  for i = 0 to Array.length p - 1 do
    let x = Array.unsafe_get p i in
    if x > 1e-12 then h := !h -. (x *. log x)
  done;
  Tensor.scalar !h
