(** Tests for the tensor substrate: Rng, Shape, Tensor, Ops. *)

open Acrobat
open T_util

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.float a) in
  let ys = List.init 10 (fun _ -> Rng.float b) in
  check_true "streams differ" (xs <> ys)

let test_rng_int_in () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 20 40 in
    check_true "in range" (v >= 20 && v <= 40)
  done

let prop_rng_float_range =
  qtest "rng: float in [0,1)" QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.float rng in
      x >= 0.0 && x < 1.0)

let prop_rng_int_nonneg =
  qtest "rng: int in [0, bound)"
    QCheck2.Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_int_uniform () =
  (* Regression for the modulo-bias bug: with rejection sampling every
     residue class is equally likely, including for bounds that are not
     powers of two. 30k draws per bucket-count keeps sampling noise far
     below the 5% tolerance. *)
  let check_uniform bound =
    let rng = Rng.create 11 in
    let n = 10_000 * bound in
    let counts = Array.make bound 0 in
    for _ = 1 to n do
      let v = Rng.int rng bound in
      counts.(v) <- counts.(v) + 1
    done;
    Array.iteri
      (fun v c ->
        check_true
          (Printf.sprintf "bound %d: residue %d within 5%% of uniform" bound v)
          (abs (c - 10_000) < 500))
      counts
  in
  check_uniform 3;
  check_uniform 7;
  let rng = Rng.create 2 in
  for _ = 1 to 100 do
    check_int "bound 1 is always 0" 0 (Rng.int rng 1)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 5 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_true "bernoulli rate near 0.3" (abs (!hits - 3000) < 300)

let test_rng_normal_moments () =
  let rng = Rng.create 9 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Rng.normal rng) in
  let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var = List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs /. float_of_int n in
  check_true "mean near 0" (Float.abs mean < 0.05);
  check_true "variance near 1" (Float.abs (var -. 1.0) < 0.05)

(* --- Shape --- *)

let test_shape_numel () =
  check_int "scalar" 1 (Shape.numel []);
  check_int "vector" 7 (Shape.numel [ 7 ]);
  check_int "matrix" 12 (Shape.numel [ 3; 4 ]);
  check_int "zero dim" 0 (Shape.numel [ 1 lsl 40; 0; 1 lsl 20 ]);
  Alcotest.check_raises "negative" (Shape.Mismatch "negative dimension in (3, -1)") (fun () ->
      ignore (Shape.numel [ 3; -1 ]));
  (* 2^32 * 2^32 wraps to 0 in [int]; the count must be refused, not wrapped. *)
  Alcotest.check_raises "overflow"
    (Shape.Mismatch "element count of (4294967296, 4294967296) overflows int") (fun () ->
      ignore (Shape.numel [ 4294967296; 4294967296 ]));
  Alcotest.check_raises "overflow past a zero dim"
    (Shape.Mismatch "element count of (0, 4294967296, 4294967296) overflows int") (fun () ->
      ignore (Shape.numel [ 0; 4294967296; 4294967296 ]))

let test_shape_strides () =
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |] (Shape.strides [ 2; 3; 4 ])

let test_shape_matmul () =
  Alcotest.(check (list int)) "matmul" [ 2; 5 ] (Shape.matmul [ 2; 3 ] [ 3; 5 ]);
  Alcotest.check_raises "mismatch" (Shape.Mismatch "matmul: incompatible shapes (2, 3) x (4, 5)")
    (fun () -> ignore (Shape.matmul [ 2; 3 ] [ 4; 5 ]))

let test_shape_broadcast () =
  Alcotest.(check (list int)) "same" [ 2; 3 ] (Shape.broadcast [ 2; 3 ] [ 2; 3 ]);
  Alcotest.(check (list int)) "row" [ 4; 3 ] (Shape.broadcast [ 4; 3 ] [ 1; 3 ]);
  Alcotest.(check (list int)) "scalar" [ 4; 3 ] (Shape.broadcast [ 4; 3 ] [ 1; 1 ]);
  Alcotest.(check (list int)) "rank-extend" [ 4; 3 ] (Shape.broadcast [ 4; 3 ] [ 3 ])

let prop_broadcast_commutative =
  qtest "shape: broadcast commutative" QCheck2.Gen.(pair gen_shape gen_shape) (fun (a, b) ->
      match Shape.broadcast a b with
      | ab -> Shape.equal ab (Shape.broadcast b a)
      | exception Shape.Mismatch _ -> (
        match Shape.broadcast b a with
        | _ -> false
        | exception Shape.Mismatch _ -> true))

let prop_broadcast_idempotent =
  qtest "shape: x broadcast x = x" gen_shape (fun s -> Shape.equal s (Shape.broadcast s s))

let test_shape_concat () =
  Alcotest.(check (list int)) "concat" [ 2; 7 ] (Shape.concat ~axis:1 [ [ 2; 3 ]; [ 2; 4 ] ])

(* --- Tensor --- *)

let test_tensor_create_mismatch () =
  Alcotest.check_raises "bad size" (Shape.Mismatch "create: shape (2, 2) does not match 3 elements")
    (fun () -> ignore (Tensor.create [ 2; 2 ] [| 1.0; 2.0; 3.0 |]));
  Alcotest.check_raises "negative dims" (Shape.Mismatch "negative dimension in (-1, -2)")
    (fun () -> ignore (Tensor.create [ -1; -2 ] [| 1.0; 2.0 |]));
  Alcotest.check_raises "overflowing dims"
    (Shape.Mismatch "element count of (4294967296, 4294967296) overflows int") (fun () ->
      ignore (Tensor.create [ 4294967296; 4294967296 ] [||]))

let test_tensor_full_and_item () =
  let t = Tensor.full [ 1; 1 ] 5.0 in
  check_float "item" 5.0 (Tensor.item t);
  Alcotest.check_raises "item of non-scalar"
    (Shape.Mismatch "item: tensor (2, 2) is not a scalar") (fun () ->
      ignore (Tensor.item (Tensor.zeros [ 2; 2 ])))

let test_tensor_reshape () =
  let t = Tensor.init [ 2; 3 ] float_of_int in
  let r = Tensor.reshape t [ 3; 2 ] in
  check_float "data preserved" (Tensor.get t 4) (Tensor.get r 4)

let test_tensor_argmax () =
  let t = Tensor.of_array [ 5 ] [| 1.0; 9.0; 3.0; 9.0; 2.0 |] in
  check_int "first max wins" 1 (Tensor.argmax t)

let prop_tensor_sum_linear =
  qtest "tensor: sum(a+b) = sum a + sum b"
    QCheck2.Gen.(pair int int)
    (fun (s1, s2) ->
      let a = Tensor.random (Rng.create s1) [ 3; 4 ] in
      let b = Tensor.random (Rng.create s2) [ 3; 4 ] in
      Float.abs (Tensor.sum (Ops.add a b) -. (Tensor.sum a +. Tensor.sum b)) < 1e-9)

(* --- Ops --- *)

let test_matmul_identity () =
  let rng = Rng.create 3 in
  let a = Tensor.random rng [ 4; 4 ] in
  let id = Tensor.init [ 4; 4 ] (fun i -> if i mod 5 = 0 then 1.0 else 0.0) in
  check_tensor "a @ I = a" a (Ops.matmul a id);
  check_tensor "I @ a = a" a (Ops.matmul id a)

let test_matmul_known () =
  let a = Tensor.of_array [ 2; 2 ] [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = Tensor.of_array [ 2; 2 ] [| 5.0; 6.0; 7.0; 8.0 |] in
  check_tensor "2x2" (Tensor.of_array [ 2; 2 ] [| 19.0; 22.0; 43.0; 50.0 |]) (Ops.matmul a b)

let prop_matmul_distributes =
  qtest ~count:50 "ops: (a+b)@c = a@c + b@c" QCheck2.Gen.(triple int int int)
    (fun (s1, s2, s3) ->
      let a = Tensor.random (Rng.create s1) [ 3; 4 ] in
      let b = Tensor.random (Rng.create s2) [ 3; 4 ] in
      let c = Tensor.random (Rng.create s3) [ 4; 2 ] in
      Tensor.approx_equal ~eps:1e-9
        (Ops.matmul (Ops.add a b) c)
        (Ops.add (Ops.matmul a c) (Ops.matmul b c)))

let test_transpose_involution () =
  let t = Tensor.random (Rng.create 4) [ 3; 5 ] in
  check_tensor "transpose^2 = id" t (Ops.transpose (Ops.transpose t))

let prop_transpose_matmul =
  qtest ~count:50 "ops: (a@b)^T = b^T @ a^T" QCheck2.Gen.(pair int int) (fun (s1, s2) ->
      let a = Tensor.random (Rng.create s1) [ 2; 3 ] in
      let b = Tensor.random (Rng.create s2) [ 3; 4 ] in
      Tensor.approx_equal ~eps:1e-9
        (Ops.transpose (Ops.matmul a b))
        (Ops.matmul (Ops.transpose b) (Ops.transpose a)))

let test_softmax_rows_sum_to_one () =
  let t = Tensor.random (Rng.create 8) [ 4; 7 ] in
  let s = Ops.softmax t in
  for r = 0 to 3 do
    let row = Ops.slice (Tensor.reshape s [ 4; 7 ]) ~lo:0 ~hi:7 in
    ignore row;
    let sum = ref 0.0 in
    for j = 0 to 6 do
      sum := !sum +. Tensor.get s ((r * 7) + j)
    done;
    check_float ~eps:1e-9 "row sums to 1" 1.0 !sum
  done

let prop_softmax_shift_invariant =
  qtest ~count:50 "ops: softmax(x+c) = softmax(x)" QCheck2.Gen.(pair int (float_range (-5.0) 5.0))
    (fun (s, c) ->
      let x = Tensor.random (Rng.create s) [ 1; 6 ] in
      let shifted = Ref_ops.map (fun v -> v +. c) x in
      Tensor.approx_equal ~eps:1e-9 (Ops.softmax x) (Ops.softmax shifted))

let test_sigmoid_range_and_symmetry () =
  let x = Tensor.random (Rng.create 2) [ 1; 32 ] in
  let s = Ops.sigmoid x in
  Array.iter (fun v -> check_true "in (0,1)" (v > 0.0 && v < 1.0)) (Tensor.data s);
  let neg = Ops.sigmoid (Ops.neg x) in
  let sum = Ops.add s neg in
  check_tensor "sigmoid(x)+sigmoid(-x)=1" (Tensor.ones [ 1; 32 ]) sum

let test_relu () =
  let x = Tensor.of_array [ 1; 4 ] [| -1.0; 0.0; 2.0; -3.0 |] in
  check_tensor "relu" (Tensor.of_array [ 1; 4 ] [| 0.0; 0.0; 2.0; 0.0 |]) (Ops.relu x)

let test_concat_slice_inverse () =
  let a = Tensor.random (Rng.create 1) [ 2; 3 ] in
  let b = Tensor.random (Rng.create 2) [ 2; 4 ] in
  let c = Ops.concat [ a; b ] in
  check_tensor "slice left" a (Ops.slice c ~lo:0 ~hi:3);
  check_tensor "slice right" b (Ops.slice c ~lo:3 ~hi:7)

let test_broadcast_add_row () =
  let x = Tensor.init [ 2; 3 ] float_of_int in
  let row = Tensor.of_array [ 1; 3 ] [| 10.0; 20.0; 30.0 |] in
  check_tensor "row broadcast"
    (Tensor.of_array [ 2; 3 ] [| 10.0; 21.0; 32.0; 13.0; 24.0; 35.0 |])
    (Ops.add x row)

let test_broadcast_mul_scalar_gate () =
  let x = Tensor.of_array [ 1; 3 ] [| 2.0; 4.0; 6.0 |] in
  let gate = Tensor.of_array [ 1; 1 ] [| 0.5 |] in
  check_tensor "gate" (Tensor.of_array [ 1; 3 ] [| 1.0; 2.0; 3.0 |]) (Ops.mul x gate)

let test_layernorm_normalizes () =
  let x = Tensor.random (Rng.create 11) [ 2; 16 ] in
  let g = Tensor.ones [ 1; 16 ] and b = Tensor.zeros [ 1; 16 ] in
  let y = Ops.layernorm x g b in
  for r = 0 to 1 do
    let mean = ref 0.0 in
    for j = 0 to 15 do
      mean := !mean +. Tensor.get y ((r * 16) + j)
    done;
    check_float ~eps:1e-6 "row mean 0" 0.0 (!mean /. 16.0)
  done

let test_entropy_uniform_max () =
  let uniform = Tensor.full [ 1; 8 ] 0.125 in
  check_float ~eps:1e-9 "uniform entropy = ln 8" (log 8.0) (Tensor.item (Ops.entropy uniform));
  let onehot = Tensor.of_array [ 1; 4 ] [| 1.0; 0.0; 0.0; 0.0 |] in
  check_float ~eps:1e-9 "one-hot entropy = 0" 0.0 (Tensor.item (Ops.entropy onehot))

let test_argmax_rows () =
  let x = Tensor.of_array [ 2; 3 ] [| 1.0; 5.0; 2.0; 9.0; 0.0; 3.0 |] in
  check_tensor "per-row argmax" (Tensor.of_array [ 2 ] [| 1.0; 0.0 |]) (Ops.argmax x)

let test_gelu_known () =
  check_float ~eps:1e-3 "gelu(0)=0" 0.0 (Tensor.item (Ops.gelu (Tensor.scalar 0.0)));
  check_float ~eps:1e-2 "gelu(2)~1.95" 1.95 (Tensor.item (Ops.gelu (Tensor.scalar 2.0)))

(* --- Bit identity with the reference kernels (Ref_ops) --- *)

(* Mostly ordinary values, plus the IEEE specials every kernel must carry
   through exactly as the reference does: signed zeros, two nans that differ
   in sign (when two nans meet, which one survives depends on the operand
   order), infinities, huge and subnormal. *)
let gen_value =
  QCheck2.Gen.(
    frequency
      [
        (6, float_range (-3.0) 3.0);
        (1, oneofl [ 0.0; -0.0; nan; -.nan; infinity; neg_infinity; 1e300; 4e-320 ]);
      ])

let gen_values shape =
  QCheck2.Gen.(map (Tensor.create shape) (array_size (return (Shape.numel shape)) gen_value))

(* Widths up to 11, so the unrolled loops' remainders run. *)
let gen_width = QCheck2.Gen.int_range 1 11

(* Rank 0 to 3; the last axis takes [gen_width]. *)
let gen_any_shape =
  QCheck2.Gen.(
    int_range 0 3 >>= function
    | 0 -> return []
    | r -> map2 (fun lead w -> lead @ [ w ]) (list_repeat (r - 1) (int_range 1 4)) gen_width)

let bits_equal a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Tensor.data a) (Tensor.data b)

let prop_unary_bits =
  let kernels k =
    [
      (Ops.scale k, Ref_ops.scale k); (Ops.neg, Ref_ops.neg);
      (Ops.sigmoid, Ref_ops.sigmoid); (Ops.tanh, Ref_ops.tanh); (Ops.relu, Ref_ops.relu);
      (Ops.gelu, Ref_ops.gelu); (Ops.exp, Ref_ops.exp); (Ops.sqrt, Ref_ops.sqrt);
      (Ops.softmax, Ref_ops.softmax); (Ops.argmax, Ref_ops.argmax);
      (Ops.entropy, Ref_ops.entropy); (Ops.reduce_sum, Ref_ops.reduce_sum);
      (Ops.reduce_mean, Ref_ops.reduce_mean);
    ]
  in
  qtest "ops: unary and row kernels bit-identical to reference"
    QCheck2.Gen.(pair gen_value (gen_any_shape >>= gen_values))
    (fun (k, t) -> List.for_all (fun (f, g) -> bits_equal (f t) (g t)) (kernels k))

(* Two operand shapes that broadcast: each drops leading dims of a common
   shape and sets some of the rest to 1 (often neither, so same-shape pairs
   are covered too). *)
let gen_broadcast_pair =
  let operand s =
    QCheck2.Gen.(
      int_range 0 (List.length s) >>= fun drop ->
      flatten_l
        (List.filteri (fun i _ -> i >= drop) s
        |> List.map (fun d -> map (fun one -> if one then 1 else d) (frequencyl [ (2, false); (1, true) ]))))
  in
  QCheck2.Gen.(
    gen_any_shape >>= fun s ->
    pair (operand s) (operand s) >>= fun (sa, sb) -> pair (gen_values sa) (gen_values sb))

let prop_binary_bits =
  let kernels =
    [ (Ops.add, Ref_ops.add); (Ops.sub, Ref_ops.sub); (Ops.mul, Ref_ops.mul); (Ops.div, Ref_ops.div) ]
  in
  qtest "ops: add/sub/mul/div (with broadcasting) bit-identical to reference" gen_broadcast_pair
    (fun (a, b) ->
      List.for_all (fun (f, g) -> bits_equal (f a b) (g a b) && bits_equal (f b a) (g b a)) kernels)

let prop_matmul_bits =
  qtest "ops: matmul bit-identical to reference"
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 1 9) gen_width >>= fun (m, k, n) ->
      pair (gen_values [ m; k ]) (gen_values [ k; n ]))
    (fun (a, b) -> bits_equal (Ops.matmul a b) (Ref_ops.matmul a b))

let prop_layout_bits =
  qtest "ops: concat/slice/transpose/layernorm bit-identical to reference"
    QCheck2.Gen.(
      list_size (int_range 0 1) (int_range 1 4) >>= fun lead ->
      list_size (int_range 1 3) gen_width >>= fun widths ->
      let w = List.hd widths in
      quad
        (flatten_l (List.map (fun w -> gen_values (lead @ [ w ])) widths))
        (pair (int_range 0 (w - 1)) (int_range 1 w))
        (gen_values [ 1; w ])
        (gen_values [ w ]))
    (fun (ts, (lo, hi), gain, bias) ->
      let t = List.hd ts in
      let lo, hi = (min lo (hi - 1), hi) in
      bits_equal (Ops.concat ts) (Ref_ops.concat ts)
      && bits_equal (Ops.slice t ~lo ~hi) (Ref_ops.slice t ~lo ~hi)
      && bits_equal (Ops.layernorm t gain bias) (Ref_ops.layernorm t gain bias)
      && (Shape.rank (Tensor.shape t) <> 2 || bits_equal (Ops.transpose t) (Ref_ops.transpose t)))

(* The zero skip: a zero (or negative-zero) element of [a] adds nothing, so
   an infinite or nan row of [b] it would multiply leaves the output finite,
   where IEEE arithmetic would give nan. *)
let test_matmul_zero_skip () =
  let b =
    Tensor.of_array [ 3; 5 ]
      [| infinity; nan; neg_infinity; nan; infinity; 1.0; 2.0; 3.0; 4.0; 5.0;
         nan; nan; nan; nan; nan |]
  in
  let a = Tensor.of_array [ 1; 3 ] [| 0.0; 2.0; -0.0 |] in
  let expected = Tensor.of_array [ 1; 5 ] [| 2.0; 4.0; 6.0; 8.0; 10.0 |] in
  check_true "0 * inf and 0 * nan contribute nothing" (bits_equal expected (Ops.matmul a b));
  check_true "as in the reference" (bits_equal (Ref_ops.matmul a b) (Ops.matmul a b))

let test_kernel_shape_checks () =
  Alcotest.check_raises "layernorm gain width"
    (Shape.Mismatch "layernorm: gain (1, 4) and bias (1, 4) must have 8 elements") (fun () ->
      ignore (Ops.layernorm (Tensor.zeros [ 1; 8 ]) (Tensor.ones [ 1; 4 ]) (Tensor.zeros [ 1; 4 ])));
  Alcotest.check_raises "rank-0 concat"
    (Shape.Mismatch "concat: axis -1 out of range for ()") (fun () ->
      ignore (Ops.concat [ Tensor.scalar 1.0; Tensor.scalar 2.0 ]));
  (* Both operands are empty, but the (2^32, 2^32) product is not. *)
  let big = 1 lsl 32 in
  Alcotest.check_raises "matmul output overflows"
    (Shape.Mismatch "element count of (4294967296, 4294967296) overflows int") (fun () ->
      ignore (Ops.matmul (Tensor.zeros [ big; 0 ]) (Tensor.zeros [ 0; big ])));
  Alcotest.check_raises "broadcast output overflows"
    (Shape.Mismatch "element count of (0, 4294967296, 4294967296) overflows int") (fun () ->
      ignore (Ops.add (Tensor.zeros [ 0; big; 1 ]) (Tensor.zeros [ 0; 1; big ])))

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: int_in range" `Quick test_rng_int_in;
    Alcotest.test_case "rng: int uniform (no modulo bias)" `Quick test_rng_int_uniform;
    prop_rng_float_range;
    prop_rng_int_nonneg;
    Alcotest.test_case "rng: bernoulli rate" `Quick test_rng_bernoulli_rate;
    Alcotest.test_case "rng: normal moments" `Slow test_rng_normal_moments;
    Alcotest.test_case "shape: numel" `Quick test_shape_numel;
    Alcotest.test_case "shape: strides" `Quick test_shape_strides;
    Alcotest.test_case "shape: matmul" `Quick test_shape_matmul;
    Alcotest.test_case "shape: broadcast" `Quick test_shape_broadcast;
    prop_broadcast_commutative;
    prop_broadcast_idempotent;
    Alcotest.test_case "shape: concat" `Quick test_shape_concat;
    Alcotest.test_case "tensor: create mismatch" `Quick test_tensor_create_mismatch;
    Alcotest.test_case "tensor: full/item" `Quick test_tensor_full_and_item;
    Alcotest.test_case "tensor: reshape" `Quick test_tensor_reshape;
    Alcotest.test_case "tensor: argmax ties" `Quick test_tensor_argmax;
    prop_tensor_sum_linear;
    Alcotest.test_case "ops: matmul identity" `Quick test_matmul_identity;
    Alcotest.test_case "ops: matmul known" `Quick test_matmul_known;
    prop_matmul_distributes;
    Alcotest.test_case "ops: transpose involution" `Quick test_transpose_involution;
    prop_transpose_matmul;
    Alcotest.test_case "ops: softmax rows" `Quick test_softmax_rows_sum_to_one;
    prop_softmax_shift_invariant;
    Alcotest.test_case "ops: sigmoid" `Quick test_sigmoid_range_and_symmetry;
    Alcotest.test_case "ops: relu" `Quick test_relu;
    Alcotest.test_case "ops: concat/slice" `Quick test_concat_slice_inverse;
    Alcotest.test_case "ops: broadcast add" `Quick test_broadcast_add_row;
    Alcotest.test_case "ops: broadcast mul gate" `Quick test_broadcast_mul_scalar_gate;
    Alcotest.test_case "ops: layernorm" `Quick test_layernorm_normalizes;
    Alcotest.test_case "ops: entropy" `Quick test_entropy_uniform_max;
    Alcotest.test_case "ops: argmax rows" `Quick test_argmax_rows;
    Alcotest.test_case "ops: gelu" `Quick test_gelu_known;
    prop_unary_bits;
    prop_binary_bits;
    prop_matmul_bits;
    prop_layout_bits;
    Alcotest.test_case "ops: matmul zero skip" `Quick test_matmul_zero_skip;
    Alcotest.test_case "ops: kernel shape checks" `Quick test_kernel_shape_checks;
  ]
