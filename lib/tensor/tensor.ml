type t = { shape : Shape.t; data : float array }

let shape t = t.shape
let data t = t.data
let numel t = Array.length t.data

(* Every builder sizes or checks [data] by [Shape.numel], so a tensor's
   dimensions are non-negative, their product fits in [int], and its
   [numel] is its array length. *)
let create shape data =
  if Shape.numel shape <> Array.length data then
    Shape.fail "create: shape %a does not match %d elements" Shape.pp shape
      (Array.length data);
  { shape; data }

let full shape v = { shape; data = Array.make (Shape.numel shape) v }
let zeros shape = full shape 0.0
let ones shape = full shape 1.0

let init shape f = { shape; data = Array.init (Shape.numel shape) f }

let scalar v = { shape = []; data = [| v |] }

let of_array shape a = create shape (Array.copy a)

let random rng shape =
  let n = Shape.numel shape in
  let fan = float_of_int (max 1 (match shape with d :: _ -> d | [] -> 1)) in
  let bound = sqrt (1.0 /. fan) in
  { shape; data = Array.init n (fun _ -> Rng.uniform rng (-.bound) bound) }

let copy t = { t with data = Array.copy t.data }

let get t idx = t.data.(idx)
let set t idx v = t.data.(idx) <- v

let item t =
  if numel t <> 1 then Shape.fail "item: tensor %a is not a scalar" Shape.pp t.shape;
  t.data.(0)

let reshape t shape =
  if Shape.numel shape <> numel t then
    Shape.fail "reshape: %a -> %a changes element count" Shape.pp t.shape Shape.pp shape;
  { t with shape }

let fold f init t = Array.fold_left f init t.data

let sum t =
  let s = ref 0.0 in
  for i = 0 to numel t - 1 do
    s := !s +. Array.unsafe_get t.data i
  done;
  !s

let mean t = sum t /. float_of_int (max 1 (numel t))

let argmax t =
  let best = ref 0 in
  for i = 1 to numel t - 1 do
    if t.data.(i) > t.data.(!best) then best := i
  done;
  !best

let equal a b = Shape.equal a.shape b.shape && a.data = b.data

let approx_equal ?(eps = 1e-6) a b =
  Shape.equal a.shape b.shape
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data

let pp ppf t =
  let preview = Array.to_list (Array.sub t.data 0 (min 8 (numel t))) in
  Fmt.pf ppf "Tensor%a[%a%s]" Shape.pp t.shape
    Fmt.(list ~sep:(any "; ") (fmt "%.4g"))
    preview
    (if numel t > 8 then "; ..." else "")

(* --- Broadcasting --- *)

type binop = Add | Sub | Mul | Div

(* [x] is the first operand, as in [( +. ) x y]: when both are nan, x86
   returns the first one's payload and sign (see [Ops.matmul]). *)
let[@inline] apply op x y =
  match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y | Div -> x /. y

(* Reads are unchecked: equal shapes give equal lengths, and once
   {!Shape.broadcast} accepts the shapes every operand offset stays below
   the operand's [numel]. *)
let broadcast_op2 op a b =
  if Shape.equal a.shape b.shape then begin
    let da = a.data and db = b.data in
    let n = Array.length da in
    let dc = Array.create_float n in
    for i = 0 to n - 1 do
      Array.unsafe_set dc i (apply op (Array.unsafe_get da i) (Array.unsafe_get db i))
    done;
    { shape = a.shape; data = dc }
  end
  else begin
    let out_shape = Shape.broadcast a.shape b.shape in
    let dims = Array.of_list out_shape in
    (* Shapes differ, so the output has rank >= 1. *)
    let nd = Array.length dims in
    (* An operand's stride along each output dimension, 0 where it broadcasts. *)
    let strides s =
      let ds = Array.of_list s in
      let pad = nd - Array.length ds in
      let st = Array.make nd 0 and acc = ref 1 in
      for k = nd - 1 downto pad do
        let d = ds.(k - pad) in
        if d <> 1 then st.(k) <- !acc;
        acc := !acc * d
      done;
      st
    in
    let sa = strides a.shape and sb = strides b.shape in
    let da = a.data and db = b.data in
    let dc = Array.create_float (Shape.numel out_shape) in
    let w = dims.(nd - 1) and wa = sa.(nd - 1) and wb = sb.(nd - 1) in
    let rows = if w = 0 then 0 else Array.length dc / w in
    (* [idx] counts over the outer dimensions; [oa]/[ob] are the operand
       offsets of the current row's first element. *)
    let idx = Array.make nd 0 and oa = ref 0 and ob = ref 0 in
    for r = 0 to rows - 1 do
      let base = r * w and oa0 = !oa and ob0 = !ob in
      for j = 0 to w - 1 do
        Array.unsafe_set dc (base + j)
          (apply op
             (Array.unsafe_get da (oa0 + (j * wa)))
             (Array.unsafe_get db (ob0 + (j * wb))))
      done;
      let k = ref (nd - 2) in
      while !k >= 0 do
        let kk = !k in
        idx.(kk) <- idx.(kk) + 1;
        oa := !oa + sa.(kk);
        ob := !ob + sb.(kk);
        if idx.(kk) < dims.(kk) then k := -1
        else begin
          idx.(kk) <- 0;
          oa := !oa - (dims.(kk) * sa.(kk));
          ob := !ob - (dims.(kk) * sb.(kk));
          decr k
        end
      done
    done;
    { shape = out_shape; data = dc }
  end
