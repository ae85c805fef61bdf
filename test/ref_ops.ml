(** Reference tensor kernels for the bit-identity oracle in [t_tensor.ml].

    These are the straightforward closure-per-element, bounds-checked
    bodies that {!Acrobat.Ops} and [Tensor.broadcast_op2] replaced, kept
    as they were except that results are built through [Tensor.create]
    (the record is private). The tight kernels must equal them bit for
    bit (DESIGN.md §18). *)

open Acrobat

let map f t = Tensor.create (Tensor.shape t) (Array.map f (Tensor.data t))

let map2 f a b =
  if not (Shape.equal (Tensor.shape a) (Tensor.shape b)) then
    Shape.fail "map2: shape mismatch %a vs %a" Shape.pp (Tensor.shape a) Shape.pp
      (Tensor.shape b);
  let a' = Tensor.data a and b' = Tensor.data b in
  Tensor.create (Tensor.shape a) (Array.init (Tensor.numel a) (fun i -> f a'.(i) b'.(i)))

let broadcast_op2 f a b =
  if Shape.equal (Tensor.shape a) (Tensor.shape b) then map2 f a b
  else begin
    let out_shape = Shape.broadcast (Tensor.shape a) (Tensor.shape b) in
    let out = Tensor.zeros out_shape in
    let out_dims = Array.of_list out_shape in
    let nd = Array.length out_dims in
    let pad s =
      let d = Array.of_list s in
      Array.append (Array.make (nd - Array.length d) 1) d
    in
    let da = pad (Tensor.shape a) and db = pad (Tensor.shape b) in
    let sa = Shape.strides (Array.to_list da) and sb = Shape.strides (Array.to_list db) in
    let idx = Array.make nd 0 in
    let offset dims strides =
      let o = ref 0 in
      for k = 0 to nd - 1 do
        let i = if dims.(k) = 1 then 0 else idx.(k) in
        o := !o + (i * strides.(k))
      done;
      !o
    in
    let n = Shape.numel out_shape in
    let a' = Tensor.data a and b' = Tensor.data b and o' = Tensor.data out in
    for flat = 0 to n - 1 do
      let r = ref flat in
      for k = nd - 1 downto 0 do
        idx.(k) <- !r mod out_dims.(k);
        r := !r / out_dims.(k)
      done;
      o'.(flat) <- f a'.(offset da sa) b'.(offset db sb)
    done;
    out
  end

let add a b = broadcast_op2 ( +. ) a b
let sub a b = broadcast_op2 ( -. ) a b
let mul a b = broadcast_op2 ( *. ) a b
let div a b = broadcast_op2 ( /. ) a b

let scale k t = map (fun x -> k *. x) t
let neg t = scale (-1.0) t

let sigmoid t = map (fun x -> 1.0 /. (1.0 +. exp (-.x))) t
let tanh t = map Float.tanh t
let relu t = map (fun x -> Float.max 0.0 x) t
let exp t = map Stdlib.exp t
let sqrt t = map Stdlib.sqrt t

let gelu t =
  map
    (fun x ->
      0.5 *. x
      *. (1.0 +. Float.tanh (0.7978845608028654 *. (x +. (0.044715 *. x *. x *. x)))))
    t

let matmul a b =
  let out_shape = Shape.matmul (Tensor.shape a) (Tensor.shape b) in
  match Tensor.shape a, Tensor.shape b with
  | [ m; k ], [ _; n ] ->
    let out = Tensor.zeros out_shape in
    let da = Tensor.data a and db = Tensor.data b and dc = Tensor.data out in
    for i = 0 to m - 1 do
      for l = 0 to k - 1 do
        let aa = da.((i * k) + l) in
        if aa <> 0.0 then begin
          let boff = l * n and coff = i * n in
          for j = 0 to n - 1 do
            dc.(coff + j) <- dc.(coff + j) +. (aa *. db.(boff + j))
          done
        end
      done
    done;
    out
  | _ -> Shape.fail "matmul: expected 2-D tensors"

let transpose t =
  match Tensor.shape t with
  | [ m; n ] ->
    let out = Tensor.zeros [ n; m ] in
    let src = Tensor.data t and dst = Tensor.data out in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        dst.((j * m) + i) <- src.((i * n) + j)
      done
    done;
    out
  | s -> Shape.fail "transpose: expected 2-D tensor, got %a" Shape.pp s

let concat ts =
  match ts with
  | [] -> Shape.fail "concat: empty list"
  | first :: _ ->
    let axis = Shape.rank (Tensor.shape first) - 1 in
    let out_shape = Shape.concat ~axis (List.map Tensor.shape ts) in
    let rows = Shape.numel out_shape / List.nth out_shape axis in
    let out = Tensor.zeros out_shape in
    let dst = Tensor.data out in
    let row_width = List.nth out_shape axis in
    let col = ref 0 in
    List.iter
      (fun t ->
        let w = List.nth (Tensor.shape t) axis in
        let src = Tensor.data t in
        for r = 0 to rows - 1 do
          Array.blit src (r * w) dst ((r * row_width) + !col) w
        done;
        col := !col + w)
      ts;
    out

let slice t ~lo ~hi =
  let s = Tensor.shape t in
  let axis = Shape.rank s - 1 in
  let w = List.nth s axis in
  if not (0 <= lo && lo < hi && hi <= w) then
    Shape.fail "slice: bad range [%d, %d) for width %d" lo hi w;
  let rows = Tensor.numel t / w in
  let w' = hi - lo in
  let out_shape = List.mapi (fun i d -> if i = axis then w' else d) s in
  let out = Tensor.zeros out_shape in
  let src = Tensor.data t and dst = Tensor.data out in
  for r = 0 to rows - 1 do
    Array.blit src ((r * w) + lo) dst (r * w') w'
  done;
  out

let softmax t =
  let s = Tensor.shape t in
  let w = match List.rev s with d :: _ -> d | [] -> 1 in
  let rows = Tensor.numel t / w in
  let out = Tensor.copy t in
  let d = Tensor.data out in
  for r = 0 to rows - 1 do
    let off = r * w in
    let m = ref neg_infinity in
    for j = 0 to w - 1 do
      m := Float.max !m d.(off + j)
    done;
    let z = ref 0.0 in
    for j = 0 to w - 1 do
      let e = Stdlib.exp (d.(off + j) -. !m) in
      d.(off + j) <- e;
      z := !z +. e
    done;
    for j = 0 to w - 1 do
      d.(off + j) <- d.(off + j) /. !z
    done
  done;
  out

let argmax t =
  let s = Tensor.shape t in
  let w = match List.rev s with d :: _ -> d | [] -> 1 in
  let rows = Tensor.numel t / w in
  let out_shape = match s with [] | [ _ ] -> [] | _ -> List.rev (List.tl (List.rev s)) in
  let out = Tensor.zeros (if out_shape = [] then [ 1 ] else out_shape) in
  let src = Tensor.data t and dst = Tensor.data out in
  for r = 0 to rows - 1 do
    let off = r * w in
    let best = ref 0 in
    for j = 1 to w - 1 do
      if src.(off + j) > src.(off + !best) then best := j
    done;
    dst.(r) <- float_of_int !best
  done;
  out

let sum t = Tensor.fold ( +. ) 0.0 t
let reduce_sum t = Tensor.scalar (sum t)
let reduce_mean t = Tensor.scalar (sum t /. float_of_int (max 1 (Tensor.numel t)))

let layernorm ?(eps = 1e-5) t gain bias =
  let s = Tensor.shape t in
  let w = match List.rev s with d :: _ -> d | [] -> 1 in
  let rows = Tensor.numel t / w in
  let out = Tensor.copy t in
  let d = Tensor.data out in
  let g = Tensor.data gain and b = Tensor.data bias in
  for r = 0 to rows - 1 do
    let off = r * w in
    let mu = ref 0.0 in
    for j = 0 to w - 1 do
      mu := !mu +. d.(off + j)
    done;
    let mu = !mu /. float_of_int w in
    let var = ref 0.0 in
    for j = 0 to w - 1 do
      let dx = d.(off + j) -. mu in
      var := !var +. (dx *. dx)
    done;
    let denom = Stdlib.sqrt ((!var /. float_of_int w) +. eps) in
    for j = 0 to w - 1 do
      d.(off + j) <- (((d.(off + j) -. mu) /. denom) *. g.(j mod w)) +. b.(j mod w)
    done
  done;
  out

let entropy t =
  let p = Tensor.data t in
  let h = ref 0.0 in
  Array.iter (fun x -> if x > 1e-12 then h := !h -. (x *. log x)) p;
  Tensor.scalar !h
