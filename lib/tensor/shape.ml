(** Tensor shapes as immutable int lists (row-major). *)

type t = int list

(* Dimension by dimension with [int] comparisons: polymorphic [=] would
   call into the runtime's C code, and plan lookup compares shapes for
   every DFG node. *)
let rec equal (a : t) (b : t) =
  match a, b with
  | [], [] -> true
  | (x : int) :: a', y :: b' -> x = y && equal a' b'
  | _ :: _, [] | [], _ :: _ -> false

let rank = List.length

let pp ppf s =
  Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") int) s

let to_string s = Fmt.str "%a" pp s

exception Mismatch of string

let fail fmt = Fmt.kstr (fun m -> raise (Mismatch m)) fmt

(* [nz] is the product of the non-zero dims so far. Bounding it keeps every
   stride and offset derived from the shape within [int], also when a zero
   dim makes the element count 0. *)
let rec count s nz zero = function
  | [] -> if zero then 0 else nz
  | d :: rest ->
    if d < 0 then fail "negative dimension in %a" pp s
    else if d = 0 then count s nz true rest
    else if nz > max_int / d then fail "element count of %a overflows int" pp s
    else count s (nz * d) zero rest

(** Number of elements. Raises {!Mismatch} on a negative dimension or when
    the count overflows [int], so a shape that passes can index an array. *)
let numel (s : t) = count s 1 false s

(** Row-major strides for a shape. *)
let strides (s : t) : int array =
  let dims = Array.of_list s in
  let n = Array.length dims in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * dims.(i + 1)
  done;
  st

(** Width of the last axis (1 for a scalar) and the number of rows of that
    width (0 when the width is 0). *)
let rows s =
  let w = match List.rev s with d :: _ -> d | [] -> 1 in
  w, if w = 0 then 0 else numel s / w

(** Shape of [a @ b] for 2-D matrix multiplication. *)
let matmul a b =
  match a, b with
  | [ m; k ], [ k'; n ] when k = k' -> [ m; n ]
  | _ -> fail "matmul: incompatible shapes %a x %a" pp a pp b

(** Numpy-style broadcast of two shapes. *)
let broadcast a b =
  let ra = List.rev a and rb = List.rev b in
  let rec go ra rb acc =
    match ra, rb with
    | [], [] -> acc
    | d :: ra', [] -> go ra' [] (d :: acc)
    | [], d :: rb' -> go [] rb' (d :: acc)
    | da :: ra', db :: rb' ->
      if da = db then go ra' rb' (da :: acc)
      else if da = 1 then go ra' rb' (db :: acc)
      else if db = 1 then go ra' rb' (da :: acc)
      else fail "broadcast: incompatible shapes %a and %a" pp a pp b
  in
  go ra rb []

(** Shape after concatenating [shapes] along [axis]. *)
let concat ~axis shapes =
  match shapes with
  | [] -> fail "concat: empty shape list"
  | first :: rest ->
    if axis < 0 || axis >= rank first then
      fail "concat: axis %d out of range for %a" axis pp first;
    let check_compatible s =
      if rank s <> rank first then
        fail "concat: rank mismatch %a vs %a" pp first pp s;
      List.iteri
        (fun i (d, d') ->
          if i <> axis && d <> d' then
            fail "concat: dim %d mismatch %a vs %a" i pp first pp s)
        (List.combine first s)
    in
    List.iter check_compatible rest;
    let total = List.fold_left (fun acc s -> acc + List.nth s axis) 0 (first :: rest) in
    List.mapi (fun i d -> if i = axis then total else d) first
