(** Deterministic result fingerprints: the integrity layer's detector.

    A fingerprint is a 64-bit checksum of a request's output tensors. Two
    properties carry the whole silent-data-corruption defense:

    - {b sensitivity}: perturbing any single element of any output tensor
      changes the fingerprint (with overwhelming probability — each word
      passes through a splitmix64-style avalanche before combining);
    - {b batch invariance}: the digest of one request depends only on that
      request's own output values, never on which peers it was batched
      with or in which order the runtime materialized the tensors.
      Per-tensor digests are position-sensitive {e internally} (element
      order within a tensor matters) but tensors combine {e commutatively}
      across a value, so any traversal order yields the same fingerprint.

    Batched and unbatched execution of the same request therefore produce
    the same fingerprint — exactly ACROBAT's core value-equivalence claim —
    which is what lets a sampled unbatched re-execution serve as the audit
    oracle, and doubles as a standing batched≡unbatched regression gate
    across every engine. *)

open Acrobat_tensor

type t = int64

let zero : t = 0L

let equal : t -> t -> bool = Int64.equal

(* splitmix64 finalizer: full avalanche, so a one-bit input difference
   flips ~half the output bits. *)
let mix64 (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Position-sensitive fold of one word into a running digest. *)
let step (h : int64) (w : int64) : int64 =
  mix64 (Int64.add (Int64.mul h 0x9e3779b97f4a7c15L) w)

(** Digest of one concrete tensor: shape dims then every element in row
    order. Distinct shapes with identical data digest differently. *)
let of_tensor (x : Tensor.t) : t =
  let h = ref (step 1L (Int64.of_int (List.length (Tensor.shape x)))) in
  List.iter (fun d -> h := step !h (Int64.of_int d)) (Tensor.shape x);
  Array.iter (fun v -> h := step !h (Int64.bits_of_float v)) (Tensor.data x);
  !h

(* An accounting-only output (no materialized tensor) digests its shape
   under a distinct tag: structure is still covered, values are not. *)
let of_handle (h : Value.handle) : t =
  match Value.handle_tensor h with
  | Some x -> of_tensor x
  | None when Value.handle_ready h ->
    let shape = Value.handle_shape h in
    let h = ref (step 2L (Int64.of_int (List.length shape))) in
    List.iter (fun d -> h := step !h (Int64.of_int d)) shape;
    !h
  | None -> step 3L 0L (* pending: callers fingerprint after the final flush *)

(** Fingerprint of one request's output value. Tensor and scalar components
    combine with [Int64.add] — commutative, so the digest is invariant to
    traversal/materialization order — while each component's own digest is
    avalanche-mixed first, so the combination stays sensitive. *)
let of_value (v : Value.value) : t =
  let rec add acc = function
    | Value.Vtensor h -> Int64.add acc (of_handle h)
    | Value.Vint n -> Int64.add acc (mix64 (step 4L (Int64.of_int n)))
    | Value.Vbool b -> Int64.add acc (mix64 (step 5L (if b then 1L else 0L)))
    | Value.Vfloat f -> Int64.add acc (mix64 (step 6L (Int64.bits_of_float f)))
    | Value.Vnil | Value.Vfun _ -> acc
    | Value.Vcons (a, b) | Value.Vnode (a, b) -> add (add acc a) b
    | Value.Vleaf a -> add acc a
    | Value.Vtuple vs -> Array.fold_left add acc vs
  in
  add zero v

let to_hex (fp : t) : string = Fmt.str "%016Lx" fp

let pp ppf fp = Fmt.string ppf (to_hex fp)
