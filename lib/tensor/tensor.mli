(** Dense row-major float tensors.

    This is the numeric substrate underneath the simulated accelerator: all
    "device kernels" ultimately compute with these, so control-flow decisions
    that depend on tensor values (early exit, parser actions, ...) are
    genuinely value-dependent rather than scripted. *)

(** The record is private: only this module builds it, and every builder
    sizes or checks [data] by {!Shape.numel}, which rejects negative
    dimensions and element counts that overflow [int], so
    [Shape.numel shape = Array.length data]. The kernels in {!Ops} and
    {!broadcast_op2} index [data] without bounds checks on the strength of
    that invariant. *)
type t = private { shape : Shape.t; data : float array }

val shape : t -> Shape.t
val data : t -> float array
val numel : t -> int

(** [create shape data] wraps [data] (not copied). Raises {!Shape.Mismatch}
    on a negative dimension, an element count that overflows [int], or
    unless [Shape.numel shape = Array.length data]. *)
val create : Shape.t -> float array -> t

val full : Shape.t -> float -> t
val zeros : Shape.t -> t
val ones : Shape.t -> t
val init : Shape.t -> (int -> float) -> t
val scalar : float -> t
val of_array : Shape.t -> float array -> t

(** Xavier-style random initialisation. *)
val random : Rng.t -> Shape.t -> t

val copy : t -> t
val get : t -> int -> float
val set : t -> int -> float -> unit
val item : t -> float
val reshape : t -> Shape.t -> t
val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val sum : t -> float
val mean : t -> float

(** Index of the maximum element (flattened). *)
val argmax : t -> int

val equal : t -> t -> bool
val approx_equal : ?eps:float -> t -> t -> bool
val pp : t Fmt.t

type binop = Add | Sub | Mul | Div

(** Apply a binary elementwise op with numpy broadcasting. *)
val broadcast_op2 : binop -> t -> t -> t
