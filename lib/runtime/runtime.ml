(** The runtime façade engines program against: lazy DFG construction,
    flushing through a scheduler, shared-tensor materialization, input
    upload, tensor-dependent decisions and PGO profiling. *)

open Value
open Acrobat_tensor
module Device = Acrobat_device.Device
module Cost_model = Acrobat_device.Cost_model
open Acrobat_compiler

type t = {
  device : Device.t;
  scheduler : Config.scheduler;
  policy : Executor.policy;
  mutable pending : node list;  (** Reversed insertion order. *)
  mutable next_id : int;
  weights : (string, handle) Hashtbl.t;
  consts : (Shape.t * int64, handle) Hashtbl.t;
      (** Keyed on the exact bits of the value. *)
  plans : (int, Kernel.plan list) Hashtbl.t;
      (** kernel id -> the plans built for it, one per argument-shape
          vector seen. *)
  mutable rngs : Rng.t array;  (** Per-instance decision streams (§E.1). *)
  profile : (int, int ref * float ref * int ref) Hashtbl.t;
      (** kernel id -> (invocations, total flops, max shared-arg elems):
          the PGO profile. *)
  mutable flushes : int;
}

let create ~device ~scheduler ~(policy : Executor.policy) ~seed ~instances =
  {
    device;
    scheduler;
    policy;
    pending = [];
    next_id = 0;
    weights = Hashtbl.create 16;
    consts = Hashtbl.create 16;
    plans = Hashtbl.create 32;
    rngs = Array.init instances (fun i -> Rng.create ((seed * 1_000_003) + i));
    profile = Hashtbl.create 32;
    flushes = 0;
  }

(** Re-key the per-instance decision streams before execution. By default
    instance [i] draws from a stream derived from its batch position; the
    serving integrity layer re-keys streams by stable {e request ids}, so a
    request draws the same pseudo-random decisions no matter which peers it
    is batched with — the property that makes its result fingerprint
    batch-composition-invariant and lets an unbatched audit re-execution
    reproduce it exactly. [keys.(i)] keys instance [i]'s stream. *)
let set_decision_keys t ~seed (keys : int array) =
  t.rngs <- Array.map (fun k -> Rng.create ((seed * 1_000_003) + k)) keys

let device t = t.device
let profiler t = Device.profiler t.device

let rng_for t instance = t.rngs.(instance)

(* --- Materialization of non-DFG tensors --- *)

(** Register a model weight (resident on the device; not charged per run). *)
let set_weight t name tensor =
  let elems = Tensor.numel tensor in
  let addr = Device.alloc t.device ~elems in
  Hashtbl.replace t.weights name
    (Hmat { tensor = Some tensor; addr; shape = Tensor.shape tensor })

let weight t name =
  match Hashtbl.find_opt t.weights name with
  | Some h -> h
  | None -> fail "unknown weight %S" name

(** Reusable constant tensors are materialized once (§E.4). *)
let const_handle t ~shape ~value =
  let key = shape, Int64.bits_of_float value in
  match Hashtbl.find_opt t.consts key with
  | Some h -> h
  | None ->
    let elems = Shape.numel shape in
    let addr = Device.alloc t.device ~elems in
    let h = Hmat { tensor = Some (Tensor.full shape value); addr; shape } in
    Hashtbl.replace t.consts key h;
    h

let shared_handle t : Kernel.shared_bind -> handle = function
  | Kernel.Bparam p -> weight t p
  | Kernel.Bconst { shape; value } -> const_handle t ~shape ~value

(** Upload per-instance input tensors. [batched] models ACROBAT's batched
    memory transfers (§D.3: one host->device call); DyNet pays one call per
    tensor. *)
let upload_inputs t ~batched (tensors : Tensor.t list) : handle list =
  let total_bytes =
    List.fold_left (fun acc x -> acc + (Tensor.numel x * Cost_model.bytes_per_elem)) 0 tensors
  in
  if batched then Device.memcpy t.device ~bytes:total_bytes
  else
    List.iter
      (fun x -> Device.memcpy t.device ~bytes:(Tensor.numel x * Cost_model.bytes_per_elem))
      tensors;
  List.map
    (fun x ->
      let addr = Device.alloc t.device ~elems:(Tensor.numel x) in
      Hmat { tensor = Some x; addr; shape = Tensor.shape x })
    tensors

(** Download result tensors to the host. *)
let download t ~batched (hs : handle list) =
  let bytes h = Shape.numel (handle_shape h) * Cost_model.bytes_per_elem in
  if batched then
    Device.memcpy t.device ~bytes:(List.fold_left (fun acc h -> acc + bytes h) 0 hs)
  else List.iter (fun h -> Device.memcpy t.device ~bytes:(bytes h)) hs

(* --- DFG construction --- *)

(* [find_plan] allocates nothing on a hit: it runs once per DFG node. *)
let rec fits (shapes : Shape.t array) (args : handle array) i =
  i = Array.length args
  || (Shape.equal shapes.(i) (handle_shape args.(i)) && fits shapes args (i + 1))

let rec find_plan kernel args = function
  | [] -> raise Not_found
  | (p : Kernel.plan) :: rest ->
    if
      p.kernel == kernel
      && Array.length p.arg_shapes = Array.length args
      && fits p.arg_shapes args 0
    then p
    else find_plan kernel args rest

(** The plan of [kernel] at the shapes of [args]: built on first use,
    then shared by every node with the same kernel and argument shapes.
    A shape error propagates and is never cached. *)
let plan t (kernel : Kernel.t) (args : handle array) : Kernel.plan =
  let known = try Hashtbl.find t.plans kernel.id with Not_found -> [] in
  try find_plan kernel args known
  with Not_found ->
    let p = Kernel.plan kernel (Array.map handle_shape args) in
    Hashtbl.replace t.plans kernel.id (p :: known);
    p

(** Append one DFG node; returns handles on its outputs. [plan] must be
    [plan t kernel args]. *)
let invoke t ~(plan : Kernel.plan) ~(args : handle array) ~instance ~phase ~depth
    ~(sig_key : string) : handle array =
  Device.charge_dfg_node t.device;
  let node =
    { id = t.next_id; plan; args; phase; depth; instance; sig_key; seq = t.next_id; outs = None }
  in
  t.next_id <- t.next_id + 1;
  t.pending <- node :: t.pending;
  (match t.scheduler with
  | Config.Inline_depth -> Device.charge_bucket_push t.device
  | Config.Runtime_depth | Config.Agenda -> ());
  (match Hashtbl.find t.profile plan.kernel.id with
  | count, fl, se ->
    incr count;
    fl := !fl +. plan.flops;
    se := max !se plan.shared_elems
  | exception Not_found ->
    Hashtbl.replace t.profile plan.kernel.id (ref 1, ref plan.flops, ref plan.shared_elems));
  Array.init (Array.length plan.out_shapes) (fun i -> Hnode (node, i))

(** Schedule and execute everything pending. *)
let flush t =
  match t.pending with
  | [] -> ()
  | pending ->
    t.pending <- [];
    t.flushes <- t.flushes + 1;
    let batches = Scheduler.schedule t.scheduler t.device (List.rev pending) in
    List.iter (Executor.exec_batch t.device t.policy ~rand_for:(rng_for t)) batches

let flush_count t = t.flushes
let has_pending t = t.pending <> []

(** Force a handle without fibers: flush if it is still pending. *)
let force t h =
  if not (handle_ready h) then flush t;
  match handle_out h with
  | Some o -> o
  | None -> fail "handle still pending after flush"

(** Read a forced tensor's scalar value ([0.0] in accounting-only mode). *)
let scalar_value t h =
  let o = force t h in
  match o.tensor with
  | Some x -> Tensor.item x
  | None -> 0.0

(* --- Tensor-dependent decisions (paper §E.1) --- *)

(** Draw the next pseudo-random decision for [instance]. The caller is
    responsible for the flush barrier (fiber suspension). *)
let decision_int t ~instance n =
  if n <= 0 then fail "choice(%d): the number of alternatives must be positive" n;
  Rng.int (rng_for t instance) n

let decision_bool t ~instance p = Rng.bernoulli (rng_for t instance) p


(* --- PGO --- *)

(** Observed per-kernel statistics: (kernel id, invocation count, mean
    per-invocation flops, max shared-argument elements). *)
let profile t : (int * float * float * int) list =
  Hashtbl.fold
    (fun id (count, fl, se) acc ->
      (id, float_of_int !count, !fl /. float_of_int !count, !se) :: acc)
    t.profile []
  |> List.sort compare
