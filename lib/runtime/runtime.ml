(** The runtime façade engines program against: lazy DFG construction,
    flushing through a scheduler, shared-tensor materialization, input
    upload, tensor-dependent decisions and PGO profiling. *)

open Value
open Acrobat_tensor
module Device = Acrobat_device.Device
module Cost_model = Acrobat_device.Cost_model
open Acrobat_compiler

(* A float-only record: adding to [total] stores an unboxed float instead
   of allocating one per DFG node. *)
type flop_total = { mutable total : float }

(* What the runtime keeps per kernel: its PGO statistics (invocations,
   total flops, max shared-argument elements), and the binding of the
   kernel's shared arguments now in force. Entries are indexed by kernel
   id, which is dense per registry. *)
type kernel_entry = {
  mutable calls : int;
  flops : flop_total;
  mutable max_shared : int;
  mutable bound : binding option;
      (** Cleared when a weight or the plan table changes, so the next
          node of the kernel binds afresh. *)
}

(** A kernel's shared arguments as one runtime resolved them, once. A new
    binding replaces it whenever what the shared arguments resolve to may
    have changed ({!set_weight}, {!share_plans}), and is made only if its
    shared shapes are those of the kernel's plans in the table ({!bind}):
    so every plan of the kernel fits every binding's shared arguments
    (DESIGN.md §34). *)
and binding = {
  kernel : Kernel.t;
  entry : kernel_entry;
  shared : handle array;  (** [kernel]'s shared arguments, in [shared_binds] order. *)
  shared_slots : int array;
      (** Their slots: every node of the kernel points at this one array. *)
}

type t = {
  device : Device.t;
  scheduler : Config.scheduler;
  policy : Executor.policy;
  mutable store : Store.t;
      (** The run's DFG: a private store until an engine attaches its
          program's ({!share_store}). *)
  mutable pending : Store.window list;
      (** The open flush window (the nodes since the last flush), if any. *)
  weights : (string, handle) Hashtbl.t;
  consts : (Shape.t * int64, handle) Hashtbl.t;
      (** Keyed on the exact bits of the value. *)
  mutable plans : Kernel.plan_table;
      (** Where {!plan_in} finds and adds plans: the compiled program's shared
          table once an engine attached it ({!share_plans}), else a private
          one. *)
  mutable kernels : kernel_entry array;
      (** Indexed by kernel id (dense per registry): every DFG node reaches
          its kernel's profile with one array load, no hashing. *)
  mutable rngs : Rng.t array;  (** Per-instance decision streams (§E.1). *)
  mutable flushes : int;
}

let create ~device ~scheduler ~(policy : Executor.policy) ~seed ~instances =
  {
    device;
    scheduler;
    policy;
    store = Store.create ();
    pending = [];
    weights = Hashtbl.create 16;
    consts = Hashtbl.create 16;
    plans = Kernel.plan_table ();
    kernels = [||];
    rngs = Array.init instances (fun i -> Rng.create ((seed * 1_000_003) + i));
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

(** Build the run's DFG in [store] from now on: the store of the compiled
    program being run, reused run after run. [store] restarts (its ids
    from 0); the runtime must not have registered a value or node yet.
    @raise Invalid_argument otherwise. *)
let share_store t store =
  if not (Store.is_empty t.store) then
    invalid_arg "Runtime.share_store: the runtime already holds values";
  Store.reset store;
  t.store <- store

(* --- Materialization of non-DFG tensors --- *)

let materialize t ~addr tensor =
  let s = t.store in
  {
    store = s;
    slot = Store.add_value s ~addr ~shape:(Tensor.shape tensor) ~numel:(Tensor.numel tensor);
    value = Some tensor;
  }

(* End every kernel's binding: the next node of each kernel binds again. *)
let unbind_kernels t = Array.iter (fun e -> e.bound <- None) t.kernels

(** Register a model weight (resident on the device; not charged per run). *)
let set_weight t name tensor =
  let elems = Tensor.numel tensor in
  let addr = Device.alloc t.device ~elems in
  Hashtbl.replace t.weights name (materialize t ~addr tensor);
  unbind_kernels t

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
    let x = Tensor.full shape value in
    let addr = Device.alloc t.device ~elems:(Tensor.numel x) in
    let h = materialize t ~addr x in
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
      materialize t ~addr x)
    tensors

(** Download result tensors to the host. *)
let download t ~batched (hs : handle list) =
  let bytes h = Store.numel h * Cost_model.bytes_per_elem in
  if batched then
    Device.memcpy t.device ~bytes:(List.fold_left (fun acc h -> acc + bytes h) 0 hs)
  else List.iter (fun h -> Device.memcpy t.device ~bytes:(bytes h)) hs

(* --- DFG construction --- *)

let kernel_entry t (kernel : Kernel.t) =
  let id = kernel.id in
  if id >= Array.length t.kernels then begin
    let old = t.kernels in
    t.kernels <-
      Array.init
        (max (id + 1) (2 * Array.length old))
        (fun i ->
          if i < Array.length old then old.(i)
          else { calls = 0; flops = { total = 0.0 }; max_shared = 0; bound = None })
  end;
  t.kernels.(id)

(* [shared], resolved for [kernel], has the shapes that [kernel]'s plans
   in the table were made for: checked once per kernel per run, when a
   binding is made, so the plans in the table all fit it. *)
let check_shared t (kernel : Kernel.t) (shared : handle array) =
  List.iter
    (fun (p : Kernel.plan) ->
      if p.kernel == kernel then
        List.iteri
          (fun j (pos, _) ->
            let s = handle_shape shared.(j) in
            if not (Shape.equal p.arg_shapes.(pos) s) then
              fail "kernel %s: shared argument %d has shape %a, its plans were made for %a"
                kernel.name pos Shape.pp s Shape.pp p.arg_shapes.(pos))
          kernel.shared_binds)
    (Kernel.plans t.plans kernel)

(** [kernel]'s binding in [t]: the one in force, or a new one whose shared
    arguments are resolved from [shared_binds] in argument order (the
    order the engines used to evaluate them in, so constants materialize
    in the same order at the same addresses).
    @raise Runtime_error if the new binding's shared shapes are not those
    of [kernel]'s plans in the table. *)
let bind t (kernel : Kernel.t) =
  let e = kernel_entry t kernel in
  match e.bound with
  | Some b when b.kernel == kernel -> b
  | Some _ | None ->
    let shared =
      Array.of_list (List.map (fun (_, bind) -> shared_handle t bind) kernel.shared_binds)
    in
    check_shared t kernel shared;
    let b = { kernel; entry = e; shared; shared_slots = Array.map (fun h -> h.slot) shared } in
    e.bound <- Some b;
    b

(** The argument at index [pos] of a node of [kernel] whose batched
    arguments are [args]. *)
let kernel_arg t kernel (args : handle array) pos =
  Kernel.arg kernel ~batched:args ~shared:(bind t kernel).shared pos

(** Plan from [table] — the plan table of the program [t] runs — from now
    on. Engines attach their program's table at creation, so every batch
    of one compiled program shares its plans. *)
let share_plans t table =
  t.plans <- table;
  unbind_kernels t

(* [fits] allocates nothing: it runs for every node the VM builds, and
   for the first node of each AOT call site (later nodes, in that run and
   every later one, reuse that node's plan unchecked: DESIGN.md §34). It
   compares the node's batched arguments only (every plan of a kernel
   fits its binding's shared ones). A plan's shapes are usually the very
   lists its arguments carry (outputs of nodes with the same plan), so
   physical equality settles most comparisons before [Shape.equal] walks
   them. *)
let rec fits_from (shapes : Shape.t array) (args : handle array) i =
  i = Array.length args
  ||
  let s = handle_shape args.(i) in
  (shapes.(i) == s || Shape.equal shapes.(i) s) && fits_from shapes args (i + 1)

(** [p] fits a node whose batched arguments are [args]. *)
let fits (p : Kernel.plan) args =
  Array.length p.batched_shapes = Array.length args && fits_from p.batched_shapes args 0

let rec find_plan kernel args = function
  | [] -> raise Not_found
  | (p : Kernel.plan) :: rest ->
    if p.kernel == kernel && fits p args then p else find_plan kernel args rest

(** The plan for a node of [b]'s kernel whose batched arguments are
    [args], from the program's plan table, matched on batched shapes
    alone ([bind] checked the shared ones); a new plan is added to the
    table, once per kernel and shape vector. A shape error propagates and
    is never cached. *)
let plan_in t (b : binding) (args : handle array) : Kernel.plan =
  let kernel = b.kernel in
  try find_plan kernel args (Kernel.plans t.plans kernel)
  with Not_found ->
    if Array.length args <> Array.length kernel.batched then
      fail "kernel %s: %d batched arguments given, %d expected" kernel.name
        (Array.length args) (Array.length kernel.batched);
    let p =
      Kernel.plan kernel
        (Array.init kernel.nargs (fun pos ->
             handle_shape (Kernel.arg kernel ~batched:args ~shared:b.shared pos)))
    in
    Kernel.add_plan t.plans p;
    p

(** Append one DFG node; returns the slot of its first output (the others
    follow: see {!output}). [args] are the node's batched arguments, and
    [plan] must be a plan of [b]'s kernel that fits them ({!plan_in}). *)
let invoke t (b : binding) ~(plan : Kernel.plan) ~(args : handle array) ~instance ~phase ~depth
    ~(sig_key : int) : int =
  if plan.kernel != b.kernel then
    invalid_arg "Runtime.invoke: the plan is not of the binding's kernel";
  Device.charge_dfg_node t.device;
  let s = t.store in
  let id = s.Store.nodes in
  (* A new flush window: the last one has executed, and its holders go. *)
  (match t.pending with [] -> Store.release_holders s | _ :: _ -> ());
  let first =
    Store.add_node s ~values:t.policy.Executor.compute_values ~plan ~args
      ~shared:b.shared_slots ~shared_handles:b.shared ~instance ~phase ~depth ~sig_key
  in
  (match t.pending with
  | w :: _ -> w.Store.hi <- id + 1
  | [] -> t.pending <- [ { Store.wstore = s; lo = id; hi = id + 1 } ]);
  (match t.scheduler with
  | Config.Inline_depth -> Device.charge_bucket_push t.device
  | Config.Runtime_depth | Config.Agenda -> ());
  let e = b.entry in
  e.calls <- e.calls + 1;
  e.flops.total <- e.flops.total +. plan.flops;
  if plan.shared_elems > e.max_shared then e.max_shared <- plan.shared_elems;
  first

(** Output [k] of the node whose first output slot is [first]: the handle
    its value will arrive in. Call it before the next node is invoked. *)
let output t first k = Store.handle t.store (first + k)

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
  if not (handle_ready h) then fail "handle still pending after flush"

(** Read a forced tensor's scalar value ([0.0] in accounting-only mode). *)
let scalar_value t h =
  force t h;
  match handle_tensor h with
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
  let acc = ref [] in
  for id = Array.length t.kernels - 1 downto 0 do
    let e = t.kernels.(id) in
    if e.calls > 0 then
      acc := (id, float_of_int e.calls, e.flops.total /. float_of_int e.calls, e.max_shared) :: !acc
  done;
  !acc
