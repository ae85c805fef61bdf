(** Batched-kernel descriptors.

    A kernel is the unit the runtime batches over: the tensor ops of one
    static block (one op when grain coarsening is off), partitioned into
    {e groups} — each group is one device launch (the partition is what
    standard + horizontal kernel fusion decide). Each argument carries a
    role from the taint analysis: [Shared] arguments are a single tensor
    (model parameter / constant) reused by every instance in a batch;
    [Batched] arguments differ per instance and may need a memory gather.

    Kernels are deduplicated structurally: two blocks with identical ops,
    roles and shared-parameter bindings share one kernel and therefore batch
    together; blocks that differ only in which parameters they bind —
    e.g. the forward and backward RNN cells of a BiRNN after code
    duplication — get distinct kernels (§C.1). *)

open Acrobat_ir
open Acrobat_tensor

type role = Shared | Batched

type shared_bind =
  | Bparam of string  (** A @main weight parameter. *)
  | Bconst of { shape : Shape.t; value : float }  (** A constant tensor. *)

type src = Arg of int | Tmp of int

type instr = { op : Op.t; srcs : src list; dst : int }

type group = { instrs : instr list }

type t = {
  id : int;
  name : string;
  nargs : int;
  roles : role array;
  shared_binds : (int * shared_bind) list;
      (** arg index -> binding, one per [Shared] argument, in index order. *)
  batched : int array;
      (** The indices of the [Batched] arguments, ascending: the arguments
          a DFG node carries, in this order. *)
  slots : int array;
      (** Per argument index, its position among the node's batched
          arguments or among the shared ones (in [shared_binds] order),
          as its role says. *)
  groups : group list;
  ntmps : int;
  out_tmps : int array;
}

let out_arity t = Array.length t.out_tmps

(** The argument at index [pos] of an invocation whose [Batched] arguments
    are [batched] (in [t.batched] order) and whose [Shared] ones are
    [shared] (in [shared_binds] order). *)
let arg t ~batched ~shared pos =
  match t.roles.(pos) with
  | Batched -> batched.(t.slots.(pos))
  | Shared -> shared.(t.slots.(pos))

(** Number of device launches one batch of this kernel issues. *)
let launches t = List.length t.groups

(* --- Shape/flops propagation (once per kernel and argument shapes: a plan) --- *)

(** Shapes of all temporaries given argument shapes. *)
let tmp_shapes t (arg_shapes : Shape.t array) : Shape.t array =
  let tmps = Array.make t.ntmps [] in
  let shape_of = function Arg i -> arg_shapes.(i) | Tmp j -> tmps.(j) in
  List.iter
    (fun g ->
      List.iter
        (fun i -> tmps.(i.dst) <- Op.out_shape i.op (List.map shape_of i.srcs))
        g.instrs)
    t.groups;
  tmps

(** Everything one invocation of a kernel produces and costs that follows
    from its argument shapes alone. The runtime shares one plan between
    every DFG node with the same kernel and argument shapes, so the
    instruction walk in {!plan} runs once per distinct shape vector, not
    once per node. *)
type plan = {
  id : int;
      (** Unique across every plan table: the batching signature ACROBAT
          gives a node. *)
  kernel : t;
  arg_shapes : Shape.t array;  (** Every argument's shape, shared ones included. *)
  arg_elems : int array;  (** Element count of each of [arg_shapes]. *)
  batched_shapes : Shape.t array;
      (** The shapes of the [Batched] arguments, in [kernel.batched] order:
          what a node's own arguments must match to use this plan. *)
  out_shapes : Shape.t array;
  out_elems : int array;
      (** Element count of each of [out_shapes]: the store sizes a node's
          output slots from these, so no node divides to count them. *)
  group_flops : float array;  (** Per-instance FLOPs of each group. *)
  group_bytes : float array;
      (** Per-instance {e internal} memory traffic (bytes) of each group:
          every instruction output plus every cross-group temporary read.
          Temporaries consumed within their own group stay in
          registers/shared memory — this is the data-movement saving kernel
          fusion buys. Reads of kernel {e arguments} are excluded here: the
          executor attributes them per batch (once for shared weights, per
          instance for batched inputs). *)
  group_arg_reads : int array array;
      (** Per group, the distinct kernel-argument indices it reads, in
          ascending order: the executor's per-batch argument traffic. *)
  flops : float;  (** Sum of [group_flops]. *)
  shared_elems : int;  (** Elements of the largest [Shared] argument. *)
}

let next_plan_id = Atomic.make 0

(** Build the plan of [t] at [arg_shapes] in one pass over the
    instructions. Raises {!Op.Shape_error} if the shapes do not fit. *)
let plan t (arg_shapes : Shape.t array) : plan =
  let tmps = Array.make t.ntmps [] in
  let group_of_tmp = Array.make t.ntmps (-1) in
  let shape_of = function Arg i -> arg_shapes.(i) | Tmp j -> tmps.(j) in
  let bytes_per = 4.0 in
  let costs =
    List.mapi
      (fun gi g ->
        List.fold_left
          (fun (flops, bytes) i ->
            let shapes = List.map shape_of i.srcs in
            let out = Op.out_shape i.op shapes in
            tmps.(i.dst) <- out;
            group_of_tmp.(i.dst) <- gi;
            let reads =
              List.fold_left2
                (fun acc src shape ->
                  match src with
                  | Tmp j when group_of_tmp.(j) <> gi -> acc + Shape.numel shape
                  | Arg _ | Tmp _ -> acc)
                0 i.srcs shapes
            in
            ( flops +. Op.flops i.op shapes,
              bytes +. (bytes_per *. float_of_int (reads + Shape.numel out)) ))
          (0.0, 0.0) g.instrs)
      t.groups
  in
  let group_flops = Array.of_list (List.map fst costs) in
  let shared_elems = ref 0 in
  Array.iteri
    (fun i role ->
      if role = Shared then shared_elems := max !shared_elems (Shape.numel arg_shapes.(i)))
    t.roles;
  {
    id = Atomic.fetch_and_add next_plan_id 1;
    kernel = t;
    arg_shapes = Array.copy arg_shapes;
    arg_elems = Array.map Shape.numel arg_shapes;
    batched_shapes = Array.map (fun i -> arg_shapes.(i)) t.batched;
    out_shapes = Array.map (fun i -> tmps.(i)) t.out_tmps;
    out_elems = Array.map (fun i -> Shape.numel tmps.(i)) t.out_tmps;
    group_flops;
    group_bytes = Array.of_list (List.map snd costs);
    group_arg_reads =
      Array.of_list
        (List.map
           (fun g ->
             List.concat_map
               (fun i -> List.filter_map (function Arg a -> Some a | Tmp _ -> None) i.srcs)
               g.instrs
             |> List.sort_uniq compare |> Array.of_list)
           t.groups);
    flops = Array.fold_left ( +. ) 0.0 group_flops;
    shared_elems = !shared_elems;
  }

(** The plans built so far for the kernels of one {!registry}, indexed by
    kernel id: one list per kernel, one plan per argument-shape vector
    seen. A plan is a pure function of its kernel and argument shapes, so
    every runtime executing one compiled program can share them; the
    runtime looks them up by batched shapes alone and adds to them
    ([Runtime.plan_in]), since it binds a kernel only to shared arguments
    of the shapes its plans here were made for ([Runtime.bind]), and an
    AOT call site keeps the plan its first node found (DESIGN.md §34).
    Plans live beside the kernels, not in them: {!all_kernels} compares
    kernels structurally, and a plan points back at its kernel. *)
type plan_table = { mutable by_kernel : plan list array }

let plan_table () = { by_kernel = [||] }

(** The plans [tbl] holds for [k]. *)
let plans tbl (k : t) = if k.id < Array.length tbl.by_kernel then tbl.by_kernel.(k.id) else []

(** Remember [p] for its kernel. *)
let add_plan tbl (p : plan) =
  let id = p.kernel.id in
  let n = Array.length tbl.by_kernel in
  if id >= n then begin
    let bigger = Array.make (max (id + 1) (2 * n)) [] in
    Array.blit tbl.by_kernel 0 bigger 0 n;
    tbl.by_kernel <- bigger
  end;
  tbl.by_kernel.(id) <- p :: tbl.by_kernel.(id)

(** Execute the kernel body for one instance on concrete tensors. *)
let execute ?rand t (args : Tensor.t array) : Tensor.t array =
  let tmps = Array.make t.ntmps (Tensor.scalar 0.0) in
  let value_of = function Arg i -> args.(i) | Tmp j -> tmps.(j) in
  List.iter
    (fun g ->
      List.iter
        (fun i -> tmps.(i.dst) <- Op.eval ?rand i.op value_of i.srcs)
        g.instrs)
    t.groups;
  Array.map (fun i -> tmps.(i)) t.out_tmps

(* --- Construction --- *)

type builder = { mutable instrs : instr list; mutable next_tmp : int }

let builder () = { instrs = []; next_tmp = 0 }

let add_instr b op srcs =
  let dst = b.next_tmp in
  b.next_tmp <- b.next_tmp + 1;
  b.instrs <- { op; srcs; dst } :: b.instrs;
  dst

(* Vertical (standard) fusion: partition instructions into launch groups.
   Non-elementwise ops anchor a new group; an elementwise op joins the
   group of its latest temporary operand (the producer's group), which is
   exactly "fuse elementwise consumers into their producers". *)
let vertical_groups ~fusion instrs =
  if not fusion then List.map (fun i -> [ i ]) instrs
  else begin
    (* Group k holds a reversed instruction list; [group_of_tmp] maps each
       temporary to the index of the group that produces it. *)
    let groups : instr list ref array ref = ref [||] in
    let group_of_tmp = Hashtbl.create 16 in
    let new_group i =
      let idx = Array.length !groups in
      groups := Array.append !groups [| ref [ i ] |];
      idx
    in
    List.iter
      (fun i ->
        let producer_groups =
          List.filter_map
            (function Tmp j -> Hashtbl.find_opt group_of_tmp j | Arg _ -> None)
            i.srcs
        in
        let idx =
          (* Fusing into the *latest* producer group is always legal: all of
             the instruction's dependencies live in that group or earlier
             ones, and groups launch in creation order. *)
          if Op.is_elementwise i.op && producer_groups <> [] then begin
            let g = List.fold_left max 0 producer_groups in
            !groups.(g) := i :: !(!groups.(g));
            g
          end
          else new_group i
        in
        Hashtbl.replace group_of_tmp i.dst idx)
      instrs;
    Array.to_list (Array.map (fun g -> List.rev !g) !groups)
  end

(* Horizontal fusion: merge adjacent groups anchored by matmuls that share
   their first operand (e.g. the four gate projections of an LSTM cell all
   multiplying the same input), when the later group does not consume any
   temporary of the earlier one. *)
let horizontal_merge ~horizontal groups =
  if not horizontal then groups
  else begin
    let anchor_src g =
      match g with
      | { op = Op.Matmul; srcs = s0 :: _; _ } :: _ -> Some s0
      | _ -> None
    in
    let produces g = List.map (fun i -> i.dst) g in
    let consumes g =
      List.concat_map (fun i -> List.filter_map (function Tmp j -> Some j | Arg _ -> None) i.srcs) g
    in
    let rec merge = function
      | [] -> []
      | g :: rest -> begin
        match rest with
        | g2 :: rest2
          when (match anchor_src g, anchor_src g2 with
               | Some (Arg a), Some (Arg b) -> a = b
               | _ -> false)
               && not (List.exists (fun d -> List.mem d (consumes g2)) (produces g)) ->
          merge ((g @ g2) :: rest2)
        | _ -> g :: merge rest
      end
    in
    merge groups
  end

(* Structural key for deduplication. Constants are keyed on their exact
   bits and shapes: [Op.name] rounds values to 6 significant digits, which
   would merge kernels computing different results. *)
let canonical_key ~roles ~shared_binds ~outs instrs =
  let src_str = function Arg i -> Fmt.str "a%d" i | Tmp j -> Fmt.str "t%d" j in
  let bits = Int64.bits_of_float in
  let op_str = function
    | Op.Constant { shape; value } -> Fmt.str "const:%a:%Lx" Shape.pp shape (bits value)
    | Op.Random { shape } -> Fmt.str "random:%a" Shape.pp shape
    | op -> Op.name op
  in
  let instr_str i =
    Fmt.str "%s(%a)>%d" (op_str i.op) Fmt.(list ~sep:(any ",") string)
      (List.map src_str i.srcs) i.dst
  in
  let bind_str = function
    | i, Bparam p -> Fmt.str "%d=p:%s" i p
    | i, Bconst { shape; value } -> Fmt.str "%d=c:%a:%Lx" i Shape.pp shape (bits value)
  in
  Fmt.str "%a|%a|%a|%a"
    Fmt.(list ~sep:(any ";") string)
    (List.map instr_str instrs)
    Fmt.(array ~sep:(any ",") (fmt "%s"))
    (Array.map (function Shared -> "S" | Batched -> "B") roles)
    Fmt.(list ~sep:(any ",") string)
    (List.map bind_str shared_binds)
    Fmt.(array ~sep:(any ",") int)
    outs

(** A registry deduplicates kernels within one compilation, and holds the
    plan table every run of that compilation shares. *)
type registry = {
  table : (string, t) Hashtbl.t;
  mutable next_id : int;
  plan_table : plan_table;
}

let registry () = { table = Hashtbl.create 64; next_id = 0; plan_table = plan_table () }

let all_kernels r = Hashtbl.fold (fun _ k acc -> k :: acc) r.table [] |> List.sort compare

(** Finalize a builder into a (deduplicated) kernel. *)
let finish (r : registry) (b : builder) ~(name : string) ~(nargs : int)
    ~(roles : role array) ~(shared_binds : (int * shared_bind) list)
    ~(out_tmps : int array) ~(fusion : bool) ~(horizontal : bool) : t =
  let instrs = List.rev b.instrs in
  let key =
    Fmt.str "%s#f%b#h%b" (canonical_key ~roles ~shared_binds ~outs:out_tmps instrs) fusion
      horizontal
  in
  match Hashtbl.find_opt r.table key with
  | Some k -> k
  | None ->
    let positions role =
      List.filter (fun i -> roles.(i) = role) (List.init nargs Fun.id) |> Array.of_list
    in
    let batched = positions Batched and shared = positions Shared in
    if Array.length roles <> nargs || Array.to_list shared <> List.map fst shared_binds then
      invalid_arg
        (Fmt.str "Kernel.finish %s: shared_binds must bind exactly the Shared arguments, in order"
           name);
    let slots = Array.make nargs 0 in
    Array.iteri (fun j i -> slots.(i) <- j) batched;
    Array.iteri (fun j i -> slots.(i) <- j) shared;
    let groups =
      vertical_groups ~fusion instrs
      |> horizontal_merge ~horizontal
      |> List.map (fun instrs -> { instrs })
    in
    let k =
      {
        id = r.next_id;
        name;
        nargs;
        roles;
        shared_binds;
        batched;
        slots;
        groups;
        ntmps = b.next_tmp;
        out_tmps;
      }
    in
    r.next_id <- r.next_id + 1;
    Hashtbl.replace r.table key k;
    k

let pp ppf (t : t) =
  Fmt.pf ppf "kernel %d %s: %d args (%a), %d groups, %d outs" t.id t.name t.nargs
    Fmt.(array ~sep:(any "") (fmt "%s"))
    (Array.map (function Shared -> "S" | Batched -> "B") t.roles)
    (List.length t.groups) (Array.length t.out_tmps)
