(** The DFG node store: a run's dataflow graph in struct-of-arrays form.

    Every tensor a run touches is a {e value slot}: model weights, inputs
    and constants (materialized when registered), and each output of each
    DFG node (materialized when its batch executes). A {!handle} names a
    slot of a store. Nodes are rows of int arrays indexed by node id —
    plan, signature, depth, phase, instance, and the ranges of their
    batched arguments (in {!args}) and outputs (value slots) — so a node
    costs no allocation, and nothing of the graph is promoted out of the
    minor heap however long the run lives.

    Values live in handles, not in the store: while a flush window is
    open the store reaches the handles its nodes read and write
    ([holder]), and forgets them when the next window opens, so a tensor
    lives as long as the program holds its handle, as with nodes made of
    records. A handle's slot number only means something in its store.

    Ids and slots restart at 0 with every run ({!reset}), as do the
    signatures interned from them. A store is reused across the
    flushes of a run and across runs: a compiled program carries one
    (DESIGN.md §28), and the arrays only ever grow. Between runs it holds
    no tensor; a run's results leave it as handles into a store of their
    own ({!exporter}). *)

open Acrobat_tensor
open Acrobat_compiler

exception Runtime_error of string

(* Keyed by an int pair, hashed without the polymorphic hash. *)
module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((a : int), (b : int)) (c, d) = a = c && b = d
  let hash (a, b) = Int.hash ((a * 65599) + b)
end)

let fail fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

type t = {
  (* Nodes, indexed by id. *)
  mutable nodes : int;  (** Nodes this run: ids [0, nodes). *)
  mutable plan : Kernel.plan array;
  mutable sig_key : int array;
  mutable depth : int array;
  mutable phase : int array;
  mutable instance : int array;
  mutable arg_lo : int array;
      (** Where the node's batched arguments (value slots, in
          [kernel.batched] order) start in [args]. *)
  mutable out_lo : int array;  (** The node's first output slot; the others follow. *)
  mutable shared : int array array;
      (** The kernel's shared arguments as value slots, in [shared_binds]
          order: one array per kernel and run, which every node of the
          kernel points at. *)
  mutable once_nodes : int list;
      (** The nodes built once per run ([Runtime.once]): each is a batch
          of one by design, not work that failed to batch. *)
  mutable args : int array;
  mutable nargs : int;  (** Used prefix of [args]. *)
  (* Values, indexed by slot. *)
  mutable values : int;  (** Slots this run: [0, values). *)
  mutable addr : int array;  (** Device address; [-1] while the producing node is pending. *)
  mutable shape : Shape.t array;
  mutable numel : int array;  (** Element count of [shape], so a launch walks no list. *)
  mutable owner : int array;  (** Producing node, or [-1] for a materialized value. *)
  mutable holder : handle option array;
      (** When values are computed: the handle an argument or output of a
          node of the open flush window carries its value in, the
          executor's way to reach it. [None] everywhere else, so the
          store keeps no tensor alive past the window that needs it. *)
  mutable held : int array;  (** The slots with a holder: [held.(0 .. nheld - 1)]. *)
  mutable nheld : int;
  (* Scheduling scratch, reused by every flush; indexed by position in
     the window or by id minus the window's first. *)
  mutable order : int array;  (** Node ids in batch order: every batch is a slice. *)
  mutable sorted : int array;
  mutable aux : int array;
  mutable groups : int array;
  mutable rdepth : int array;
  (* Signatures interned this run (DyNet's composite ones). *)
  mutable sig_ids : int Pair_tbl.t option;
  mutable interned : int;  (** Ids given this run: [-1 .. -interned]. *)
}

(** A value slot of a store, and the slot's value once computed ([None]
    while pending, and in accounting-only mode). *)
and handle = { store : t; slot : int; mutable value : Tensor.t option }

(** The nodes [lo, hi) of a store: one flush window. *)
type window = { wstore : t; lo : int; mutable hi : int }

(** One batch: the node ids [order.(blo) .. order.(bhi - 1)] of [bstore],
    all of one signature; valid until the store's next schedule. *)
type batch = { bstore : t; blo : int; bhi : int }

let create () =
  {
    nodes = 0;
    plan = [||];
    sig_key = [||];
    depth = [||];
    phase = [||];
    instance = [||];
    arg_lo = [||];
    out_lo = [||];
    shared = [||];
    once_nodes = [];
    args = [||];
    nargs = 0;
    values = 0;
    addr = [||];
    shape = [||];
    numel = [||];
    owner = [||];
    holder = [||];
    held = [||];
    nheld = 0;
    order = [||];
    sorted = [||];
    aux = [||];
    groups = [||];
    rdepth = [||];
    sig_ids = None;
    interned = 0;
  }

(** Forget every holder: the window they served has executed. *)
let release_holders s =
  for i = 0 to s.nheld - 1 do
    s.holder.(s.held.(i)) <- None
  done;
  s.nheld <- 0

(** Start a run: ids and slots restart at 0, and the previous run's
    tensors and interned signatures are dropped. *)
let reset s =
  release_holders s;
  s.nodes <- 0;
  s.once_nodes <- [];
  s.nargs <- 0;
  s.values <- 0;
  s.interned <- 0;
  Option.iter Pair_tbl.reset s.sig_ids

let is_empty s = s.nodes = 0 && s.values = 0

(* [a] with room for index [n], filled with [x] past its old length. *)
let grow a n x =
  let len = Array.length a in
  if n < len then a
  else begin
    let b = Array.make (max (n + 1) (max 16 (2 * len))) x in
    Array.blit a 0 b 0 len;
    b
  end

(* --- Values --- *)

(* [numel] is [shape]'s element count, which the caller already holds: a
   tensor's array length or a plan's [out_elems]. Counting it here would
   divide once per dimension to check for overflow, for every slot. *)
let new_slot s ~addr ~shape ~numel ~owner =
  let v = s.values in
  if v >= Array.length s.addr then begin
    s.addr <- grow s.addr v (-1);
    s.shape <- grow s.shape v [];
    s.numel <- grow s.numel v 0;
    s.owner <- grow s.owner v (-1);
    s.holder <- grow s.holder v None
  end;
  s.addr.(v) <- addr;
  s.shape.(v) <- shape;
  s.numel.(v) <- numel;
  s.owner.(v) <- owner;
  s.values <- v + 1;
  v

(** Register a materialized value of [numel] elements; returns its slot. *)
let add_value s ~addr ~shape ~numel = new_slot s ~addr ~shape ~numel ~owner:(-1)

let ready h = h.store.addr.(h.slot) >= 0
let shape h = h.store.shape.(h.slot)
let numel h = h.store.numel.(h.slot)
let addr h = h.store.addr.(h.slot)

(** The handle on slot [v]: its holder while it has one. *)
let handle s v = match s.holder.(v) with Some h -> h | None -> { store = s; slot = v; value = None }

(* Make [h] the holder of its slot, unless the slot has one. *)
let hold s h =
  let v = h.slot in
  if Option.is_none s.holder.(v) then begin
    if s.nheld = Array.length s.held then s.held <- grow s.held s.nheld 0;
    s.held.(s.nheld) <- v;
    s.nheld <- s.nheld + 1;
    s.holder.(v) <- Some h
  end

(* --- Nodes --- *)

(** Append a node of [plan] whose batched arguments are the slots of
    [args] and whose kernel's shared ones are [shared] (the slots of
    [shared_handles]); returns its first output slot, its outputs pending.
    With [values], the node's arguments and fresh handles on its outputs
    become their slots' holders. *)
let add_node s ~values ~(plan : Kernel.plan) ~(args : handle array) ~(shared : int array)
    ~(shared_handles : handle array) ~instance ~phase ~depth ~sig_key =
  let id = s.nodes in
  if id >= Array.length s.sig_key then begin
    s.plan <- grow s.plan id plan;
    s.sig_key <- grow s.sig_key id 0;
    s.depth <- grow s.depth id 0;
    s.phase <- grow s.phase id 0;
    s.instance <- grow s.instance id 0;
    s.arg_lo <- grow s.arg_lo id 0;
    s.out_lo <- grow s.out_lo id 0;
    s.shared <- grow s.shared id shared
  end;
  s.plan.(id) <- plan;
  s.sig_key.(id) <- sig_key;
  s.depth.(id) <- depth;
  s.phase.(id) <- phase;
  s.instance.(id) <- instance;
  s.shared.(id) <- shared;
  let nb = Array.length args in
  let lo = s.nargs in
  if lo + nb > Array.length s.args then s.args <- grow s.args (lo + nb) 0;
  for j = 0 to nb - 1 do
    let h = args.(j) in
    if h.store != s then fail "kernel %s: argument %d belongs to another run" plan.kernel.name j;
    s.args.(lo + j) <- h.slot
  done;
  s.arg_lo.(id) <- lo;
  s.nargs <- lo + nb;
  let outs = plan.out_shapes in
  let first = s.values in
  for k = 0 to Array.length outs - 1 do
    ignore (new_slot s ~addr:(-1) ~shape:outs.(k) ~numel:plan.out_elems.(k) ~owner:id)
  done;
  if values then begin
    Array.iter (hold s) args;
    Array.iter (hold s) shared_handles;
    for k = 0 to Array.length outs - 1 do
      hold s { store = s; slot = first + k; value = None }
    done
  end;
  s.out_lo.(id) <- first;
  s.nodes <- id + 1;
  first

(** The slot of argument [pos] of node [id]'s kernel, from its batched
    arguments or its kernel's shared ones as the argument's role says. *)
let arg_slot s id pos =
  let k = s.plan.(id).Kernel.kernel in
  match k.Kernel.roles.(pos) with
  | Kernel.Batched -> s.args.(s.arg_lo.(id) + k.Kernel.slots.(pos))
  | Kernel.Shared -> s.shared.(id).(k.Kernel.slots.(pos))

(** Scratch arrays with room for [n] entries each, keeping their
    contents. *)
let scratch s n =
  if n > Array.length s.order then begin
    s.order <- grow s.order (n - 1) 0;
    s.sorted <- grow s.sorted (n - 1) 0;
    s.aux <- grow s.aux (n - 1) 0;
    s.groups <- grow s.groups (n - 1) 0;
    s.rdepth <- grow s.rdepth (n - 1) 0
  end

(* --- Signatures --- *)

(** A signature id of its own: a node signed with it batches with no
    other. Interned ids are negative, so they never equal a plan's id
    (ACROBAT's signatures). *)
let fresh_signature s =
  s.interned <- s.interned + 1;
  -s.interned

(** An id for the signature [(plan_id, key)], equal for equal pairs
    within this run. *)
let intern s ~plan_id ~key =
  let ids =
    match s.sig_ids with
    | Some ids -> ids
    | None ->
      let ids = Pair_tbl.create 64 in
      s.sig_ids <- Some ids;
      ids
  in
  match Pair_tbl.find_opt ids (plan_id, key) with
  | Some id -> id
  | None ->
    let id = fresh_signature s in
    Pair_tbl.replace ids (plan_id, key) id;
    id

(* --- Results --- *)

(** A copier into a fresh store that holds nothing else: a run's results
    leave its store through one, so the next run's {!reset} cannot reach
    them. Each call copies a slot's address, shape, size and value. *)
let exporter () =
  let out = create () in
  fun h ->
    let slot = add_value out ~addr:(addr h) ~shape:(shape h) ~numel:(numel h) in
    { store = out; slot; value = h.value }
