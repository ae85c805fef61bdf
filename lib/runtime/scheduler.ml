(** DFG scheduling: order pending nodes into batches.

    A batch is a set of nodes with identical signatures executed as one
    batched-kernel invocation. Three schemes, matching {!Config.scheduler}:

    - {b inline depth} (ACROBAT, §4.1): nodes already carry depths computed
      during DFG construction; scheduling is just grouping by
      (phase, depth, signature) — no graph traversal at flush time.
    - {b runtime depth} (DyNet's depth-based scheme; also ACROBAT with inline
      depth computation disabled): compute topological depths by traversing
      the graph at flush time, then group as above.
    - {b agenda} (DyNet's agenda-based scheme): maintain the ready set and
      repeatedly launch the largest group of compatible ready nodes.

    Nodes live in a {!Store}: a flush schedules one window of node ids, and
    every batch is a slice of the store's [order] array. Grouping is a
    counting pass over the store's int arrays, TF-Fold's
    [(depth, type, index)] labelling (DESIGN.md §28).

    Scheduling work is charged to the device profiler per elementary
    operation (bucket pushes, graph-traversal steps, heap operations,
    signature hashes), which is how the Table 5 "Scheduling" row arises. *)

open Store
module Device = Acrobat_device.Device
module Kernel = Acrobat_compiler.Kernel

type batch = Store.batch

(* The batches [order.(0) .. order.(hi - 1)] of [s] as consecutive
   slices, given each slice's end in reverse order. *)
let slices s cuts =
  let rec go acc = function
    | [] -> acc
    | bhi :: rest ->
      let blo = match rest with b :: _ -> b | [] -> 0 in
      go ({ bstore = s; blo; bhi } :: acc) rest
  in
  go [] cuts

(* Group the nodes [lo, hi) of [s] by (phase, depth, signature), where
   node [id]'s depth is [depths.(id - doff)]; batches come ordered by
   (phase, depth, first id), each in id order. A counting sort on the
   (phase, depth) key puts the nodes of one key together in id order;
   within a key, nodes go to their signature's group in order of first
   appearance. No allocation per node: only a record per batch. *)
let group s lo hi (depths : int array) doff : batch list =
  let n = hi - lo in
  if n <= 0 then []
  else begin
    let dmin = ref max_int and dmax = ref min_int and pmin = ref max_int and pmax = ref min_int in
    for id = lo to hi - 1 do
      let d = depths.(id - doff) and p = s.phase.(id) in
      if d < !dmin then dmin := d;
      if d > !dmax then dmax := d;
      if p < !pmin then pmin := p;
      if p > !pmax then pmax := p
    done;
    let dmin = !dmin and pmin = !pmin in
    let drange = !dmax - dmin + 1 and prange = !pmax - pmin + 1 in
    let key id = ((s.phase.(id) - pmin) * drange) + (depths.(id - doff) - dmin) in
    let limit = (4 * n) + 64 in
    let counting = drange <= limit && prange <= limit && prange * drange <= limit in
    let nkeys = if counting then prange * drange else 0 in
    scratch s (max n (nkeys + 1));
    let sorted = s.sorted and aux = s.aux and groups = s.groups and order = s.order in
    (* 1. The window's ids into [sorted], by key, in id order within a key. *)
    if counting then begin
      Array.fill aux 0 (nkeys + 1) 0;
      for id = lo to hi - 1 do
        let k = key id + 1 in
        aux.(k) <- aux.(k) + 1
      done;
      for k = 1 to nkeys do
        aux.(k) <- aux.(k) + aux.(k - 1)
      done;
      for id = lo to hi - 1 do
        let k = key id in
        sorted.(aux.(k)) <- id;
        aux.(k) <- aux.(k) + 1
      done
    end
    else begin
      (* Keys too sparse to count: sort. *)
      let ids = Array.init n (fun i -> lo + i) in
      Array.stable_sort (fun a b -> Int.compare (key a) (key b)) ids;
      Array.blit ids 0 sorted 0 n
    end;
    (* 2. Per key, its signatures' groups in order of first appearance:
       [aux] holds each position's group, [groups] first each group's
       signature, then its members' next place in [order]. *)
    let cuts = ref [] in
    let b0 = ref 0 in
    while !b0 < n do
      let k = key sorted.(!b0) in
      let b1 = ref (!b0 + 1) in
      while !b1 < n && key sorted.(!b1) = k do
        incr b1
      done;
      let b0' = !b0 and b1' = !b1 in
      let ngroups = ref 0 in
      for i = b0' to b1' - 1 do
        let sg = s.sig_key.(sorted.(i)) in
        let g = ref 0 in
        while !g < !ngroups && groups.(b0' + !g) <> sg do
          incr g
        done;
        if !g = !ngroups then begin
          groups.(b0' + !g) <- sg;
          incr ngroups
        end;
        aux.(i) <- !g
      done;
      let ng = !ngroups in
      (* Group sizes, then their starts in [order]. *)
      for g = 0 to ng - 1 do
        groups.(b0' + g) <- 0
      done;
      for i = b0' to b1' - 1 do
        let g = b0' + aux.(i) in
        groups.(g) <- groups.(g) + 1
      done;
      let start = ref b0' in
      for g = 0 to ng - 1 do
        let size = groups.(b0' + g) in
        groups.(b0' + g) <- !start;
        start := !start + size;
        cuts := !start :: !cuts
      done;
      for i = b0' to b1' - 1 do
        let g = b0' + aux.(i) in
        order.(groups.(g)) <- sorted.(i);
        groups.(g) <- groups.(g) + 1
      done;
      b0 := b1'
    done;
    slices s !cuts
  end

let inline_depth (_device : Device.t) s lo hi =
  (* Depths were computed inline during construction; insertion already
     charged the O(1) bucket push per node. *)
  group s lo hi s.depth 0

(* The number of value slots node [id] of [kernel] may depend on, and the
   [j]-th of them: its batched arguments in order, then the shared
   arguments a node produces ([Kernel.produced]; none but for a kernel
   reading a block that runs once). Every other shared argument is a
   weight or constant, materialized before any node. *)
let ndeps (kernel : Kernel.t) =
  Array.length kernel.Kernel.batched + Array.length kernel.Kernel.produced

let dep_slot s id (kernel : Kernel.t) j =
  let nb = Array.length kernel.Kernel.batched in
  if j < nb then s.args.(s.arg_lo.(id) + j)
  else s.shared.(id).(kernel.Kernel.slots.(kernel.Kernel.produced.(j - nb)))

(* Topological depths over the window, into [s.rdepth] (indexed by id
   minus [lo]). Nodes arrive in insertion order, which is a valid
   dependency order (obs. O.1), so one forward pass suffices — but the
   traversal itself costs: one heap operation per node and a step per
   kernel argument, shared ones included (a dynamic framework's graph
   holds an edge per argument). Every node before the window has
   executed, so the arguments that count are those of nodes in it. *)
let topo_depths (device : Device.t) s lo hi =
  scratch s (hi - lo);
  let d = s.rdepth in
  for id = lo to hi - 1 do
    Device.charge_heap_op device;
    let kernel = s.plan.(id).Kernel.kernel in
    for _ = 1 to kernel.Kernel.nargs do
      Device.charge_scheduling device 0.02
    done;
    let depth = ref 0 in
    for j = 0 to ndeps kernel - 1 do
      let m = s.owner.(dep_slot s id kernel j) in
      if m >= lo then begin
        let dm = 1 + d.(m - lo) in
        if dm > !depth then depth := dm
      end
    done;
    d.(id - lo) <- !depth
  done

let runtime_depth (device : Device.t) s lo hi =
  topo_depths device s lo hi;
  group s lo hi s.rdepth lo

(* Whether dependency [j] of node [id] of [kernel] comes from the same
   in-window node as an earlier dependency of it. *)
let repeated s id kernel j m =
  let rec go i = i < j && (s.owner.(dep_slot s id kernel i) = m || go (i + 1)) in
  go 0

(* The agenda's ready nodes of one signature. *)
type ready_class = {
  sg : int;
  mutable members : int list;  (** In reverse push order. *)
  mutable sum : int;  (** Of the members' topological depths. *)
  mutable count : int;
  mutable lowest : int;  (** The lowest member id. *)
}

module Itbl = Hashtbl.Make (Int)

let no_class = { sg = 0; members = []; sum = 0; count = 0; lowest = 0 }

(* Whether the agenda launches class [a] before class [b]: lower average
   depth, compared exactly without dividing; then the larger class; then
   the class holding the lower node id. Strict and total over the ready
   classes (no node is in two), so the fold order of the table is
   irrelevant. *)
let before a b =
  let da = a.sum * b.count and db = b.sum * a.count in
  da < db || (da = db && (a.count > b.count || (a.count = b.count && a.lowest < b.lowest)))

let agenda (device : Device.t) s lo hi =
  (* Kahn's algorithm over the window with DyNet's agenda heuristic
     (Neubig et al. 2017b): among the signature classes with ready nodes,
     launch the one whose ready nodes have the lowest average topological
     depth — executing shallow work first lets deeper same-type nodes
     accumulate into bigger batches. Ties go to the larger class, then to
     the class holding the lowest node id ([before]), so the schedule is
     a function of the DFG alone. *)
  let n = hi - lo in
  topo_depths device s lo hi;
  let topo_depth = s.rdepth in
  (* Each node's distinct in-window dependencies, and its dependents in
     compressed rows: [dependents.(first.(m) ..)] for node [lo + m]. *)
  let indegree = Array.make n 0 and first = Array.make (n + 1) 0 in
  let each_dep f =
    for id = lo to hi - 1 do
      let kernel = s.plan.(id).Kernel.kernel in
      for j = 0 to ndeps kernel - 1 do
        let m = s.owner.(dep_slot s id kernel j) in
        if m >= lo && not (repeated s id kernel j m) then f id m
      done
    done
  in
  each_dep (fun id m ->
      indegree.(id - lo) <- indegree.(id - lo) + 1;
      first.(m - lo + 1) <- first.(m - lo + 1) + 1);
  for m = 1 to n do
    first.(m) <- first.(m) + first.(m - 1)
  done;
  let dependents = Array.make first.(n) 0 and fill = Array.sub first 0 n in
  each_dep (fun id m ->
      dependents.(fill.(m - lo)) <- id;
      fill.(m - lo) <- fill.(m - lo) + 1);
  (* Ready sets per signature, with incrementally maintained depth sums so
     class selection is O(#classes). *)
  let ready : ready_class Itbl.t = Itbl.create 64 in
  let push id =
    Device.charge_signature_hash device;
    Device.charge_heap_op device;
    let d = topo_depth.(id - lo) and sg = s.sig_key.(id) in
    match Itbl.find_opt ready sg with
    | Some c ->
      c.members <- id :: c.members;
      c.sum <- c.sum + d;
      c.count <- c.count + 1;
      if id < c.lowest then c.lowest <- id
    | None -> Itbl.replace ready sg { sg; members = [ id ]; sum = d; count = 1; lowest = id }
  in
  for id = lo to hi - 1 do
    if indegree.(id - lo) = 0 then push id
  done;
  scratch s n;
  let order = s.order in
  let placed = ref 0 and cuts = ref [] in
  while !placed < n do
    let best = ref no_class in
    Itbl.iter
      (fun _ c ->
        Device.charge_heap_op device;
        if !best == no_class || before c !best then best := c)
      ready;
    let best = !best in
    if best == no_class then fail "agenda scheduler: dependency cycle in DFG";
    Itbl.remove ready best.sg;
    let blo = !placed in
    List.iter
      (fun id ->
        order.(!placed) <- id;
        incr placed)
      (List.rev best.members);
    cuts := !placed :: !cuts;
    (* Dependents were pushed in reverse id order; keep that order. *)
    for i = blo to !placed - 1 do
      let m = order.(i) - lo in
      Device.charge_heap_op device;
      for k = first.(m + 1) - 1 downto first.(m) do
        let d = dependents.(k) - lo in
        indegree.(d) <- indegree.(d) - 1;
        if indegree.(d) = 0 then push dependents.(k)
      done
    done
  done;
  slices s !cuts

(** Order the nodes of the pending flush window into batches: [windows]
    is a runtime's [pending], which holds the open window, if any. *)
let schedule (kind : Acrobat_compiler.Config.scheduler) device (windows : window list) :
    batch list =
  match windows with
  | [] -> []
  | [ { wstore = s; lo; hi } ] -> (
    match kind with
    | Acrobat_compiler.Config.Inline_depth -> inline_depth device s lo hi
    | Acrobat_compiler.Config.Runtime_depth -> runtime_depth device s lo hi
    | Acrobat_compiler.Config.Agenda -> agenda device s lo hi)
  | _ :: _ :: _ -> invalid_arg "Scheduler.schedule: a runtime has one open window"
