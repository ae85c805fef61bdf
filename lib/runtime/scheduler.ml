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

    Scheduling work is charged to the device profiler per elementary
    operation (bucket pushes, graph-traversal steps, heap operations,
    signature hashes), which is how the Table 5 "Scheduling" row arises. *)

open Value
module Device = Acrobat_device.Device

type batch = node list

module Itbl = Hashtbl.Make (Int)

(* One batch in the making: the nodes of one (phase, depth, signature). *)
type group = {
  g_phase : int;
  g_depth : int;
  g_sig : int;
  g_first : int;  (** Id of the first node. *)
  mutable members : node list;  (** Reversed. *)
}

(* The groups at one depth, all phases: a handful, so a list. *)
type bucket = { mutable groups : group list }

(* Add [n], at [depth], to its group among [b]'s, opening one if none
   matches. *)
let rec join b (n : node) depth = function
  | [] ->
    b.groups <-
      { g_phase = n.phase; g_depth = depth; g_sig = n.sig_key; g_first = n.id; members = [ n ] }
      :: b.groups
  | g :: rest ->
    if g.g_sig = n.sig_key && g.g_phase = n.phase then g.members <- n :: g.members
    else join b n depth rest

(* Group [nodes] by (phase, depth, signature); batches ordered by
   (phase, depth, first insertion). [depth_of] lets runtime-depth scheduling
   override the node's recorded depth. Per node this is one int-keyed
   lookup of its depth's bucket and a scan of that bucket's groups,
   comparing ints: no key is allocated and no signature is hashed. *)
let group_by_depth ?(depth_of = fun n -> n.depth) (nodes : node list) : batch list =
  let buckets : bucket Itbl.t = Itbl.create 64 in
  List.iter
    (fun n ->
      let depth = depth_of n in
      let b =
        match Itbl.find buckets depth with
        | b -> b
        | exception Not_found ->
          let b = { groups = [] } in
          Itbl.add buckets depth b;
          b
      in
      join b n depth b.groups)
    nodes;
  Itbl.fold (fun _ b acc -> List.rev_append b.groups acc) buckets []
  |> List.sort (fun g1 g2 ->
         if g1.g_phase <> g2.g_phase then Int.compare g1.g_phase g2.g_phase
         else if g1.g_depth <> g2.g_depth then Int.compare g1.g_depth g2.g_depth
         else Int.compare g1.g_first g2.g_first)
  |> List.map (fun g -> List.rev g.members)

let inline_depth (_device : Device.t) nodes =
  (* Depths were computed inline during construction; insertion already
     charged the O(1) bucket push per node. *)
  group_by_depth nodes

(* Topological depths over the pending subgraph. Nodes arrive in insertion
   order, which is a valid dependency order (obs. O.1), so one forward pass
   suffices — but the traversal itself costs: one heap operation per node
   and a step per kernel argument, shared ones included (a dynamic
   framework's graph holds an edge per argument). *)
let topo_depths (device : Device.t) nodes =
  let depths : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      Device.charge_heap_op device;
      for _ = 1 to n.plan.kernel.Acrobat_compiler.Kernel.nargs do
        Device.charge_scheduling device 0.02
      done;
      let d =
        Array.fold_left
          (fun acc h ->
            match h with
            | Hnode (m, _) when not (node_executed m) ->
              max acc (1 + Option.value ~default:0 (Hashtbl.find_opt depths m.id))
            | Hnode _ | Hmat _ -> acc)
          0 n.args
      in
      Hashtbl.replace depths n.id d)
    nodes;
  depths

let runtime_depth (device : Device.t) nodes =
  let depths = topo_depths device nodes in
  group_by_depth ~depth_of:(fun n -> Hashtbl.find depths n.id) nodes

let agenda ~sig_name (device : Device.t) nodes =
  (* Kahn's algorithm over the pending subgraph with DyNet's agenda
     heuristic (Neubig et al. 2017b): among the signature classes with
     ready nodes, launch the one whose ready nodes have the lowest average
     topological depth — executing shallow work first lets deeper same-type
     nodes accumulate into bigger batches. Classes are keyed by their
     printed signatures, whose hash order breaks ties. *)
  let topo_depth = topo_depths device nodes in
  let pending : (int, node) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace pending n.id n) nodes;
  let indegree : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let dependents : (int, node list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let deps =
        Array.to_list n.args
        |> List.filter_map (function
             | Hnode (m, _) when Hashtbl.mem pending m.id && not (node_executed m) -> Some m
             | Hnode _ | Hmat _ -> None)
        |> List.sort_uniq (fun a b -> compare a.id b.id)
      in
      Hashtbl.replace indegree n.id (List.length deps);
      List.iter
        (fun m ->
          match Hashtbl.find_opt dependents m.id with
          | Some cell -> cell := n :: !cell
          | None -> Hashtbl.replace dependents m.id (ref [ n ]))
        deps)
    nodes;
  (* Ready sets per signature, with incrementally maintained depth sums so
     class selection is O(#classes). *)
  let ready : (string, node list ref * int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let push n =
    Device.charge_signature_hash device;
    Device.charge_heap_op device;
    let d = Hashtbl.find topo_depth n.id in
    let name = sig_name n in
    match Hashtbl.find_opt ready name with
    | Some (cell, sum, count) ->
      cell := n :: !cell;
      sum := !sum + d;
      incr count
    | None -> Hashtbl.replace ready name (ref [ n ], ref d, ref 1)
  in
  List.iter (fun n -> if Hashtbl.find indegree n.id = 0 then push n) nodes;
  let batches = ref [] in
  let remaining = ref (List.length nodes) in
  while !remaining > 0 do
    (* Pick the ready class with the lowest average depth (ties: larger). *)
    let score (_, sum, count) = float_of_int !sum /. float_of_int !count, - !count in
    let best =
      Hashtbl.fold
        (fun sg entry acc ->
          Device.charge_heap_op device;
          match acc with
          | Some (_, best_entry) when score best_entry <= score entry -> acc
          | _ -> Some (sg, entry))
        ready None
    in
    match best with
    | None -> Value.fail "agenda scheduler: dependency cycle in DFG"
    | Some (sg, (cell, _, _)) ->
      let batch = List.rev !cell in
      Hashtbl.remove ready sg;
      remaining := !remaining - List.length batch;
      batches := batch :: !batches;
      List.iter
        (fun n ->
          Device.charge_heap_op device;
          match Hashtbl.find_opt dependents n.id with
          | None -> ()
          | Some deps ->
            List.iter
              (fun d ->
                let k = Hashtbl.find indegree d.id - 1 in
                Hashtbl.replace indegree d.id k;
                if k = 0 then push d)
              !deps)
        batch
  done;
  List.rev !batches

(* The printed signature of a node signed by its plan's id. Signatures a
   runtime interned have names only that runtime knows
   ([Runtime.signature_name]). *)
let plan_signature n =
  if n.sig_key = n.plan.Acrobat_compiler.Kernel.id then n.plan.signature
  else Value.fail "agenda scheduler: signature %d of node %d has no name" n.sig_key n.id

(** Order [nodes] into batches. [sig_name] prints a node's signature for
    the agenda scheduler's tie-breaks. *)
let schedule ?(sig_name = plan_signature) (kind : Acrobat_compiler.Config.scheduler) device nodes =
  match kind with
  | Acrobat_compiler.Config.Inline_depth -> inline_depth device nodes
  | Acrobat_compiler.Config.Runtime_depth -> runtime_depth device nodes
  | Acrobat_compiler.Config.Agenda -> agenda ~sig_name device nodes
