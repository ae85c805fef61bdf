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

(* Group [nodes] by (phase, depth, signature); batches ordered by
   (phase, depth, first insertion). [depth_of] lets runtime-depth scheduling
   override the node's recorded depth. *)
let group_by_depth ?(depth_of = fun n -> n.depth) (nodes : node list) : batch list =
  let tbl : (int * int * string, (int * node list ref)) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let key = n.phase, depth_of n, n.sig_key in
      match Hashtbl.find_opt tbl key with
      | Some (_, cell) -> cell := n :: !cell
      | None -> Hashtbl.replace tbl key (n.id, ref [ n ]))
    nodes;
  Hashtbl.fold (fun (phase, depth, _) (id0, cell) acc -> ((phase, depth, id0), List.rev !cell) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  |> List.map snd

let inline_depth (_device : Device.t) nodes =
  (* Depths were computed inline during construction; insertion already
     charged the O(1) bucket push per node. *)
  group_by_depth nodes

let runtime_depth (device : Device.t) nodes =
  (* Nodes arrive in insertion order, which is a valid dependency order
     (obs. O.1), so one forward pass suffices — but the traversal itself
     costs per node and per edge. *)
  let depths : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      Device.charge_heap_op device;
      let d =
        Array.fold_left
          (fun acc h ->
            Device.charge_scheduling device 0.02;
            match h with
            | Hnode (m, _) when not (node_executed m) ->
              max acc (1 + Option.value ~default:0 (Hashtbl.find_opt depths m.id))
            | Hnode _ | Hmat _ -> acc)
          0 n.args
      in
      Hashtbl.replace depths n.id d)
    nodes;
  group_by_depth ~depth_of:(fun n -> Hashtbl.find depths n.id) nodes

let agenda (device : Device.t) nodes =
  (* Kahn's algorithm over the pending subgraph with DyNet's agenda
     heuristic (Neubig et al. 2017b): among the signature classes with
     ready nodes, launch the one whose ready nodes have the lowest average
     topological depth — executing shallow work first lets deeper same-type
     nodes accumulate into bigger batches. *)
  let topo_depth : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      Device.charge_heap_op device;
      let d =
        Array.fold_left
          (fun acc h ->
            Device.charge_scheduling device 0.02;
            match h with
            | Hnode (m, _) when not (node_executed m) ->
              max acc (1 + Option.value ~default:0 (Hashtbl.find_opt topo_depth m.id))
            | Hnode _ | Hmat _ -> acc)
          0 n.args
      in
      Hashtbl.replace topo_depth n.id d)
    nodes;
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
    match Hashtbl.find_opt ready n.sig_key with
    | Some (cell, sum, count) ->
      cell := n :: !cell;
      sum := !sum + d;
      incr count
    | None -> Hashtbl.replace ready n.sig_key (ref [ n ], ref d, ref 1)
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

let schedule (kind : Acrobat_compiler.Config.scheduler) device nodes =
  match kind with
  | Acrobat_compiler.Config.Inline_depth -> inline_depth device nodes
  | Acrobat_compiler.Config.Runtime_depth -> runtime_depth device nodes
  | Acrobat_compiler.Config.Agenda -> agenda device nodes
