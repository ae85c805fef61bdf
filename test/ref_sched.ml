(** Reference schedulers for the scheduling oracle in [t_runtime.ml].

    These are the list-based [group_by_depth], [topo_depths] and agenda
    scheduler that scheduled records of nodes before the node store
    (DESIGN.md §28), over the node records they read, declared here. They
    are kept as they were, except that the agenda keys its classes by
    signature id and breaks ties by an explicit order (DESIGN.md §30),
    which it finds by sorting the classes rather than by a scan.
    {!of_window} builds those records for a flush window
    of a store. The live schedulers, given the window itself, must emit the
    same batches in the same order and charge the device the same
    simulated time, to the bit. *)

open Acrobat
module Store = Acrobat_runtime.Store

type node = {
  id : int;
  plan : Kernel.plan;
  args : handle array;  (** The [Batched] arguments only, in [kernel.batched] order. *)
  phase : int;
  depth : int;
  sig_key : int;
  executed : bool;
}

and handle = Hmat | Hnode of node * int

let node_executed n = n.executed

(** The window's nodes as records: an argument produced by a node of the
    window is pending, any other one materialized. *)
let of_window (w : Store.window) : node list =
  let s = w.Store.wstore and lo = w.Store.lo in
  let nodes = Array.make (w.Store.hi - lo) None in
  for id = lo to w.Store.hi - 1 do
    let plan = s.Store.plan.(id) in
    let args =
      Array.init (Array.length plan.Kernel.kernel.Kernel.batched) (fun j ->
          let v = s.Store.args.(s.Store.arg_lo.(id) + j) in
          let m = s.Store.owner.(v) in
          if m >= lo then Hnode (Option.get nodes.(m - lo), v - s.Store.out_lo.(m)) else Hmat)
    in
    nodes.(id - lo) <-
      Some
        {
          id;
          plan;
          args;
          phase = s.Store.phase.(id);
          depth = s.Store.depth.(id);
          sig_key = s.Store.sig_key.(id);
          executed = false;
        }
  done;
  Array.to_list (Array.map Option.get nodes)

(* One batch in the making: the nodes of one (phase, depth, signature). *)
type group = {
  g_phase : int;
  g_depth : int;
  g_sig : int;
  g_first : int;  (** Id of the first node. *)
  mutable members : node list;  (** Reversed. *)
}

module Itbl = Hashtbl.Make (Int)

(* The groups at one depth, all phases: a handful, so a list. *)
type bucket = { mutable groups : group list }

let rec join b (n : node) depth = function
  | [] ->
    b.groups <-
      { g_phase = n.phase; g_depth = depth; g_sig = n.sig_key; g_first = n.id; members = [ n ] }
      :: b.groups
  | g :: rest ->
    if g.g_sig = n.sig_key && g.g_phase = n.phase then g.members <- n :: g.members
    else join b n depth rest

let group_by_depth ?(depth_of = fun n -> n.depth) (nodes : node list) : node list list =
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

let topo_depths (device : Device.t) nodes =
  let depths : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      Device.charge_heap_op device;
      for _ = 1 to n.plan.kernel.Kernel.nargs do
        Device.charge_scheduling device 0.02
      done;
      let d =
        Array.fold_left
          (fun acc h ->
            match h with
            | Hnode (m, _) when not (node_executed m) ->
              max acc (1 + Option.value ~default:0 (Hashtbl.find_opt depths m.id))
            | Hnode _ | Hmat -> acc)
          0 n.args
      in
      Hashtbl.replace depths n.id d)
    nodes;
  depths

let runtime_depth (device : Device.t) nodes =
  let depths = topo_depths device nodes in
  group_by_depth ~depth_of:(fun n -> Hashtbl.find depths n.id) nodes

let agenda (device : Device.t) nodes =
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
             | Hnode _ | Hmat -> None)
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
  let ready : (int, node list ref * int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
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
    (* Lowest average depth (sum / count, cross-multiplied); then the
       larger class; then the lowest node id. *)
    let lowest cell = List.fold_left (fun m n -> min m n.id) max_int !cell in
    let rank (_, (c1, s1, n1)) (_, (c2, s2, n2)) =
      match Int.compare (!s1 * !n2) (!s2 * !n1) with
      | 0 -> ( match Int.compare !n2 !n1 with 0 -> Int.compare (lowest c1) (lowest c2) | c -> c)
      | c -> c
    in
    let classes = Hashtbl.fold (fun sg entry acc -> (sg, entry) :: acc) ready [] in
    List.iter (fun _ -> Device.charge_heap_op device) classes;
    let best = match List.sort rank classes with [] -> None | c :: _ -> Some c in
    match best with
    | None -> failwith "agenda scheduler: dependency cycle in DFG"
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

(** The window's batches, as node ids. *)
let schedule (kind : Config.scheduler) device (w : Store.window) : int list list =
  let nodes = of_window w in
  let batches =
    match kind with
    | Config.Inline_depth -> group_by_depth nodes
    | Config.Runtime_depth -> runtime_depth device nodes
    | Config.Agenda -> agenda device nodes
  in
  List.map (List.map (fun n -> n.id)) batches
