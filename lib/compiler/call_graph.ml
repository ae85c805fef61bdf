(** Call graph over global definitions, with strongly-connected components
    to identify (mutually) recursive functions. Recursion matters twice:
    the taint analysis widens through recursive cycles, and specialization
    (code duplication) must keep an entire SCC inside one context. *)

open Acrobat_ir

type t = {
  edges : (string, string list) Hashtbl.t;
  scc_of : (string, int) Hashtbl.t;  (** def name -> SCC index *)
  recursive : (string, bool) Hashtbl.t;
}

let scc_index t name = Option.value ~default:(-1) (Hashtbl.find_opt t.scc_of name)

(** Is [name] part of a recursive cycle (including self-recursion)? *)
let is_recursive t name = Option.value ~default:false (Hashtbl.find_opt t.recursive name)

(** Are [a] and [b] in the same recursive cycle? *)
let same_scc t a b = scc_index t a = scc_index t b && scc_index t a >= 0

(* Tarjan's strongly-connected components. *)
let compute_sccs edges names =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next_index = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !next_index;
    Hashtbl.replace lowlink v !next_index;
    incr next_index;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Option.value ~default:[] (Hashtbl.find_opt edges v));
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) names;
  !sccs

let build (p : Ast.program) : t =
  let edges = Hashtbl.create 16 in
  List.iter
    (fun (d : Ast.def) -> Hashtbl.replace edges d.name (Ast.globals_of d.body))
    p.defs;
  let names = List.map (fun (d : Ast.def) -> d.name) p.defs in
  let sccs = compute_sccs edges names in
  let scc_of = Hashtbl.create 16 in
  let recursive = Hashtbl.create 16 in
  List.iteri
    (fun i members ->
      List.iter
        (fun m ->
          Hashtbl.replace scc_of m i;
          let self_loop =
            List.mem m (Option.value ~default:[] (Hashtbl.find_opt edges m))
          in
          Hashtbl.replace recursive m (List.length members > 1 || self_loop))
        members)
    sccs;
  { edges; scc_of; recursive }
