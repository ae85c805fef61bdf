(** Forwarded-only parameters (DESIGN.md §23).

    A parameter is {e forwarded-only} when the definition never reads it:
    every use is the bare variable passed as an argument of a direct call
    (a call of a known definition with its arity), and the callee's
    parameter at that argument's index is forwarded-only too. The property
    is a greatest fixpoint, so mutually recursive definitions that pass a
    value around among themselves keep it marked.

    Weight parameters are the common case: lowering resolves every weight a
    kernel reads as an [Lshared] binding, so a recursive definition like
    TreeLSTM's [@tree] threads its weights through each call without ever
    reading them.

    Conservative cases, where every parameter or the parameter stays live:
    - all parameters of the entry, and of any definition referenced
      first-class ([Lglobal] outside the head of a direct call, e.g.
      [map(@g, ...)]): such calls bind arguments by list;
    - a parameter read anywhere else: inside an [fn], inside a non-variable
      argument, as a kernel's batched argument, in any other expression;
    - a parameter whose name is bound again anywhere in the body ([let],
      match pattern, [fn] parameter, block output) or that appears twice
      in the parameter list. *)

module L = Lowered

(* Per definition: the live flag and the forwarding edges (callee,
   argument index) of each parameter. *)
type info = { live : bool array; edges : (string * int) list array }

(* Whether [g(args)] is a direct call: the AOT engine's rule too. *)
let direct defs g args =
  match Hashtbl.find_opt defs g with
  | Some (d : L.ldef) -> List.compare_length_with args (List.length d.L.lparams) = 0
  | None -> false

let scan defs ~first_class (d : L.ldef) : info =
  let params = Array.of_list d.L.lparams in
  let n = Array.length params in
  let live = Array.make n false and edges = Array.make n [] in
  let index x =
    let rec go i = if i = n then -1 else if String.equal params.(i) x then i else go (i + 1) in
    go 0
  in
  Array.iteri
    (fun i x ->
      let j = index x in
      if j <> i then begin
        live.(i) <- true;
        live.(j) <- true
      end)
    params;
  let read x =
    let i = index x in
    if i >= 0 then live.(i) <- true
  in
  (* Rebinding a parameter's name shadows it: keep it live rather than
     track scopes. *)
  let bind = read in
  let rec walk ~in_fn e =
    let walk_ = walk ~in_fn in
    match e with
    | L.Lvar x -> read x
    | L.Lglobal g -> Hashtbl.replace first_class g ()
    | L.Lint _ | L.Lfloat _ | L.Lbool _ | L.Lnil | L.Lshared _ -> ()
    | L.Lcall (L.Lglobal g, args) when direct defs g args ->
      List.iteri
        (fun k a ->
          match a with
          | L.Lvar x when (not in_fn) && index x >= 0 ->
            let i = index x in
            edges.(i) <- (g, k) :: edges.(i)
          | a -> walk_ a)
        args
    | L.Lcall (f, args) ->
      walk_ f;
      List.iter walk_ args
    | L.Llet (x, a, b) ->
      walk_ a;
      bind x;
      walk_ b
    | L.Lblock (b, cont) ->
      List.iter walk_ b.L.args;
      List.iter bind b.L.outs;
      walk_ cont
    | L.Lfn (ps, body) ->
      List.iter bind ps;
      walk ~in_fn:true body
    | L.Lmatch (s, cases) ->
      walk_ s;
      List.iter
        (fun (p, body) ->
          List.iter bind (Acrobat_ir.Ast.pat_vars p);
          walk_ body)
        cases
    | L.Lif (a, b, c) ->
      walk_ a;
      walk_ b;
      walk_ c
    | L.Lcons (a, b) | L.Lnode (a, b) | L.Lmap (a, b) | L.Lbinop (_, a, b) ->
      walk_ a;
      walk_ b
    | L.Lleaf a | L.Lproj (a, _) | L.Lnot a | L.Lscalar a | L.Lchoice a | L.Lcoin a
    | L.Lghost (_, a) | L.Lphase (_, a) ->
      walk_ a
    | L.Ltuple es | L.Lconcurrent es -> List.iter walk_ es
  in
  walk ~in_fn:false d.L.lbody;
  { live; edges }

(** The forwarded-only mask of every definition of [defs], with [entry]'s
    parameters all live. Runs once per lowered program. *)
let analyze ~entry (defs : (string, L.ldef) Hashtbl.t) : L.forwarded =
  let first_class = Hashtbl.create 8 in
  let infos = Hashtbl.create (Hashtbl.length defs) in
  Hashtbl.iter (fun name d -> Hashtbl.replace infos name (scan defs ~first_class d)) defs;
  Hashtbl.iter
    (fun name info ->
      if String.equal name entry || Hashtbl.mem first_class name then
        Array.fill info.live 0 (Array.length info.live) true)
    infos;
  (* Greatest fixpoint: a parameter becomes live once any callee
     parameter it is forwarded to is live. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ info ->
        Array.iteri
          (fun i es ->
            if
              (not info.live.(i))
              && List.exists (fun (g, k) -> (Hashtbl.find infos g).live.(k)) es
            then begin
              info.live.(i) <- true;
              changed := true
            end)
          info.edges)
      infos
  done;
  let out = Hashtbl.create (Hashtbl.length defs) in
  Hashtbl.iter
    (fun name d -> Hashtbl.replace out name (d, Array.map not (Hashtbl.find infos name).live))
    defs;
  out

(** Whether [p]'s masks describe its definitions: the same names, each
    physically the [ldef] its mask was computed from. A program whose
    [defs] were swapped or edited after lowering fails this, and the AOT
    engine then stages every parameter. *)
let valid (p : L.t) =
  Hashtbl.length p.L.defs = Hashtbl.length p.L.forwarded
  && Hashtbl.fold
       (fun name d ok ->
         ok
         &&
         match Hashtbl.find_opt p.L.forwarded name with
         | Some (d', _) -> d == d'
         | None -> false)
       p.L.defs true

(** [p]'s forwarded-only parameter names of definition [name], in order;
    empty when the masks do not describe [p]. *)
let dropped (p : L.t) name =
  match Hashtbl.find_opt p.L.forwarded name with
  | Some (d, mask) when valid p -> List.filteri (fun i _ -> mask.(i)) d.L.lparams
  | _ -> []
