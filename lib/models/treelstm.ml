(** Binary (constituency) TreeLSTM (Tai et al. 2015) over sentiment-treebank
    style parse trees — the paper's flagship recursive model.

    One cell serves both leaves (word embedding input, zero child states)
    and internal nodes (zero input, real child states): the two call sites
    are distinct 1-context specializations, so each gets its own batched
    kernels. Leaf cells are fully hoistable (static depth 0); internal cells
    follow tree height. The zero-initialization constants exercise the
    constant-reuse difference with DyNet (§E.4), and the five gate
    projections sharing one input exercise horizontal fusion (§C.1). *)

module Driver = Acrobat_engines.Driver
module W = Acrobat_workloads

let gates = [ "i"; "f"; "g"; "o"; "u" ]

(* "%wi: Tensor[({H}, {H})], %ui: ..., %vi: ..., %bi: Tensor[(1, {H})]" for
   each gate. *)
let weight_names =
  List.concat_map (fun g -> [ "w" ^ g; "u" ^ g; "v" ^ g; "b" ^ g ]) gates

let weight_params =
  String.concat ",\n         "
    (List.map
       (fun n ->
         if String.length n > 0 && n.[0] = 'b' then
           Fmt.str "%%%s: Tensor[(1, {H})]" n
         else Fmt.str "%%%s: Tensor[({H}, {H})]" n)
       weight_names)

let weight_args = String.concat ", " (List.map (fun n -> "%" ^ n) weight_names)

let cell_body =
  let gate act g =
    Fmt.str "  let %%%s = %s(matmul(%%x, %%w%s) + matmul(%%lh, %%u%s) + matmul(%%rh, %%v%s) + %%b%s);"
      g act g g g g
  in
  String.concat "\n"
    [
      gate "sigmoid" "i";
      gate "sigmoid" "f";
      gate "sigmoid" "g";
      gate "sigmoid" "o";
      gate "tanh" "u";
      "  let %c = mul(%i, %u) + mul(%f, %lc) + mul(%g, %rc);";
      "  let %h = mul(%o, tanh(%c));";
      "  (%h, %c)";
    ]

let template =
  Fmt.str
    {|
def @cell(%%x: Tensor[(1, {H})], %%lh: Tensor[(1, {H})], %%lc: Tensor[(1, {H})],
         %%rh: Tensor[(1, {H})], %%rc: Tensor[(1, {H})],
         %s) -> (Tensor[(1, {H})], Tensor[(1, {H})]) {
%s
}

def @tree(%%t: Tree[Tensor[(1, {H})]],
         %s) -> (Tensor[(1, {H})], Tensor[(1, {H})]) {
  match (%%t) {
    Leaf(%%emb) => {
      let %%z = zeros((1, {H}));
      @cell(%%emb, %%z, %%z, %%z, %%z, %s)
    },
    Node(%%l, %%r) => {
      let %%pair = concurrent(@tree(%%l, %s), @tree(%%r, %s));
      let %%lres = %%pair.0;
      let %%rres = %%pair.1;
      let %%zx = zeros((1, {H}));
      @cell(%%zx, %%lres.0, %%lres.1, %%rres.0, %%rres.1, %s)
    }
  }
}

def @main(%s,
          %%c_wt: Tensor[({H}, {C})], %%c_b: Tensor[(1, {C})],
          %%tree: Tree[Tensor[(1, {H})]]) -> Tensor[(1, {C})] {
  let %%root = @tree(%%tree, %s);
  softmax(%%c_b + matmul(%%root.0, %%c_wt))
}
|}
    weight_params cell_body weight_params weight_args weight_args weight_args weight_args
    weight_params weight_args

let make ?(classes = 5) ?hidden (size : Model.size) : Model.t =
  let hidden =
    match hidden with
    | Some h -> h
    | None -> ( match size with Model.Small -> 256 | Model.Large -> 512)
  in
  let specs =
    List.map
      (fun n ->
        if n.[0] = 'b' then n, [ 1; hidden ] else n, [ hidden; hidden ])
      weight_names
    @ [ "c_wt", [ hidden; classes ]; "c_b", [ 1; classes ] ]
  in
  let table = Model.embedding_table ~dim:hidden ~seed:23 in
  let rec tree_hval (t : W.Trees.t) =
    match t with
    | W.Trees.Leaf w -> Driver.Hleaf (Driver.Htensor (W.Embeddings.lookup table w))
    | W.Trees.Node (l, r) -> Driver.Hnode (tree_hval l, tree_hval r)
  in
  {
    Model.name = "treelstm";
    size;
    source = Model.subst [ "H", hidden; "C", classes ] template;
    inputs = [ "tree" ];
    gen_weights = Model.weights_of_specs specs;
    gen_instance = (fun rng -> [ "tree", tree_hval (W.Trees.sample rng) ]);
    degraded = None;
  }
