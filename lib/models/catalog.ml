(** The evaluation model zoo (paper Table 3). *)

type entry = {
  id : string;
  make : Model.size -> Model.t;
  has_tdc : bool;
  param_bytes : Model.size -> int;
      (** Parameter footprint of the sized model (4 bytes per weight
          element); sizes the serving layer's model-swap cost and any
          future memory-budgeted batching. Materializes one weight set per
          call — cache the result, don't query per request. *)
}

let entry id make has_tdc =
  { id; make; has_tdc; param_bytes = (fun s -> Model.param_bytes (make s)) }

let all : entry list =
  [
    entry "treelstm" (fun s -> Treelstm.make s) false;
    entry "mvrnn" (fun s -> Mvrnn.make s) false;
    entry "birnn" (fun s -> Birnn.make s) false;
    entry "nestedrnn" (fun s -> Nestedrnn.make s) true;
    entry "drnn" (fun s -> Drnn.make s) true;
    entry "berxit" (fun s -> Berxit.make s) true;
    entry "stackrnn" (fun s -> Stackrnn.make s) true;
  ]

(** Additional dynamic computations from the paper's Table 2 survey (not in
    its Table 3 evaluation). *)
let extras : entry list =
  [
    entry "beamsearch" (fun s -> Beam_search.make s) true;
    entry "moe" (fun s -> Moe.make s) true;
  ]

let find id =
  match List.find_opt (fun e -> e.id = id) (all @ extras) with
  | Some e -> e
  | None -> Fmt.invalid_arg "unknown model %S" id

(** Models with small/scaled dimensions for fast tests and examples. *)
let tiny id : Model.t =
  match id with
  | "rnn" -> Rnn.make ~hidden:16 ~classes:4 Model.Small
  | "treelstm" -> Treelstm.make ~hidden:8 ~classes:3 Model.Small
  | "mvrnn" -> Mvrnn.make ~hidden:8 ~classes:3 Model.Small
  | "birnn" -> Birnn.make ~hidden:8 ~classes:4 Model.Small
  | "nestedrnn" -> Nestedrnn.make ~hidden:8 Model.Small
  | "drnn" -> Drnn.make ~hidden:8 ~max_depth:4 Model.Small
  | "berxit" -> Berxit.make ~dims:(4, 16, 32, 8) Model.Small
  | "stackrnn" -> Stackrnn.make ~hidden:8 Model.Small
  | "beamsearch" -> Beam_search.make ~hidden:8 ~vocab:8 ~beam_width:3 Model.Small
  | "moe" -> Moe.make ~hidden:8 Model.Small
  | other -> Fmt.invalid_arg "unknown tiny model %S" other

let tiny_ids =
  [ "rnn"; "treelstm"; "mvrnn"; "birnn"; "nestedrnn"; "drnn"; "berxit"; "stackrnn";
    "beamsearch"; "moe" ]
