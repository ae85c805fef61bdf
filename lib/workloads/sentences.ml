(** Synthetic token sequences with XNLI-like length statistics. *)

open Acrobat_tensor

let sample_length rng =
  let n = int_of_float (21.0 +. (9.0 *. Rng.normal rng)) in
  max 4 (min 50 n)

(** A sentence as word ids. *)
let sample ?(vocab = 10_000) rng =
  List.init (sample_length rng) (fun _ -> Rng.int rng vocab)
