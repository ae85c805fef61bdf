(** Auto-scheduler simulation (paper §D.1, Table 9).

    The real system runs TVM's auto-scheduler (Ansor) to find good schedules
    for the generated batched kernels, prioritizing kernels by their
    estimated execution cost (frequency × work). We model the search honestly
    as a budgeted random search: each candidate schedule for a kernel has a
    deterministic pseudo-random quality below a per-kernel cap, and a kernel
    tuned for [n] iterations keeps the best of [n] draws — giving the
    diminishing returns the paper's Table 9 shows without hand-designing the
    curve. The cap decreases with kernel size: auto-generated code is
    competitive with vendor libraries on small fused kernels and less so on
    large GEMMs (the paper observes this on BiRNN-large, §7.2.1).

    Quality multiplies into kernel execution time as [time / quality]. *)

open Acrobat_tensor

(** Tuned quality per kernel id, dense: kernel ids count up from 0 in a
    registry. An untuned kernel's entry is [nan], and every id the table
    does not cover reads [default]. A launch looks its kernel up here, so
    the lookup is an array read, not a hash. *)
type t = { quality : Float.Array.t; default : float }

let sample_floor = 0.35

(** Best achievable schedule quality for a kernel doing [flops] work per
    instance whose largest shared (weight) argument has [weight_elems]
    elements.

    The regimes reflect where generated code stands against hand-tuned
    vendor kernels (the paper observes all three): huge throughput-bound
    kernels (Berxit's batched transformer blocks) are where auto-scheduling
    is competitive; mid-size plain projections against large weight
    matrices (BiRNN-large's 512x512 GEMMs) are where cuBLAS-class kernels
    are hardest to match (§7.2.1: "better tensor kernel optimizations can
    help reduce this performance gap"); small fused cells have no vendor
    equivalent at all. *)
let quality_cap ~flops ~weight_elems =
  if flops >= 1.0e7 then 0.85
  else if weight_elems >= 200_000 then 0.5
  else if weight_elems >= 50_000 then 0.72
  else 0.9

(** Quality found by [iters] search iterations for kernel [id]: the best of
    [iters] deterministic draws in [sample_floor, cap]. Good schedules are
    rare — the draw distribution is heavily skewed toward the floor
    ([u^skew]) — so quality keeps improving over hundreds of iterations, as
    the paper's Table 9 observes of the real auto-scheduler. *)
let skew = 60.0

let search ?(seed = 0) ~id ~flops ?(weight_elems = 0) ~iters () =
  let cap = quality_cap ~flops ~weight_elems in
  if iters <= 0 then sample_floor
  else begin
    let rng = Rng.create ((id * 7919) + 12345 + (seed * 524_287)) in
    let best = ref 0.0 in
    for _ = 1 to iters do
      let q = sample_floor +. ((cap -. sample_floor) *. Float.pow (Rng.float rng) skew) in
      if q > !best then best := q
    done;
    !best
  end

(** Tune all kernels of [registry] under a total iteration budget.

    [priority] is the estimated execution cost of each kernel (invocation
    frequency × per-invocation work): exact under PGO, a heuristic guess
    otherwise — the difference Table 9 measures. [flops] and [weight_elems]
    describe the kernel the search itself sees (its candidate measurements
    run on real shapes either way). The budget is split proportionally to
    priority on top of a round-robin minimum. *)
let tune ?(seed = 0) ~(registry : Kernel.registry) ~(iters : int)
    ~(priority : int -> float) ~(flops : int -> float) ~(weight_elems : int -> int) () : t =
  let kernels = Kernel.all_kernels registry in
  let priorities =
    List.map (fun (k : Kernel.t) -> k.id, Float.max 1.0 (priority k.id)) kernels
  in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 priorities in
  let nkernels = max 1 (List.length priorities) in
  (* Every kernel gets a round-robin minimum share so high priorities do not
     starve the rest; the remainder is split by estimated cost. *)
  let min_share = iters / (4 * nkernels) in
  let size = List.fold_left (fun acc (id, _) -> max acc (id + 1)) 0 priorities in
  let table = Float.Array.make size Float.nan in
  List.iter
    (fun (id, p) ->
      let proportional =
        int_of_float (0.75 *. float_of_int iters *. p /. Float.max 1.0 total)
      in
      let n = max 1 (min_share + proportional) in
      Float.Array.set table id
        (search ~seed ~id ~flops:(flops id) ~weight_elems:(weight_elems id) ~iters:n ()))
    priorities;
  { quality = table; default = 0.7 }

(** A fixed-quality table: vendor-library kernels (DyNet's cuDNN/cuBLAS
    path) are hand-optimized but not specialized to the program. *)
let fixed q = { quality = Float.Array.create 0; default = q }

let vendor = fixed 0.9

let quality t id =
  if id < 0 || id >= Float.Array.length t.quality then t.default
  else begin
    let q = Float.Array.get t.quality id in
    if Float.is_nan q then t.default else q
  end
