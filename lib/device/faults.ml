(** Deterministic fault injection for the simulated device.

    Real auto-batching runtimes live on accelerators that fail: kernel
    launches error out transiently, some launches straggle far past their
    expected latency, allocations hit the memory ceiling, and occasionally
    the device resets wholesale. A serving stack that has never executed
    against those behaviours has untested recovery paths, so this module
    makes them injectable — and, critically, {e reproducible}: every fault
    decision is drawn from one seeded {!Acrobat_tensor.Rng} stream, so a
    (seed, plan) pair replays the identical fault sequence run after run.
    That is what lets the recovery machinery (retry, bisection, circuit
    breaking, degradation) be tested byte-for-byte.

    A {!plan} is pure data describing fault rates; an injector ({!t}) is the
    stateful stream consulted by {!Acrobat_device.Device}. Each device
    creation opens a fresh {e attempt} (one batch execution), and one
    uniform draw per attempt decides its fate — fault, reset, straggle or
    clean. Rates are therefore per batch attempt, not per kernel launch:
    a batch executes tens of kernels, and compounding a per-launch
    probability over that many launches would make any modest rate fatal.
    One injector is shared across every device a serving run creates, so a
    batch retried on a fresh device sees fresh draws — transient faults
    really are transient. *)

open Acrobat_tensor

type plan = {
  seed : int;  (** Seeds the injector's RNG stream. *)
  kernel_fault_rate : float;  (** P(transient launch failure) per batch attempt. *)
  straggler_rate : float;  (** P(straggler) per batch attempt. *)
  straggler_mult : float;  (** Latency multiplier of a straggling attempt's kernels. *)
  reset_rate : float;  (** P(full device reset) per batch attempt. *)
  reset_cost_us : float;  (** Simulated time burned by a device reset. *)
  capacity_elems : int option;  (** Device memory bound; [None] = unbounded. *)
  poison : int list;  (** Request ids that deterministically fail. *)
  corrupt_rate : float;
      (** P(silent output corruption) per batch attempt: the attempt's
          kernel outputs are perturbed but {e nothing raises} — the
          wrong answer is delivered unless an audit catches it. *)
  flaky_after : int option;
      (** Flaky-device mode: every attempt after the first [n] silently
          corrupts (deterministic onset, no draw) — the "device went bad
          mid-fleet" shape quarantine exists to contain. *)
}

(** The all-zero plan: no faults, unbounded memory. *)
let none =
  {
    seed = 0;
    kernel_fault_rate = 0.0;
    straggler_rate = 0.0;
    straggler_mult = 6.0;
    reset_rate = 0.0;
    reset_cost_us = 10_000.0;
    capacity_elems = None;
    poison = [];
    corrupt_rate = 0.0;
    flaky_after = None;
  }

let enabled p =
  p.kernel_fault_rate > 0.0 || p.straggler_rate > 0.0 || p.reset_rate > 0.0
  || p.capacity_elems <> None || p.poison <> []
  || p.corrupt_rate > 0.0 || p.flaky_after <> None

(** Does the plan inject silent corruption (probabilistic or flaky)? *)
let corrupts p = p.corrupt_rate > 0.0 || p.flaky_after <> None

(** What an injected launch failure was. *)
type kind = Kernel_fault | Device_reset

let kind_name = function Kernel_fault -> "kernel-fault" | Device_reset -> "device-reset"

(** Raised out of a kernel launch when the injector fires. [launch] is the
    global launch ordinal, for diagnosing a fault sequence. *)
exception Fault of { kind : kind; launch : int }

let () =
  Printexc.register_printer (function
    | Fault { kind; launch } ->
      Some (Fmt.str "Injected_fault(%s at launch %d)" (kind_name kind) launch)
    | _ -> None)

let pp_plan ppf p =
  if not (enabled p) then Fmt.pf ppf "none"
  else begin
    Fmt.pf ppf "seed=%d kernel=%.3f straggler=%.3fx%.1f reset=%.4f%a%a" p.seed
      p.kernel_fault_rate p.straggler_rate p.straggler_mult p.reset_rate
      (fun ppf -> function
        | None -> ()
        | Some c -> Fmt.pf ppf " capacity=%d" c)
      p.capacity_elems
      (fun ppf -> function
        | [] -> ()
        | ids -> Fmt.pf ppf " poison=%a" Fmt.(list ~sep:(any "+") int) ids)
      p.poison;
    if p.corrupt_rate > 0.0 then Fmt.pf ppf " corrupt=%.3f" p.corrupt_rate;
    Option.iter (fun n -> Fmt.pf ppf " flaky=%d" n) p.flaky_after
  end

(** Validate a plan's numeric ranges, naming the offending key in the
    error. {!parse} already rejects malformed field syntax, but plans can
    also be constructed programmatically (record literals, the chaos
    harness's scenario generator) and bypass the parser entirely; this is
    the single choke point both paths share. Beyond the per-field ranges it
    rejects the one degenerate combination individual field checks miss:
    rates that sum past 1.0, which would make the per-attempt decision
    bands of {!begin_attempt} overlap and silently starve the later bands.

    @raise Invalid_argument naming the offending key(s). *)
let validate (p : plan) : unit =
  let what = "fault plan" in
  let fail fmt = Clause.fail ~what fmt in
  let prob key v = Clause.check_prob ~what key v in
  prob "kernel" p.kernel_fault_rate;
  prob "straggler" p.straggler_rate;
  prob "reset" p.reset_rate;
  if not (Float.is_finite p.straggler_mult) || p.straggler_mult < 1.0 then
    fail "straggler multiplier %g must be a float >= 1" p.straggler_mult;
  if not (Float.is_finite p.reset_cost_us) || p.reset_cost_us < 0.0 then
    fail "reset cost %g must be >= 0" p.reset_cost_us;
  (match p.capacity_elems with
  | Some c when c <= 0 -> fail "capacity=%d is not a positive integer" c
  | _ -> ());
  prob "corrupt" p.corrupt_rate;
  (match p.flaky_after with
  | Some n when n < 0 -> fail "flaky=%d must be a non-negative attempt count" n
  | _ -> ());
  let total = p.kernel_fault_rate +. p.reset_rate +. p.straggler_rate in
  if total > 1.0 then
    fail
      "kernel + reset + straggler = %g exceeds 1 (the per-attempt probability bands must \
       partition [0, 1])"
      total

(** Parse a plan from a CLI spec: comma-separated [key=value] fields.

    {v seed=7,kernel=0.05,straggler=0.02x6,reset=0.001,capacity=200000,poison=3+17 v}

    [kernel], [straggler] and [reset] are per-batch-attempt probabilities;
    [straggler] takes an optional [xMULT] latency-multiplier suffix;
    [capacity] bounds device memory in elements; [poison] is a [+]-separated
    list of request ids that always fail. [corrupt] is the per-batch-attempt
    probability of {e silent} output corruption (nothing raises), and
    [flaky=N] is the flaky-device mode: every attempt after the first [N]
    corrupts deterministically. Unknown keys are rejected. *)
let valid_keys =
  [ "seed"; "kernel"; "straggler"; "reset"; "capacity"; "poison"; "corrupt"; "flaky" ]

let parse (spec : string) : plan =
  let what = "fault plan" in
  let fail fmt = Clause.fail ~what fmt in
  let prob key s = Clause.prob ~what key s in
  let field plan (key, v) =
    match key with
    | "seed" -> { plan with seed = Clause.int ~what key v }
    | "kernel" -> { plan with kernel_fault_rate = prob key v }
    | "reset" -> { plan with reset_rate = prob key v }
    | "straggler" -> (
      match String.index_opt v 'x' with
      | None -> { plan with straggler_rate = prob key v }
      | Some j ->
        let rate = String.sub v 0 j in
        let mult = String.sub v (j + 1) (String.length v - j - 1) in
        (match float_of_string_opt mult with
        | Some m when m >= 1.0 ->
          { plan with straggler_rate = prob key rate; straggler_mult = m }
        | _ -> fail "straggler multiplier %S must be a float >= 1" mult))
    | "capacity" -> (
      match int_of_string_opt v with
      | Some c when c > 0 -> { plan with capacity_elems = Some c }
      | _ -> fail "capacity=%s is not a positive integer" v)
    | "poison" ->
      let ids =
        List.map
          (fun s ->
            match int_of_string_opt s with
            | Some id -> id
            | None -> fail "poison id %S is not an integer" s)
          (String.split_on_char '+' v)
      in
      { plan with poison = ids }
    | "corrupt" -> { plan with corrupt_rate = prob key v }
    | "flaky" -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> { plan with flaky_after = Some n }
      | _ -> fail "flaky=%s is not a non-negative attempt count" v)
    | other -> Clause.unknown_key ~what ~valid:valid_keys other
  in
  let plan = List.fold_left field none (Clause.fields ~what spec) in
  validate plan;
  plan

(* Shortest decimal form that parses back to exactly [f]. *)
let float_spec = Clause.float_spec

(** Render [p] in the comma-separated [key=value] form {!parse} accepts;
    [parse (to_spec p) = p] for any plan (round-trip tested). Zero-rate
    fields are still emitted so the spec is self-describing; [capacity] and
    [poison] are omitted when absent/empty, matching their parse defaults. *)
let to_spec (p : plan) : string =
  let base =
    Fmt.str "seed=%d,kernel=%s,straggler=%sx%s,reset=%s" p.seed
      (float_spec p.kernel_fault_rate)
      (float_spec p.straggler_rate) (float_spec p.straggler_mult)
      (float_spec p.reset_rate)
  in
  let capacity =
    match p.capacity_elems with None -> "" | Some c -> Fmt.str ",capacity=%d" c
  in
  let poison =
    match p.poison with
    | [] -> ""
    | ids -> Fmt.str ",poison=%a" Fmt.(list ~sep:(any "+") int) ids
  in
  (* Corruption clauses are omitted at their defaults so legacy plans render
     byte-identically to what they always did. *)
  let corrupt =
    if p.corrupt_rate > 0.0 then Fmt.str ",corrupt=%s" (float_spec p.corrupt_rate)
    else ""
  in
  let flaky =
    match p.flaky_after with None -> "" | Some n -> Fmt.str ",flaky=%d" n
  in
  base ^ capacity ^ poison ^ corrupt ^ flaky

(* --- The stateful injector --- *)

(** The fate drawn for the current batch attempt. *)
type decision = Clean | Straggle | Break of kind

type t = {
  plan : plan;
  rng : Rng.t;
  mutable decision : decision;
  mutable corrupt_this : bool;  (** Does the current attempt silently corrupt? *)
  mutable attempts : int;
  mutable launches : int;
  mutable kernel_faults : int;
  mutable stragglers : int;
  mutable resets : int;
  mutable corruptions : int;
}

let create (plan : plan) : t =
  {
    plan;
    rng = Rng.create ((plan.seed * 0x2545F) lxor 0x5eed);
    decision = Clean;
    corrupt_this = false;
    attempts = 0;
    launches = 0;
    kernel_faults = 0;
    stragglers = 0;
    resets = 0;
    corruptions = 0;
  }

let plan t = t.plan
let attempts t = t.attempts
let launches t = t.launches
let kernel_faults t = t.kernel_faults
let stragglers t = t.stragglers
let resets t = t.resets
let corruptions t = t.corruptions

(** Whether the current attempt's outputs are silently corrupted. Ground
    truth: only the injector (and the oracles built on it) knows — the
    serving stack has to find out by auditing. *)
let corrupt_attempt t = t.corrupt_this

(** Open a new batch attempt: one uniform draw decides the whole attempt's
    fate by partitioning [0, 1) into fault / reset / straggler / clean
    bands. The stream advances exactly once per attempt regardless of
    outcome — the property that keeps a run's fault sequence independent of
    which faults the caller recovered from. Called by
    {!Acrobat_device.Device.create} when a device is wired to the injector,
    so one device = one attempt. *)
let begin_attempt t =
  let p = t.plan in
  t.attempts <- t.attempts + 1;
  t.decision <-
    (if p.kernel_fault_rate <= 0.0 && p.straggler_rate <= 0.0 && p.reset_rate <= 0.0 then
       Clean
     else
       let u = Rng.float t.rng in
       if u < p.kernel_fault_rate then Break Kernel_fault
       else if u < p.kernel_fault_rate +. p.reset_rate then Break Device_reset
       else if u < p.kernel_fault_rate +. p.reset_rate +. p.straggler_rate then begin
         t.stragglers <- t.stragglers + 1;
         Straggle
       end
       else Clean);
  (* Corruption is an independent per-attempt draw, taken after the fault
     band so plans without a corrupt clause consume exactly the stream they
     always did. Flaky onset is deterministic and draw-free. *)
  let flaky =
    match p.flaky_after with Some n -> t.attempts > n | None -> false
  in
  let drawn = p.corrupt_rate > 0.0 && Rng.float t.rng < p.corrupt_rate in
  t.corrupt_this <- flaky || drawn;
  if t.corrupt_this then t.corruptions <- t.corruptions + 1

(** Consult the injector for one kernel launch. Returns the latency
    multiplier to apply (1.0 normally, [straggler_mult] for every launch of
    a straggling attempt). A doomed attempt raises on its first launch —
    the recovery path's cost is dominated by retry latency, not by where in
    the batch the kernel died.

    @raise Fault on an injected kernel failure or device reset. *)
let on_launch t : float =
  t.launches <- t.launches + 1;
  match t.decision with
  | Clean -> 1.0
  | Straggle -> t.plan.straggler_mult
  | Break kind ->
    (* Fire once; if the caller somehow keeps launching on this attempt the
       remaining kernels run clean. *)
    t.decision <- Clean;
    (match kind with
    | Kernel_fault -> t.kernel_faults <- t.kernel_faults + 1
    | Device_reset -> t.resets <- t.resets + 1);
    raise (Fault { kind; launch = t.launches })
