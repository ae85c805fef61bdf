(** Batch assembly policies: when to stop waiting and launch.

    The batcher answers one question, asked whenever the device is free and
    requests are queued: flush how many now, or wait until when? Three
    policies:

    - {b Batch1}: execute each request alone (the no-cross-request-batching
      baseline — what an offline engine grafted onto a server does).
    - {b Fixed}: Triton-style [max_batch] with a [max_wait_us] timeout on
      the oldest queued request, so a partial batch still launches.
    - {b Adaptive}: sizes batches from the observed arrival rate and a
      learned per-batch latency model. The target is the work that arrives
      during one batch's own service time — the fixed point of
      [k = rate * latency(k)] — which keeps the device saturated under load
      without waiting for arrivals that are not coming.

    The latency model [latency(k) = fixed + per_item * k] is seeded from the
    device {!Acrobat_device.Cost_model} (launch + API overhead for the fixed
    part) and refined online from measured batch completions, so the policy
    needs no offline profiling pass. *)

module Cost_model = Acrobat_device.Cost_model

type policy =
  | Batch1
  | Fixed of { max_batch : int; max_wait_us : float }
  | Adaptive of { max_batch : int; max_wait_us : float }

let pp_policy ppf = function
  | Batch1 -> Fmt.pf ppf "batch1"
  | Fixed { max_batch; max_wait_us } ->
    Fmt.pf ppf "fixed(max %d, wait %.0fus)" max_batch max_wait_us
  | Adaptive { max_batch; max_wait_us } ->
    Fmt.pf ppf "adaptive(max %d, wait %.0fus)" max_batch max_wait_us

type t = {
  policy : policy;
  mutable ewma_interarrival_us : float;
  mutable have_interarrival : bool;
  mutable last_arrival_us : float;
  mutable have_arrival : bool;
  (* Online per-batch latency model: latency(k) ~ fixed + per_item * k. *)
  mutable lat_fixed_us : float;
  mutable lat_per_item_us : float;
  mutable observed_batches : int;
}

(* EWMA smoothing for arrivals, learning rate for the latency model. *)
let alpha = 0.2

(** A batcher for [policy]. A [max_batch] below 1 is rejected: a flush of
    0 requests would launch nothing and re-decide forever. So is a
    [max_wait_us] that is negative or not finite: the timeout it anchors
    is a fire time for the event loop. *)
let create ?(cost = Cost_model.default) policy =
  (match policy with
  | Batch1 -> ()
  | Fixed { max_batch; max_wait_us } | Adaptive { max_batch; max_wait_us } ->
    if max_batch < 1 then
      Fmt.invalid_arg "Batcher.create: max_batch must be at least 1 (got %d)" max_batch;
    if not (Float.is_finite max_wait_us && max_wait_us >= 0.0) then
      Fmt.invalid_arg "Batcher.create: max_wait_us must be finite and non-negative (got %g)"
        max_wait_us);
  {
    policy;
    ewma_interarrival_us = 0.0;
    have_interarrival = false;
    last_arrival_us = 0.0;
    have_arrival = false;
    (* Cost-model seed: a batch pays at least one launch + one API call;
       per-item work is unknown until measured, so start with a kernel
       launch worth per instance. *)
    lat_fixed_us = cost.Cost_model.kernel_launch_us +. cost.Cost_model.api_call_us;
    lat_per_item_us = cost.Cost_model.kernel_launch_us;
    observed_batches = 0;
  }

(** Feed one arrival timestamp (every admission attempt, shed or not —
    offered load is what matters for sizing). *)
let observe_arrival t ~now_us =
  if t.have_arrival then begin
    let dt = Float.max 0.0 (now_us -. t.last_arrival_us) in
    if t.have_interarrival then
      t.ewma_interarrival_us <-
        ((1.0 -. alpha) *. t.ewma_interarrival_us) +. (alpha *. dt)
    else begin
      t.ewma_interarrival_us <- dt;
      t.have_interarrival <- true
    end
  end;
  t.last_arrival_us <- now_us;
  t.have_arrival <- true

(** Feed one measured batch completion: refine the latency model with a
    stochastic-gradient step on the squared prediction error. *)
let observe_batch t ~size ~latency_us =
  let k = float_of_int (max 1 size) in
  let err = latency_us -. (t.lat_fixed_us +. (t.lat_per_item_us *. k)) in
  t.lat_fixed_us <- Float.max 0.0 (t.lat_fixed_us +. (alpha *. err *. 0.5));
  t.lat_per_item_us <- Float.max 0.0 (t.lat_per_item_us +. (alpha *. err *. 0.5 /. k));
  t.observed_batches <- t.observed_batches + 1

let estimated_latency_us t ~batch = t.lat_fixed_us +. (t.lat_per_item_us *. float_of_int batch)

(** Estimated offered load, requests per microsecond (0 until two arrivals
    have been seen). *)
let arrival_rate_per_us t =
  if t.have_interarrival && t.ewma_interarrival_us > 1e-9 then
    1.0 /. t.ewma_interarrival_us
  else 0.0

(** The adaptive target: smallest [k] with [k >= rate * latency(k)], found
    by fixed-point iteration from 1, clamped to [max_batch]. *)
let target_batch t ~max_batch =
  let rate = arrival_rate_per_us t in
  if rate <= 0.0 then 1
  else begin
    let k = ref 1 in
    for _ = 1 to 4 do
      let demand = rate *. estimated_latency_us t ~batch:!k in
      k := max 1 (min max_batch (int_of_float (Float.ceil demand)))
    done;
    !k
  end

type decision =
  | Flush of int  (** Launch now with up to this many requests. *)
  | Wait_until of float  (** Re-decide at this virtual time (or on arrival). *)

(** [decide] assumes the device is free and the queue is non-empty. The
    caller re-decides on every arrival and completion, so a [Wait_until] is
    only a timeout fallback, not the sole wake-up source. *)
let decide t ~now_us ~queue_len ~oldest_arrival_us : decision =
  match t.policy with
  | Batch1 -> Flush 1
  | Fixed { max_batch; max_wait_us } ->
    (* The timeout test must be written as [now >= oldest + max_wait] — the
       exact float expression scheduled below — so the wake-up event fired at
       that time always flushes. Testing [now - oldest >= max_wait] instead
       can round 1 ulp short and re-schedule a wake at the current time,
       spinning the event loop forever at one virtual instant. *)
    if queue_len >= max_batch then Flush max_batch
    else if now_us >= oldest_arrival_us +. max_wait_us then Flush queue_len
    else Wait_until (oldest_arrival_us +. max_wait_us)
  | Adaptive { max_batch; max_wait_us } ->
    if queue_len >= max_batch then Flush max_batch
    else
      let target = target_batch t ~max_batch in
      if queue_len >= target then Flush queue_len
      else if now_us >= oldest_arrival_us +. max_wait_us then Flush queue_len
      else Wait_until (oldest_arrival_us +. max_wait_us)
