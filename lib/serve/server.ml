(** The online inference server simulation.

    Wires the pieces together on one virtual timeline: a {!Traffic} trace
    delivers requests to {!Admission}; whenever the (single, serially
    executed) device is free, the {!Batcher} decides to launch or wait; a
    launched batch runs through a caller-supplied executor — in production
    glue, {!Acrobat_engines.Driver.run_batch} on the compiled model — whose
    simulated latency occupies the device until completion; {!Stats}
    accounts every request's queue wait, compute time and outcome.

    The server is polymorphic in the request payload and knows nothing
    about models or engines: tests drive it with synthetic executors, the
    [Acrobat.serve_model] glue with real compiled programs. Determinism:
    given the same arrival trace and a deterministic executor, two
    simulations produce identical stats (event ties dispatch in scheduling
    order; no wall clock; the only RNG is the fault-tolerance jitter stream,
    seeded from the config and drawn from only on failures).

    {b Fault tolerance.} An executor may report {!Exec_fault} instead of an
    outcome; the shared {!Recovery} loop then retries with jittered backoff
    and bisects to isolate poison. The server's own policy on top of it:

    - {e circuit breaker}: after [breaker_threshold] consecutive failed
      attempts the server stops launching and sheds arrivals at admission
      until a cooldown passes; the first batch after cooldown is a probe
      whose success closes the breaker (and whose failure re-opens it);
    - {e graceful degradation}: a device OOM halves the effective batch-size
      cap, and sustained queue pressure switches the executor to its
      degraded (e.g. early-exit) variant; both restore as pressure clears.

    The device-side half of this — queue, batcher, batch-size cap,
    degradation, pressure signals and the success path — is the {!device}
    core, which each cluster {!Replica} holds too. *)

module Profiler = Acrobat_device.Profiler
module Cost_model = Acrobat_device.Cost_model
module Rng = Acrobat_tensor.Rng
module Trace = Acrobat_obs.Trace
module Json = Acrobat_obs.Json
module Resilience = Acrobat_resilience.Policy
module Budget = Acrobat_resilience.Budget
module Limiter = Acrobat_resilience.Limiter
module Brownout = Acrobat_resilience.Brownout

(** [tolerance], [default_tolerance], [exec_outcome] and [exec_result]
    (with [Exec_ok] / [Exec_fault]); see {!Recovery.Executor}. *)
include Recovery.Executor

type config = {
  policy : Batcher.policy;
  queue_capacity : int;
  deadline_us : float option;
      (** Relative per-request deadline; queued requests past it are
          dropped, not executed. *)
  cost : Cost_model.t;  (** Seeds the adaptive latency model. *)
  tolerance : tolerance;
  resilience : Resilience.config;
      (** Overload-control knobs (retry budget, adaptive concurrency,
          brownout); {!Resilience.off} by default, which makes every
          resilience path a no-op. *)
}

let default_config =
  {
    policy = Batcher.Adaptive { max_batch = 16; max_wait_us = 2_000.0 };
    queue_capacity = 256;
    deadline_us = None;
    cost = Cost_model.default;
    tolerance = default_tolerance;
    resilience = Resilience.off;
  }

(** Sampled audit re-execution: the detection arm of the silent-data-
    corruption defense. Each delivered request is, with probability
    [au_rate], re-executed {e unbatched} on a trusted reference engine and
    its fingerprint compared before delivery. A mismatch is detected
    corruption: the reference result is delivered in place of the suspect
    one (the request survives; its latency grows by the re-execution).
    Audits run off the serving device, so a sampled request's delivery is
    delayed but the batch pipeline never stalls. *)
type 'a auditor = {
  au_rate : float;  (** Per-request sampling probability in [0, 1]. *)
  au_seed : int;
      (** Seeds the sampling RNG — independent of every other stream, so
          arming the auditor perturbs no legacy RNG draw. *)
  au_reference : int -> 'a -> int64 * float;
      (** [au_reference id payload] returns the reference fingerprint and
          the unbatched re-execution latency (us) charged to the audited
          request. *)
}

(** One request's delivery verdict after the (optional) sampled audit. *)
type audit_delivery = {
  ad_extra_us : float;  (** Audit latency added before this delivery. *)
  ad_audited : bool;
  ad_clean : bool;  (** Audit verdict; [true] when unaudited. *)
}

let no_audit = { ad_extra_us = 0.0; ad_audited = false; ad_clean = true }

(** Audit one request of a successfully executed batch. [forced] bypasses
    sampling (quarantine probes must be audited to prove cleanliness).
    Shared by the single server, the cluster replica and the tenancy
    dispatcher so all three detect and count identically. With no auditor
    armed this draws nothing and returns {!no_audit}. *)
let audit_request (auditor : 'a auditor option) ~audit_rng ~(stats : Stats.t) ~forced
    ~(outcome : exec_outcome) ~index (r : 'a Admission.request) : audit_delivery =
  match auditor with
  | Some a when forced || (a.au_rate > 0.0 && Rng.float audit_rng < a.au_rate) ->
    Stats.incr stats Stats.audits;
    let ref_fp, ref_latency_us = a.au_reference r.Admission.rq_id r.Admission.rq_payload in
    let clean =
      match outcome.ex_fingerprints with
      | Some fps -> Int64.equal fps.(index) ref_fp
      | None -> not outcome.ex_corrupted
    in
    if not clean then Stats.incr stats Stats.audit_mismatches;
    { ad_extra_us = Float.max 0.0 ref_latency_us; ad_audited = true; ad_clean = clean }
  | _ -> no_audit

(** Ground-truth delivered-corruption accounting for one request: corrupted
    outputs reached a client iff the batch attempt was corrupted and the
    audit did not intercept this particular request. *)
let note_delivery (stats : Stats.t) ~(outcome : exec_outcome) (d : audit_delivery) =
  if outcome.ex_corrupted && not (d.ad_audited && not d.ad_clean) then
    Stats.incr stats Stats.corrupted_delivered

(* Trace track convention: tid 0 is the device/batch track of each server's
   pid; request [i] rides on tid [i + 1]. *)
let req_tid id = id + 1

let policy_max_batch = function
  | Batcher.Batch1 -> 1
  | Batcher.Fixed { max_batch; _ } | Batcher.Adaptive { max_batch; _ } -> max_batch

(* --- The device core, shared with {!Replica} --- *)

(** How {!offer} disposed of an arriving request. *)
type admit = Admitted | Shed_queue | Shed_limit

(** One serially executing device behind its own admission queue and
    batcher: the state the single server and every cluster replica hold
    alike. *)
type 'a device = {
  config : config;
  loop : Event_loop.t;
  queue : 'a Admission.t;
  batcher : Batcher.t;
  stats : Stats.t;  (** Everything this device executed. *)
  execute : degraded:bool -> 'a list -> exec_result;
  auditor : 'a auditor option;
  audit_rng : Rng.t;  (** Audit sampling; drawn from only when an auditor is armed. *)
  ft_rng : Rng.t;  (** Backoff jitter; drawn from only on retries. *)
  tracer : Trace.t;  (** Lifecycle span sink; {!Trace.null} when off. *)
  pid : int option;  (** Trace process; [None] keeps the tracer's ambient one. *)
  policy_max_batch : int;  (** The policy's own cap (1 for batch1). *)
  mutable cur_max_batch : int;  (** Effective cap; shrinks under OOM. *)
  mutable degraded : bool;
  mutable busy : bool;
  mutable consecutive_failures : int;
  (* Overload-resilience mechanisms; all [None] (no-ops) unless armed via
     [config.resilience]. *)
  budget : Budget.t option;
  limiter : Limiter.t option;
  brownout : Brownout.t option;
}

(** A fresh device. [id] offsets the audit and jitter seeds, so device 0
    draws exactly the streams the single server does — which is what makes
    a 1-replica cluster byte-identical to it. *)
let create_device ?pid ?auditor ~id ~loop ~tracer (config : config) ~execute =
  let pmax = policy_max_batch config.policy in
  let rs = config.resilience in
  {
    config;
    loop;
    queue =
      Admission.create ~eager_sweep:(Resilience.active rs) ~capacity:config.queue_capacity ();
    batcher = Batcher.create ~cost:config.cost config.policy;
    stats = Stats.create ();
    execute;
    auditor;
    audit_rng =
      Rng.create (match auditor with Some a -> a.au_seed + (id * 104729) | None -> 0);
    ft_rng = Rng.create (config.tolerance.ft_seed + (id * 7919));
    tracer;
    pid;
    policy_max_batch = pmax;
    cur_max_batch = pmax;
    degraded = false;
    busy = false;
    consecutive_failures = 0;
    budget = Option.map (fun frac -> Budget.create ~frac) rs.Resilience.rs_retry_budget;
    limiter =
      Option.map
        (fun target_us -> Limiter.create ~target_us ())
        rs.Resilience.rs_target_delay_us;
    brownout = Option.map Brownout.create rs.Resilience.rs_brownout;
  }

let browned_out d = match d.brownout with Some b -> Brownout.engaged b | None -> false

(** The flag the executor runs under: OOM/pressure degradation or brownout. *)
let is_degraded d = d.degraded || browned_out d

(** OOM is deterministic for a given batch size: retrying the same size
    would fail forever, so halve the cap before the batch is re-resolved. *)
let shrink_batches d =
  d.degraded <- true;
  d.cur_max_batch <- max d.config.tolerance.min_max_batch (d.cur_max_batch / 2)

(** Pressure relief after a success: once the queue is quiet again, double
    the batch cap back toward full strength; degraded mode lifts when fully
    restored. *)
let relieve d =
  if d.degraded then begin
    let occupancy =
      float_of_int (Admission.length d.queue) /. float_of_int d.config.queue_capacity
    in
    if occupancy <= d.config.tolerance.degrade_low_frac then begin
      if d.cur_max_batch < d.policy_max_batch then
        d.cur_max_batch <- min d.policy_max_batch (d.cur_max_batch * 2);
      if d.cur_max_batch >= d.policy_max_batch then d.degraded <- false
    end
  end

(* Feed the queue-delay signal (age of the oldest queued request) into the
   limiter's AIMD loop and the brownout controller. Called at each batch
   launch: both mechanisms key on the delay the queue actually produced.
   A no-op unless the resilience layer armed one of them. *)
let observe_pressure d ~now_us =
  match d.limiter, d.brownout with
  | None, None -> ()
  | _ ->
    let delay_us = Admission.queue_delay_us d.queue ~now_us in
    Option.iter
      (fun lim ->
        Limiter.observe lim ~delay_us;
        d.stats.Stats.limit <- Limiter.limit lim)
      d.limiter;
    let note name =
      Trace.instant d.tracer ?pid:d.pid ~name ~cat:"resilience" ~tid:0 ~ts_us:now_us
        ~args:[ "delay_us", Json.Float delay_us ]
    in
    Option.iter
      (fun b ->
        match Brownout.observe b ~now_us ~delay_us with
        | Brownout.Stay -> ()
        | Brownout.Engage ->
          Stats.incr d.stats Stats.brownouts;
          note "brownout_degrade"
        | Brownout.Restore ->
          Stats.incr d.stats Stats.brownout_restores;
          note "brownout_restore")
      d.brownout

(** Offer an arriving request to the queue. The adaptive concurrency limiter
    gates ahead of the bounded queue — admitting past the limit would only
    grow the delay it is trying to control — and an admission that fills
    the queue past [degrade_high_frac] enters degraded mode. Also returns
    the requests the full-queue sweep expired. *)
let offer d (r : 'a Admission.request) ~now_us : admit * 'a Admission.request list =
  match d.limiter with
  | Some lim when not (Limiter.admits lim ~queued:(Admission.length d.queue)) ->
    Stats.incr d.stats Stats.limit_shed;
    Shed_limit, []
  | _ ->
    let admitted, swept = Admission.offer_swept d.queue ~now_us r in
    if
      admitted && (not d.degraded)
      && float_of_int (Admission.length d.queue)
         >= d.config.tolerance.degrade_high_frac *. float_of_int d.config.queue_capacity
    then d.degraded <- true;
    (if admitted then Admitted else Shed_queue), swept

(** Start a launch: feed the pressure signal, then pop up to [limit] live
    requests and the expired ones skipped on the way. *)
let take d ~now_us ~limit =
  observe_pressure d ~now_us;
  Admission.take_with_expired d.queue ~now_us ~limit

(** The success path: learn the latency, count the batch, then audit and
    record each request. Sampled (or [forced]) audits decide each
    delivery: a mismatch swaps in the reference result and adds the
    re-execution latency; with no auditor this is draw-free. [each] sees
    every request's verdict in batch order, right after its queue span.
    Returns the verdicts. *)
let deliver d batch (outcome : exec_outcome) ~now_us ~done_us ~forced ~each =
  let size = List.length batch in
  let degraded = is_degraded d in
  Batcher.observe_batch d.batcher ~size ~latency_us:outcome.ex_latency_us;
  Stats.note_batch d.stats ~size ~profiler:outcome.ex_profiler;
  if degraded then Stats.incr d.stats Stats.degraded_batches;
  if outcome.ex_corrupted then
    Stats.incr d.stats Stats.corrupted_batches;
  let traced = Trace.enabled d.tracer in
  if traced then
    Trace.complete d.tracer ?pid:d.pid ~name:"batch" ~cat:"serve" ~tid:0 ~ts_us:now_us
      ~dur_us:outcome.ex_latency_us
      ~args:[ "size", Json.Int size; "degraded", Json.Bool degraded ];
  let deliveries =
    List.mapi
      (fun i r ->
        ( r,
          audit_request d.auditor ~audit_rng:d.audit_rng ~stats:d.stats ~forced ~outcome
            ~index:i r ))
      batch
  in
  List.iter
    (fun ((r : _ Admission.request), a) ->
      let id = r.Admission.rq_id in
      note_delivery d.stats ~outcome a;
      if traced && a.ad_audited then
        Trace.instant d.tracer ?pid:d.pid
          ~name:(if a.ad_clean then "audit_ok" else "audit_mismatch")
          ~cat:"integrity" ~tid:(req_tid id) ~ts_us:done_us
          ~args:[ "id", Json.Int id ];
      Stats.record_fields d.stats ~id ~arrival_us:r.Admission.rq_arrival_us ~start_us:now_us
        ~done_us:(done_us +. a.ad_extra_us) ~batch_size:size;
      if traced then
        Trace.complete d.tracer ?pid:d.pid ~name:"queue" ~cat:"request" ~tid:(req_tid id)
          ~ts_us:r.Admission.rq_arrival_us
          ~dur_us:(now_us -. r.Admission.rq_arrival_us);
      each r a)
    deliveries;
  deliveries

(** The {!Recovery} owner of a device: its jitter stream, retry budget and
    stats, executing under its current degraded flag. Retry sheds and
    poison are counted on the device before the engine's own hooks run. *)
let device_owner d ~epoch ~deliver ~on_fault ~escalate ~retry_shed ~poison :
    ('a Admission.request, 'a) Recovery.owner =
  {
    Recovery.loop = d.loop;
    tracer = d.tracer;
    pid = d.pid;
    tol = d.config.tolerance;
    rng = d.ft_rng;
    budget = d.budget;
    counters = [ d.stats ];
    epoch;
    payload = (fun r -> r.Admission.rq_payload);
    execute = (fun payloads -> d.execute ~degraded:(is_degraded d) payloads);
    deliver;
    on_fault;
    escalate;
    retry_shed =
      (fun batch ~freed_us ->
        Stats.add d.stats Stats.retry_shed (List.length batch);
        retry_shed batch ~freed_us);
    poison =
      (fun r ->
        Stats.incr d.stats Stats.poisoned;
        poison r);
  }

(* --- The single server: a device behind a circuit breaker --- *)

type breaker_state =
  | Closed
  | Open of { until_us : float }  (** Shedding; probe allowed from [until_us]. *)
  | Half_open  (** Probe in flight; its verdict closes or re-opens. *)

type 'a state = {
  dev : 'a device;
  mutable breaker : breaker_state;
  recovery : ('a Admission.request, 'a) Recovery.owner Lazy.t;
      (** Built once: every hook reads the state it needs when it runs. *)
}

(* Request-terminal instant: every request ends in exactly one, [done] or
   a {!Stats.Outcome}'s (shed ids terminate at admission). *)
let trace_terminal (st : 'a state) ~name ~ts_us (r : _ Admission.request) =
  if Trace.enabled st.dev.tracer then
    Trace.instant st.dev.tracer ~name ~cat:"request" ~ts_us
      ~tid:(req_tid r.Admission.rq_id)
      ~args:[ "id", Json.Int r.Admission.rq_id ]

(* Request [r] ended in outcome [o]: charge its counter unless the shared
   device core already did ([counted]: limiter sheds, retry-budget sheds
   and poison, which replicas count the same way), then trace it. *)
let terminal ?(counted = false) (st : 'a state) (o : Stats.Outcome.t) ~ts_us r =
  if not counted then Stats.incr st.dev.stats o.Stats.Outcome.counter;
  trace_terminal st ~name:o.Stats.Outcome.name ~ts_us r

let open_breaker (st : 'a state) ~wake =
  let d = st.dev in
  let now_us = Event_loop.now d.loop in
  let until_us = now_us +. d.config.tolerance.breaker_cooldown_us in
  st.breaker <- Open { until_us };
  Stats.incr d.stats Stats.breaker_opens;
  Trace.instant d.tracer ~name:"breaker_open" ~cat:"fault" ~tid:0 ~ts_us:now_us
    ~args:[ "until_us", Json.Float until_us ];
  (* Self-wake at cooldown expiry: with arrivals shed while open, no other
     event may exist to trigger the probe. *)
  Event_loop.schedule d.loop ~at:until_us wake

let note_failure (st : 'a state) ~wake =
  st.dev.consecutive_failures <- st.dev.consecutive_failures + 1;
  match st.breaker with
  | Half_open -> open_breaker st ~wake (* failed probe: back to shedding *)
  | Closed when st.dev.consecutive_failures >= st.dev.config.tolerance.breaker_threshold ->
    open_breaker st ~wake
  | Closed | Open _ -> ()

let note_success (st : 'a state) =
  st.dev.consecutive_failures <- 0;
  (match st.breaker with Closed -> () | Open _ | Half_open -> st.breaker <- Closed);
  relieve st.dev

(* One pass of the launch decision; called whenever the device frees up, a
   request arrives, a batcher timeout fires, or the breaker cooldown ends.
   Idempotent: spurious wakes fall through. *)
let rec maybe_launch (st : 'a state) =
  let d = st.dev in
  if not d.busy then begin
    let now_us = Event_loop.now d.loop in
    match st.breaker with
    | Half_open -> () (* unreachable while [busy] is accurate; be safe *)
    | Open { until_us } ->
      if now_us >= until_us && not (Admission.is_empty d.queue) then begin
        (* Probe: a single request tests whether the device recovered. *)
        st.breaker <- Half_open;
        Trace.instant d.tracer ~name:"breaker_probe" ~cat:"fault" ~tid:0 ~ts_us:now_us;
        flush st ~now_us ~limit:1
      end
    | Closed ->
      if not (Admission.is_empty d.queue) then begin
        match Recovery.decide_launch d.batcher d.queue ~now_us ~cap:d.cur_max_batch with
        | Batcher.Wait_until at -> Event_loop.schedule d.loop ~at (fun () -> maybe_launch st)
        | Batcher.Flush limit -> flush st ~now_us ~limit
      end
  end

and flush (st : 'a state) ~now_us ~limit =
  let d = st.dev in
  let batch, dropped = take d ~now_us ~limit in
  List.iter (terminal st Stats.Outcome.expired ~ts_us:now_us) dropped;
  match batch with
  | [] ->
    (* Everything popped had expired; the queue may still hold work. *)
    maybe_launch st
  | batch ->
    d.busy <- true;
    Recovery.resolve (Lazy.force st.recovery) batch ~k:(fun () ->
        d.busy <- false;
        maybe_launch st)

(* The server's recovery policy: breaker and OOM shrink on a fault, the
   breaker closing on success, terminal trace instants for every outcome. *)
and recovery (st : 'a state) =
  let d = st.dev in
  device_owner d
    ~epoch:(fun () -> 0)
    ~deliver:(fun batch outcome ~now_us ~done_us ->
      ignore
        (deliver d batch outcome ~now_us ~done_us ~forced:false ~each:(fun r a ->
             trace_terminal st ~name:"done" ~ts_us:(done_us +. a.ad_extra_us) r));
      fun () -> note_success st)
    ~on_fault:(fun ~oom ~reset:_ ~freed_us:_ ->
      note_failure st ~wake:(fun () -> maybe_launch st);
      if oom then shrink_batches d)
    ~escalate:(fun ~freed_us:_ -> None)
    ~retry_shed:(fun batch ~freed_us ->
      List.iter (terminal ~counted:true st Stats.Outcome.retry_budget ~ts_us:freed_us) batch;
      ignore)
    ~poison:(fun r ->
      terminal ~counted:true st Stats.Outcome.poisoned ~ts_us:(Event_loop.now d.loop) r)

let on_arrival (st : 'a state) (r : 'a Admission.request) =
  let d = st.dev in
  let now_us = Event_loop.now d.loop in
  Batcher.observe_arrival d.batcher ~now_us;
  if Trace.enabled d.tracer then
    Trace.instant d.tracer ~name:"admit" ~cat:"request" ~tid:(req_tid r.Admission.rq_id)
      ~ts_us:now_us
      ~args:[ "id", Json.Int r.Admission.rq_id ];
  match st.breaker with
  | Open { until_us } when now_us < until_us ->
    (* Breaker open: shed at the door without queueing — launching is
       pointless while the device is presumed down. *)
    terminal st Stats.Outcome.shed_breaker ~ts_us:now_us r
  | Closed | Half_open | Open _ -> (
    match offer d r ~now_us with
    | Shed_limit, _ -> terminal ~counted:true st Stats.Outcome.shed_limit ~ts_us:now_us r
    | admit, swept ->
      List.iter (terminal st Stats.Outcome.expired ~ts_us:now_us) swept;
      if admit = Shed_queue then terminal st Stats.Outcome.shed ~ts_us:now_us r
      else begin
        Option.iter Budget.deposit d.budget;
        (* Defer the launch check to a same-time event rather than deciding
           inline: events tie-break in scheduling order, so every arrival
           at this virtual instant is queued before the check runs and
           simultaneous requests coalesce into one batch instead of the
           first one launching alone. *)
        Event_loop.schedule d.loop ~at:now_us (fun () -> maybe_launch st)
      end)

(** Run the simulation to completion.

    [arrivals] gives each request's arrival time (monotone, from
    {!Traffic.arrivals}); [payload i] builds request [i]'s inputs;
    [execute] runs one assembled batch — under the server's current
    [degraded] flag — and reports its verdict. Returns the populated
    {!Stats.t} (summarize with {!Stats.summarize}).

    [tracer] receives the request-lifecycle and batch spans (and, when the
    executor threads it into its device, kernel-level spans); it defaults
    to the disabled sink. [snapshot_every_us] turns on periodic
    virtual-clock snapshots of the counters ({!Stats.metrics_json}), which
    export the limiter gauge too when the limiter is armed. Neither
    changes the simulation or its output. *)
let simulate ?(tracer = Trace.null) ?snapshot_every_us ?auditor (config : config)
    ~(arrivals : float array) ~(payload : int -> 'a)
    ~(execute : degraded:bool -> 'a list -> exec_result) : Stats.t =
  let loop = Event_loop.create (Clock.create ()) in
  let rec st =
    {
      dev = create_device ?auditor ~id:0 ~loop ~tracer config ~execute;
      breaker = Closed;
      recovery = lazy (recovery st);
    }
  in
  if Trace.enabled tracer then begin
    Trace.name_process tracer ~pid:0 ~name:"server";
    Trace.name_thread tracer ~pid:0 ~tid:0 ~name:"device"
  end;
  let requests =
    Array.mapi
      (fun i at ->
        {
          Admission.rq_id = i;
          rq_payload = payload i;
          rq_arrival_us = at;
          rq_deadline_us = Option.map (fun d -> at +. d) config.deadline_us;
        })
      arrivals
  in
  Event_loop.feed loop arrivals (fun i -> on_arrival st requests.(i));
  let stats = st.dev.stats in
  stats.Stats.limit_armed <- Option.is_some st.dev.limiter;
  Stats.snapshot_periodically ?every_us:snapshot_every_us stats loop;
  Event_loop.run loop;
  Stats.finish stats loop;
  Stats.assert_conserved stats ~arrivals:(Array.length arrivals);
  stats

(** Lift a plain (infallible) executor into the fault-aware signature;
    convenience for tests and fault-free callers. *)
let infallible (f : 'a list -> exec_outcome) : degraded:bool -> 'a list -> exec_result =
 fun ~degraded:_ batch -> Exec_ok (f batch)
