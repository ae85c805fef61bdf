(** One member of a serving cluster: a device behind its own admission
    queue, batcher and recovery machinery, coordinating with the cluster
    through callbacks instead of owning terminal request accounting.

    A replica is a {!Server.device} — the same queue, batcher, batch-size
    cap, degradation and pressure state the single server holds — whose
    batches resolve through the shared {!Recovery} loop (retry with seeded
    backoff jitter, bisection to isolate poison). Its own policy differs
    from the single server's in two ways:

    - {e Terminal outcomes are reported, not owned.} Completions, expiries,
      poison drops and cancellations flow to the cluster through
      {!callbacks}, which keeps per-request-id accounting (a hedged request
      has several copies; only the first completion counts) in one place.
      The replica still records everything {e it} executed into its own
      {!Stats.t}, so per-replica utilization stays observable.
    - {e The circuit breaker is replaced by failover.} Where the single
      server opens a breaker and sheds arrivals, a replica that crosses the
      failure threshold (or the stricter consecutive-reset threshold) goes
      {!Down}: it aborts the in-flight resolution, drains its queue, and
      hands every unresolved request back to the cluster for re-dispatch to
      healthy peers. After the cooldown it turns {!Probing} and the cluster
      routes it a single live request; success re-admits it.

    Determinism: all state transitions run on the shared virtual
    {!Event_loop}; the only RNG is the per-replica backoff jitter stream
    (seeded from the tolerance seed and the replica id, drawn only on
    retries). Stale events from an aborted resolution are fenced by an
    epoch counter rather than cancellation. *)

module Trace = Acrobat_obs.Trace
module Json = Acrobat_obs.Json
module Budget = Acrobat_resilience.Budget

(** Health as the cluster's dispatcher sees it. {!Quarantined} is the
    integrity analogue of {!Down}: the replica is {e functionally} alive —
    batches complete without faults — but the audit scoreboard has caught it
    silently corrupting results, so it is fenced off exactly like a dead
    replica (drain + epoch-fenced requeue) until audited probes prove it
    clean again. *)
type health = Up | Probing | Down | Quarantined

let health_name = function
  | Up -> "up"
  | Probing -> "probing"
  | Down -> "down"
  | Quarantined -> "quarantined"

(** How the replica reports to the cluster. All callbacks fire at the
    virtual instant of the underlying event. *)
type 'a callbacks = {
  cb_live : 'a Admission.request -> bool;
      (** False when the request already completed elsewhere (hedge copy
          whose winner finished): the replica drops it unexecuted. *)
  cb_completed :
    replica:int ->
    'a Admission.request list ->
    size:int ->
    start_us:float ->
    done_us:float ->
    unit;  (** A batch finished; the cluster dedupes per request id. *)
  cb_cancelled : replica:int -> 'a Admission.request -> unit;
      (** A queued copy was dropped because its winner already completed. *)
  cb_lost : replica:int -> Stats.Outcome.t -> 'a Admission.request list -> unit;
      (** These copies left without completing: dropped by this replica's
          queue as past deadline ([expired]), shed instead of retried
          because the retry budget ran dry mid-resolution ([retry_budget],
          never fires unless a budget is armed), or isolated by bisection as
          the deterministic batch-killer ([poisoned]). *)
  cb_down : replica:int -> 'a Admission.request list -> unit;
      (** The replica failed over; these queued + in-flight requests drain
          back for re-dispatch. *)
  cb_quarantined : replica:int -> 'a Admission.request list -> unit;
      (** The corruption scoreboard quarantined the replica; these queued
          requests drain back for re-dispatch (in-flight results were
          already delivered — audit-corrected where caught — before
          containment fired). *)
  cb_probe_ready : replica:int -> unit;
      (** Cooldown passed; the replica accepts a single probe request. *)
  cb_up : replica:int -> unit;  (** A probe succeeded; healthy again. *)
}

type 'a t = {
  id : int;
  dev : 'a Server.device;
      (** Queue, batcher, stats ({e this} replica's view: everything it
          ran), jitter stream and degradation state; traces on pid
          [id + 1] (pid 0 is the dispatcher). *)
  reset_threshold : int;  (** Consecutive device resets that force failover. *)
  cb : 'a callbacks;
  mutable busy_until_us : float;  (** Estimated device-free time (for LEL dispatch). *)
  mutable health : health;
  mutable consecutive_resets : int;
  mutable health_score : float;  (** EWMA of batch-attempt success in [0, 1]. *)
  mutable corrupt_score : float;
      (** EWMA of audit {e mismatch} in [0, 1]; crossing the threshold
          quarantines the replica. Fed only by audit verdicts, so with no
          auditor it stays 0 forever. *)
  mutable quarantine_probing : bool;
      (** Probing to exit quarantine (vs failover): probe batches are
          force-audited and re-admission needs consecutive clean verdicts —
          a merely-completing probe proves liveness, not integrity. *)
  mutable clean_probes : int;  (** Consecutive clean audited probes so far. *)
  mutable outstanding : 'a Admission.request list;
      (** The in-flight batch's unresolved requests; requeued on failover. *)
  mutable epoch : int;  (** Bumped on failover; stale continuations no-op. *)
  recovery : ('a Admission.request, 'a) Recovery.owner Lazy.t;
      (** Built once: every hook reads the state it needs when it runs. *)
}

(* Trace pid convention (cluster runs): dispatcher-level events are pid 0,
   replica [i]'s device and batch spans are pid [i + 1]. *)
let trace_pid t = t.id + 1

let score_alpha = 0.2

(* Corruption-scoreboard constants. The EWMA is fed 1.0 per audit mismatch
   and 0.0 per clean audit; with alpha 0.3 and threshold 0.5, one mismatch
   (score 0.3) is tolerated as a possible one-off upset while two in a row
   (0.3 -> 0.51) quarantine the replica. Re-admission needs
   [quarantine_clean_probes] consecutive clean force-audited probes. *)
let corrupt_alpha = 0.3
let corrupt_threshold = 0.5
let quarantine_clean_probes = 2

let id t = t.id
let health t = t.health
let health_score t = t.health_score
let corrupt_score t = t.corrupt_score
let stats t = t.dev.Server.stats
let admission t = t.dev.Server.queue
let queue_length t = Admission.length t.dev.Server.queue
let is_busy t = t.dev.Server.busy

(** Fencing epoch: bumped on every failover, so each Down transition is
    observable and stale continuations from the aborted resolution no-op.
    Exposed for the health-transition property tests. *)
let epoch t = t.epoch

(** Expected time for one more request to clear this replica: remaining
    busy time plus the batcher's learned latency for the queue it would
    join. The least-expected-latency dispatch policy minimizes this. *)
let expected_latency_us t ~now_us =
  let d = t.dev in
  let residual = if d.Server.busy then Float.max 0.0 (t.busy_until_us -. now_us) else 0.0 in
  residual
  +. Batcher.estimated_latency_us d.Server.batcher
       ~batch:(Admission.length d.Server.queue + 1)

(** Can the dispatcher hand this replica a probe right now? One request at
    a time: an occupied probing replica already has its verdict pending. *)
let wants_probe t =
  t.health = Probing && (not t.dev.Server.busy) && Admission.is_empty t.dev.Server.queue

let note_attempt t ~ok =
  t.health_score <-
    ((1.0 -. score_alpha) *. t.health_score) +. (score_alpha *. if ok then 1.0 else 0.0)

let drop_outstanding t batch =
  t.outstanding <-
    List.filter (fun (r : _ Admission.request) -> not (List.memq r batch)) t.outstanding

let note_success t =
  t.dev.Server.consecutive_failures <- 0;
  t.consecutive_resets <- 0;
  note_attempt t ~ok:true;
  (* A quarantine probe proves nothing by merely completing — corruption is
     silent — so re-admission from quarantine is decided by the audit
     verdicts (see [note_audit]), never here. *)
  if t.health = Probing && not t.quarantine_probing then begin
    t.health <- Up;
    Stats.incr t.dev.Server.stats Stats.readmitted;
    if Trace.enabled t.dev.Server.tracer then
      Trace.instant t.dev.Server.tracer ~name:"readmit" ~cat:"cluster" ~pid:(trace_pid t)
        ~tid:0
        ~ts_us:(Event_loop.now t.dev.Server.loop);
    t.cb.cb_up ~replica:t.id
  end;
  Server.relieve t.dev

(* --- The launch / recovery state machine --- *)

(* The shared launch step, gated by health where the single server gates
   by its breaker: Down and Quarantined replicas never launch; Probing
   replicas launch a single-request probe. *)
let rec maybe_launch (t : 'a t) =
  let d = t.dev in
  if
    (not d.Server.busy)
    && t.health <> Down && t.health <> Quarantined
    && not (Admission.is_empty d.Server.queue)
  then begin
    let now_us = Event_loop.now d.Server.loop in
    match t.health with
    | Down | Quarantined -> ()
    | Probing -> flush t ~now_us ~limit:1
    | Up -> (
      match
        Recovery.decide_launch d.Server.batcher d.Server.queue ~now_us
          ~cap:d.Server.cur_max_batch
      with
      | Batcher.Wait_until at ->
        Event_loop.schedule d.Server.loop ~at (fun () -> maybe_launch t)
      | Batcher.Flush limit -> flush t ~now_us ~limit)
  end

and flush (t : 'a t) ~now_us ~limit =
  let live, expired = Server.take t.dev ~now_us ~limit in
  if expired <> [] then t.cb.cb_lost ~replica:t.id Stats.Outcome.expired expired;
  (* Lazy hedge cancellation: copies whose winner already completed are
     dropped here, unexecuted — the cheap form of "cancel". *)
  let live, cancelled = List.partition t.cb.cb_live live in
  List.iter (fun r -> t.cb.cb_cancelled ~replica:t.id r) cancelled;
  match live with
  | [] -> maybe_launch t (* the queue may still hold work *)
  | batch ->
    t.dev.Server.busy <- true;
    t.outstanding <- batch;
    Recovery.resolve (Lazy.force t.recovery) batch ~k:(fun () ->
        t.dev.Server.busy <- false;
        t.outstanding <- [];
        maybe_launch t)

(* The replica's recovery policy: terminal outcomes go to the cluster
   through the callbacks, health counters replace the breaker, and crossing
   the failure (or reset) threshold fails over. Continuations are fenced by
   the failover epoch. *)
and recovery (t : 'a t) =
  let d = t.dev in
  Server.device_owner d
    ~epoch:(fun () -> t.epoch)
    ~deliver:(fun batch outcome ~now_us ~done_us ->
      t.busy_until_us <- done_us;
      let size = List.length batch in
      let deliveries =
        Server.deliver d batch outcome ~now_us ~done_us ~forced:t.quarantine_probing
          ~each:(fun _ _ -> ())
      in
      (* Report the completion at [done_us], not at launch: the cluster must
         consider these requests in flight until the device actually
         finishes, or a hedge could never outrun a straggling batch. *)
      fun () ->
        drop_outstanding t batch;
        (match d.Server.auditor with
        | None -> t.cb.cb_completed ~replica:t.id batch ~size ~start_us:now_us ~done_us
        | Some _ ->
          (* Audited requests deliver later by their audit latency; report
             per request so the cluster records true end-to-end times. *)
          List.iter
            (fun (r, (a : Server.audit_delivery)) ->
              t.cb.cb_completed ~replica:t.id [ r ] ~size ~start_us:now_us
                ~done_us:(done_us +. a.Server.ad_extra_us))
            deliveries);
        note_success t;
        (* Feed the verdicts to the corruption scoreboard only after the
           (audit-corrected) results left the replica: containment fences
           future work, never a delivery the audit saved. *)
        List.iter
          (fun (_, (a : Server.audit_delivery)) ->
            if a.Server.ad_audited then note_audit t ~clean:a.Server.ad_clean)
          deliveries)
    ~on_fault:(fun ~oom ~reset ~freed_us ->
      note_attempt t ~ok:false;
      d.Server.consecutive_failures <- d.Server.consecutive_failures + 1;
      if reset then t.consecutive_resets <- t.consecutive_resets + 1;
      if oom then Server.shrink_batches d;
      t.busy_until_us <- freed_us)
    ~escalate:(fun ~freed_us:_ ->
      let tol = d.Server.config.Server.tolerance in
      if
        t.health = Probing (* a failed probe downs the replica immediately *)
        || d.Server.consecutive_failures >= tol.Server.breaker_threshold
        || t.consecutive_resets >= t.reset_threshold
      then Some (fun () -> go_down t)
      else None)
    ~retry_shed:(fun batch ~freed_us:_ ->
      drop_outstanding t batch;
      fun () -> t.cb.cb_lost ~replica:t.id Stats.Outcome.retry_budget batch)
    ~poison:(fun r ->
      drop_outstanding t [ r ];
      t.cb.cb_lost ~replica:t.id Stats.Outcome.poisoned [ r ])

(* Failover and quarantine fence the replica alike: bump the epoch so the
   aborted resolution's continuations no-op, drain the queue, hand every
   unresolved request back through [requeue], and after the cooldown turn
   Probing ([probe_ready] runs first) if still in [health]. *)
and fence (t : 'a t) ~health ~requeue ~probe_ready =
  let d = t.dev in
  let now_us = Event_loop.now d.Server.loop in
  t.epoch <- t.epoch + 1;
  t.health <- health;
  d.Server.busy <- false;
  d.Server.consecutive_failures <- 0;
  t.consecutive_resets <- 0;
  let queued, expired = Admission.drain d.Server.queue ~now_us in
  if expired <> [] then t.cb.cb_lost ~replica:t.id Stats.Outcome.expired expired;
  let unresolved = t.outstanding @ queued in
  t.outstanding <- [];
  requeue ~replica:t.id unresolved;
  let at = now_us +. d.Server.config.Server.tolerance.Server.breaker_cooldown_us in
  Event_loop.schedule d.Server.loop ~at (fun () ->
      if t.health = health then begin
        t.health <- Probing;
        probe_ready (Event_loop.now d.Server.loop);
        t.cb.cb_probe_ready ~replica:t.id
      end)

(* Failover: the replica's threshold response to device faults. *)
and go_down (t : 'a t) =
  let stats = t.dev.Server.stats in
  Stats.incr stats Stats.breaker_opens;
  Stats.incr stats Stats.failovers;
  if Trace.enabled t.dev.Server.tracer then
    Trace.instant t.dev.Server.tracer ~name:"failover" ~cat:"cluster" ~pid:(trace_pid t)
      ~tid:0
      ~ts_us:(Event_loop.now t.dev.Server.loop)
      ~args:[ "replica", Json.Int t.id ];
  fence t ~health:Down ~requeue:t.cb.cb_down ~probe_ready:(fun ts_us ->
      Trace.instant t.dev.Server.tracer ~name:"probe_ready" ~cat:"cluster"
        ~pid:(trace_pid t) ~tid:0 ~ts_us)

(* --- Corruption containment --- *)

(* One audit verdict lands on the scoreboard. Crossing the mismatch
   threshold from Up quarantines; during quarantine probing, a mismatch
   re-quarantines immediately while consecutive clean verdicts re-admit. *)
and note_audit (t : 'a t) ~clean =
  t.corrupt_score <-
    ((1.0 -. corrupt_alpha) *. t.corrupt_score)
    +. (if clean then 0.0 else corrupt_alpha);
  match t.health with
  | Up when (not clean) && t.corrupt_score >= corrupt_threshold -> go_quarantine t
  | Probing when t.quarantine_probing ->
    if clean then begin
      t.clean_probes <- t.clean_probes + 1;
      if t.clean_probes >= quarantine_clean_probes then quarantine_restore t
    end
    else go_quarantine t
  | _ -> ()

(* Quarantine: fenced like a failover, but triggered by integrity evidence
   on a replica that is otherwise completing batches happily — and exited
   only through force-audited probes, not a merely-successful one. *)
and go_quarantine (t : 'a t) =
  t.quarantine_probing <- false;
  t.clean_probes <- 0;
  Stats.incr t.dev.Server.stats Stats.quarantines;
  if Trace.enabled t.dev.Server.tracer then
    Trace.instant t.dev.Server.tracer ~name:"quarantine" ~cat:"integrity"
      ~pid:(trace_pid t) ~tid:0
      ~ts_us:(Event_loop.now t.dev.Server.loop)
      ~args:[ "replica", Json.Int t.id; "score", Json.Float t.corrupt_score ];
  fence t ~health:Quarantined ~requeue:t.cb.cb_quarantined ~probe_ready:(fun ts_us ->
      t.quarantine_probing <- true;
      t.clean_probes <- 0;
      Trace.instant t.dev.Server.tracer ~name:"quarantine_probe_ready" ~cat:"integrity"
        ~pid:(trace_pid t) ~tid:0 ~ts_us)

and quarantine_restore (t : 'a t) =
  t.health <- Up;
  t.quarantine_probing <- false;
  t.clean_probes <- 0;
  t.corrupt_score <- 0.0;
  Stats.incr t.dev.Server.stats Stats.quarantine_restores;
  if Trace.enabled t.dev.Server.tracer then
    Trace.instant t.dev.Server.tracer ~name:"quarantine_restore" ~cat:"integrity"
      ~pid:(trace_pid t) ~tid:0
      ~ts_us:(Event_loop.now t.dev.Server.loop)
      ~args:[ "replica", Json.Int t.id ];
  t.cb.cb_up ~replica:t.id

let create ?(tracer = Trace.null) ?auditor ~id ~loop ~(config : Server.config)
    ~reset_threshold ~(execute : degraded:bool -> 'a list -> Server.exec_result)
    ~(cb : 'a callbacks) () : 'a t =
  let rec t =
    {
      id;
      dev = Server.create_device ~pid:(id + 1) ?auditor ~id ~loop ~tracer config ~execute;
      reset_threshold;
      cb;
      busy_until_us = 0.0;
      health = Up;
      consecutive_resets = 0;
      health_score = 1.0;
      corrupt_score = 0.0;
      quarantine_probing = false;
      clean_probes = 0;
      outstanding = [];
      epoch = 0;
      recovery = lazy (recovery t);
    }
  in
  t

(** How {!enqueue} disposed of an offered request; the cluster maps the two
    rejection flavours to distinct terminal outcomes. *)
type admit = Server.admit = Admitted | Shed_queue | Shed_limit

(** Credit this replica's retry budget for one fresh admitted request. The
    cluster calls it once per {e logical} request (not per copy), so hedge
    duplicates and failover requeues never inflate the budget and fleet-wide
    re-executions stay bounded by [frac * offered]. *)
let deposit_budget (t : 'a t) = Option.iter Budget.deposit t.dev.Server.budget

(** Offer a request to this replica's device ({!Server.offer}: limiter gate,
    bounded queue, degradation trigger); any requests the full-queue sweep
    expired are reported through [cb_lost]. Schedules the launch check as
    a same-time event so simultaneous dispatches coalesce into one batch. *)
let enqueue (t : 'a t) (r : 'a Admission.request) : admit =
  let d = t.dev in
  let now_us = Event_loop.now d.Server.loop in
  Batcher.observe_arrival d.Server.batcher ~now_us;
  let admit, swept = Server.offer d r ~now_us in
  if swept <> [] then t.cb.cb_lost ~replica:t.id Stats.Outcome.expired swept;
  if admit = Admitted then
    Event_loop.schedule d.Server.loop ~at:now_us (fun () -> maybe_launch t);
  admit
