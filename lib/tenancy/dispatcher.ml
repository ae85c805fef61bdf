(** The multi-tenant, model-aware dispatcher: the whole model catalog
    served from one elastic replica pool.

    Requests arrive on per-tenant streams and queue in per-tenant
    {!Acrobat_serve.Admission} queues behind an inflight-quota gate: a
    tenant at its quota sheds new arrivals before admission, so one
    misbehaving stream cannot occupy the cluster. Whenever a replica is
    free, the {!Fairshare} scheduler ranks backlogged tenants by weighted
    virtual work and the first tenant whose {!Acrobat_serve.Batcher} wants
    to launch gets the device; the batch is then topped up with requests
    from other tenants of the {e same model} (batches never mix models —
    the multi-model generalization of within-model cross-request
    batching), and every participating tenant is charged device time in
    proportion to its share of the batch.

    Replicas remember their resident model: a launch that changes it pays
    the {!Acrobat_device.Cost_model.model_swap_time} for the incoming
    model's parameter bytes before executing, so the schedule feels the
    real cost of interleaving many models on few devices.

    An {!Autoscaler} watches smoothed per-tenant queue delays and grows or
    drains the pool; scale-down marks the victim replica draining so its
    in-flight batch completes (conservation holds across scale events —
    the chaos campaign's invariant checker runs over exactly this layer).

    Faulty executors are driven to resolution by the shared
    {!Acrobat_serve.Recovery} loop (retry, budget shed, bisection), on
    per-replica jitter streams seeded by the same [ft_seed + id * 7919]
    convention; the dispatcher plugs in swap billing, per-tenant breakers,
    fair-share charging and hedge dedup as its policy. When the resilience
    layer of [t_server] is armed, each tenant additionally gets a
    retry-token {!Acrobat_resilience.Budget} (retries charged to the
    batch's lead tenant; a dry budget sheds the batch instead of
    amplifying load), an AIMD {!Acrobat_resilience.Limiter} gating
    admission ahead of its bounded queue, and a circuit breaker that opens
    after consecutive failed batches and sheds arrivals until a half-open
    trial succeeds. With [t_hedge_percentile] set, slow requests are
    duplicated into their tenant's queue after a percentile of recent
    completion latency ({!Acrobat_serve.Hedge}, the cluster's estimator);
    first completion wins and every duplicate is cancelled, wasted or
    silently dropped — never double-completed. A tenant's counters count
    its requests, never their copies.

    With an [auditor] installed ({!Acrobat_serve.Server.auditor}), each
    completed request is sampled for unbatched re-execution on the
    reference engine before delivery: a fingerprint mismatch delivers the
    reference result instead and feeds the serving replica's corruption
    score. A replica whose score crosses the threshold is {e quarantined}:
    drained like a scale-down victim and replaced like-for-like outside
    the autoscaler's envelope — the elastic pool replaces flaky devices
    rather than probing them back in (the fixed-pool {!Acrobat_serve.Replica}
    machine does the probing variant).

    Trace conventions match the cluster: the dispatcher is pid 0, replica
    [i] is pid [i + 1], request [id] rides tid [id + 1], and every admitted
    request ends in exactly one pid-0 terminal instant: [done] or one of
    {!Acrobat_serve.Stats.Outcome.all} (every outcome but [net_shed]). *)

module Rng = Acrobat_tensor.Rng
module Cost_model = Acrobat_device.Cost_model
module Admission = Acrobat_serve.Admission
module Batcher = Acrobat_serve.Batcher
module Server = Acrobat_serve.Server
module Stats = Acrobat_serve.Stats
module Clock = Acrobat_serve.Clock
module Event_loop = Acrobat_serve.Event_loop
module Traffic = Acrobat_serve.Traffic
module Trace = Acrobat_obs.Trace
module Json = Acrobat_obs.Json
module Hedge = Acrobat_serve.Hedge
module Replica = Acrobat_serve.Replica
module Recovery = Acrobat_serve.Recovery
module Resilience = Acrobat_resilience.Policy
module Budget = Acrobat_resilience.Budget
module Limiter = Acrobat_resilience.Limiter
module Net = Acrobat_net.Net

type config = {
  t_server : Server.config;
      (** Per-tenant queue capacity, batch policy, batcher cost seed,
          fault-tolerance knobs and resilience layer: each tenant gets its
          own retry budget, admission limiter and circuit breaker from
          [resilience] ({!Resilience.off} leaves every legacy path
          untouched; brownout does not apply). [deadline_us] is ignored:
          each tenant's SLO is its deadline. *)
  t_autoscale : Autoscaler.config;
  t_swap_cost : Cost_model.t;  (** Sizes the resident-model swap penalty. *)
  t_hedge_percentile : float option;
      (** Duplicate a still-unresolved request after this percentile of
          recent completion latency; [None] disables hedging. *)
  t_net : Net.plan option;
      (** Network fault plan; only the partition window applies here. The
          elastic dispatcher models a partitioned replica as scheduler-
          invisible unavailability (no per-message transport, zero RNG
          draws), so a partitioned device is indistinguishable from a dead
          one until the cut heals and a scheduled pass re-admits it. The
          per-message lossy transport lives in {!Acrobat_serve.Cluster}. *)
}

let default_config =
  {
    t_server = Server.default_config;
    t_autoscale = Autoscaler.fixed 1;
    t_swap_cost = Cost_model.default;
    t_hedge_percentile = None;
    t_net = None;
  }

(* --- Replica pool --- *)

type rstate =
  | Active  (** Taking new batches (possibly still warming up). *)
  | Draining  (** Scale-down victim: finishes its batch, takes no more. *)
  | Retired  (** Gone; kept in the array so ids stay stable. *)

type replica = {
  rp_id : int;
  mutable rp_state : rstate;
  mutable rp_busy : bool;
  mutable rp_ready_us : float;  (** Cold-start warmup end; 0 for initial pool. *)
  mutable rp_resident : string option;  (** Model whose weights are loaded. *)
  mutable rp_swaps : int;
  mutable rp_batches : int;
  mutable rp_busy_us : float;  (** Total device-occupied time (incl. swaps). *)
  mutable rp_epoch : int;  (** Fences continuations across retirement. *)
  rp_rng : Rng.t;  (** Retry-backoff jitter; drawn only on failures. *)
  rp_audit_rng : Rng.t;  (** Audit sampling; drawn only when an auditor is armed. *)
  mutable rp_corrupt_score : float;  (** EWMA over audit verdicts (1 = dirty). *)
  mutable rp_net_cut : bool;
      (** Inside the net plan's partition window (edge-tracked so link-down
          and heal are counted once per window). Always false without a plan. *)
}

let rp_pid rp = rp.rp_id + 1

(* --- Per-tenant serving state --- *)

type 'a tstate = {
  ts_tenant : Tenant.t;
  ts_queue : 'a Admission.t;
  ts_batcher : Batcher.t;
  ts_stats : Stats.t;
  mutable ts_inflight : int;  (** Admitted and not yet terminal. *)
  mutable ts_peak_inflight : int;
  mutable ts_delay_ewma_us : float;  (** Smoothed queue delay (scaler signal). *)
  ts_budget : Budget.t option;  (** Retry tokens; refilled by fresh admits. *)
  ts_limiter : Limiter.t option;  (** AIMD admission gate on queue delay. *)
  mutable ts_breaker : Server.breaker_state;
      (** Resilience layer only: opens after consecutive failed batches
          attributed to the tenant as lead, sheds arrivals during the
          cooldown, then admits a half-open trial. *)
  mutable ts_consec_failures : int;  (** Failed batches led since last success. *)
}

type 'a state = {
  cfg : config;
  loop : Event_loop.t;
  tenants : 'a tstate array;
  fair : Fairshare.t;
  scaler : Autoscaler.t;
  mutable replicas : replica array;
  stats : Stats.t;  (** Aggregate across tenants, in event order. *)
  execute : int -> model:string -> 'a list -> Server.exec_result;
  auditor : 'a Server.auditor option;
      (** Sampled unbatched re-execution gate ahead of delivery; [None]
          leaves every legacy path untouched. *)
  model_bytes : string -> int;
  pmax : int;  (** The policy's batch-size cap. *)
  mutable scale_events : (float * string * int) list;  (** Reversed. *)
  mutable peak_replicas : int;
  tracer : Trace.t;
  mutable ledger : 'a Admission.request Hedge.copies array;
      (** Indexed by global request id; filled once during [simulate]. The
          hedge copy is named by its own request record, so a win is the
          completion of that physical copy. *)
  window : Hedge.window;  (** Recent winning latencies. *)
}

let now_us st = Event_loop.now st.loop

let active_replicas st =
  Array.fold_left (fun n rp -> if rp.rp_state = Active then n + 1 else n) 0 st.replicas

(* Request-terminal instant on the dispatcher track; every admitted id ends
   in exactly one (quota sheds terminate at the door the same way). *)
let trace_terminal st (ts : 'a tstate) ~name ~ts_us (r : 'a Admission.request) =
  Trace.instant st.tracer ~name ~cat:"request" ~pid:0
    ~tid:(Server.req_tid r.Admission.rq_id) ~ts_us
    ~args:
      (Trace.tag ~tenant:ts.ts_tenant.Tenant.tn_name ~model:ts.ts_tenant.Tenant.tn_model
         [ "id", Json.Int r.Admission.rq_id ])

(* A request ended in outcome [o]: counted on the aggregate and on its
   tenant, then traced. *)
let count_terminal st (ts : 'a tstate) (o : Stats.Outcome.t) ~ts_us r =
  Stats.incr st.stats o.Stats.Outcome.counter;
  Stats.incr ts.ts_stats o.Stats.Outcome.counter;
  trace_terminal st ts ~name:o.Stats.Outcome.name ~ts_us r

(* --- Hedge copy accounting ---

   With hedging off every request stays a single copy: a loss is always
   terminal, the first completion always wins, and no hedge counter moves. *)

(* A copy of [r] left without completing (expired, retry-budget shed,
   poisoned, end-of-run drain). When that is the request's terminal outcome,
   it ends in [o]; a leftover copy of a resolved request counts as a
   cancel. *)
let drop_copy st (ts : 'a tstate) o ~ts_us (r : 'a Admission.request) =
  match Hedge.lose st.ledger.(r.Admission.rq_id) with
  | Hedge.Live -> ()
  | Hedge.Resolved -> Stats.incr st.stats Stats.hedge_cancels
  | Hedge.Terminal ->
    ts.ts_inflight <- ts.ts_inflight - 1;
    count_terminal st ts o ~ts_us r

(* Queued requests left without executing (swept or popped past deadline). *)
let drop_expired st (ts : 'a tstate) ~ts_us dropped =
  List.iter (drop_copy st ts Stats.Outcome.expired ~ts_us) dropped

(* Stale hedge duplicates whose winner already completed leave the queue
   unexecuted, counted as cancels. *)
let drop_cancelled st (live : 'a Admission.request list) =
  List.filter
    (fun (r : 'a Admission.request) ->
      let c = st.ledger.(r.Admission.rq_id) in
      if c.Hedge.resolved then begin
        ignore (Hedge.lose c);
        Stats.incr st.stats Stats.hedge_cancels;
        false
      end
      else true)
    live

(* --- Launch path --- *)

(* Partition-aware reachability. With a net plan armed, a replica inside
   the plan's partition window is skipped by the scheduler exactly as a
   dead device would be; the launch pass at the heal instant (scheduled in
   [simulate]) re-admits it. Edge transitions feed the net counters so a
   window costs exactly one link-down and one heal per cut replica. No RNG
   is drawn, so a plan without a partition clause leaves every schedule
   byte-identical. *)
let net_reachable st rp ~now =
  match st.cfg.t_net with
  | None -> true
  | Some plan ->
    let n = Array.length st.replicas in
    let cut = Net.partitioned plan ~replica:rp.rp_id ~n ~now_us:now in
    if cut && not rp.rp_net_cut then begin
      rp.rp_net_cut <- true;
      Stats.incr st.stats Stats.net_link_downs;
      Trace.instant st.tracer ~name:"net_link_down" ~cat:"net" ~pid:(rp_pid rp)
        ~tid:0 ~ts_us:now
        ~args:[ "replica", Json.Int rp.rp_id ]
    end
    else if (not cut) && rp.rp_net_cut then begin
      rp.rp_net_cut <- false;
      Stats.incr st.stats Stats.net_heals;
      Trace.instant st.tracer ~name:"net_heal" ~cat:"net" ~pid:(rp_pid rp) ~tid:0
        ~ts_us:now
        ~args:[ "replica", Json.Int rp.rp_id ]
    end;
    not cut

let new_replica st ~ready_us =
  let id = Array.length st.replicas in
  let rp =
    {
      rp_id = id;
      rp_state = Active;
      rp_busy = false;
      rp_ready_us = ready_us;
      rp_resident = None;
      rp_swaps = 0;
      rp_batches = 0;
      rp_busy_us = 0.0;
      rp_epoch = 0;
      rp_rng = Rng.create (st.cfg.t_server.Server.tolerance.Server.ft_seed + (id * 7919));
      rp_audit_rng =
        Rng.create
          (match st.auditor with
          | Some a -> a.Server.au_seed + (id * 104729)
          | None -> 0);
      rp_corrupt_score = 0.0;
      rp_net_cut = false;
    }
  in
  st.replicas <- Array.append st.replicas [| rp |];
  if Trace.enabled st.tracer then
    Trace.name_process st.tracer ~pid:(rp_pid rp) ~name:(Fmt.str "replica-%d" id);
  rp

let retire st rp =
  rp.rp_state <- Retired;
  rp.rp_epoch <- rp.rp_epoch + 1;
  Trace.instant st.tracer ~name:"retire" ~cat:"tenancy" ~pid:0 ~tid:0 ~ts_us:(now_us st)
    ~args:[ "replica", Json.Int rp.rp_id ]

(* Pull up to [room] same-model requests from other backlogged tenants, in
   fair-share order, so a launch tops its batch up across tenants. *)
let fill_batch st ~lead ~model ~room ~now =
  if room <= 0 then []
  else begin
    let order =
      Fairshare.ranked st.fair ~eligible:(fun i ->
          i <> lead
          && st.tenants.(i).ts_tenant.Tenant.tn_model = model
          && not (Admission.is_empty st.tenants.(i).ts_queue))
    in
    let room = ref room in
    List.filter_map
      (fun ti ->
        if !room <= 0 then None
        else begin
          let ts = st.tenants.(ti) in
          let live, dropped =
            Admission.take_with_expired ts.ts_queue ~now_us:now ~limit:!room
          in
          drop_expired st ts ~ts_us:now dropped;
          let live = drop_cancelled st live in
          if live = [] then None
          else begin
            room := !room - List.length live;
            Some (ti, live)
          end
        end)
      order
  end

(* A success on [rp]: the lead tenant's breaker closes, every participating
   tenant is charged its share of the device time, hedge duplicates are
   deduplicated, and each fresh request passes the audit gate before
   delivery. Returns what runs at [done_us]: the inflight releases. *)
let rec deliver st rp ~lead ~model (batch : (int * 'a Admission.request) list)
    (outcome : Server.exec_outcome) ~now_us:now ~done_us =
  let size = List.length batch in
  let lead_ts = st.tenants.(lead) in
  if Resilience.active st.cfg.t_server.Server.resilience then begin
    lead_ts.ts_consec_failures <- 0;
    if lead_ts.ts_breaker = Server.Half_open then lead_ts.ts_breaker <- Server.Closed
  end;
  Batcher.observe_batch lead_ts.ts_batcher ~size ~latency_us:outcome.Server.ex_latency_us;
  Stats.note_batch st.stats ~size ~profiler:outcome.Server.ex_profiler;
  Stats.note_batch lead_ts.ts_stats ~size ~profiler:None;
  if outcome.Server.ex_corrupted then begin
    Stats.incr st.stats Stats.corrupted_batches;
    Stats.incr lead_ts.ts_stats Stats.corrupted_batches
  end;
  rp.rp_batches <- rp.rp_batches + 1;
  Trace.complete st.tracer ~name:"batch" ~cat:"serve" ~pid:(rp_pid rp) ~tid:0 ~ts_us:now
    ~dur_us:outcome.Server.ex_latency_us
    ~args:
      (Trace.tag ~tenant:lead_ts.ts_tenant.Tenant.tn_name ~model
         [ "size", Json.Int size; "replica", Json.Int rp.rp_id ]);
  (* Charge each participating tenant its share of the device time (the
     lead's swap was billed at launch). *)
  let busy = Float.max 0.0 outcome.Server.ex_latency_us in
  let counts = Array.make (Array.length st.tenants) 0 in
  List.iter (fun (ti, _) -> counts.(ti) <- counts.(ti) + 1) batch;
  Array.iteri
    (fun ti c ->
      if c > 0 then
        Fairshare.charge st.fair ti ~work:(busy *. float_of_int c /. float_of_int size))
    counts;
  (* Hedge dedup: only the first completing copy of a request is a
     completion; the rest are wasted work. With hedging off [fresh] is the
     whole batch. Each survivor keeps its batch position so the audit gate
     can look up its fingerprint. *)
  let _, fresh_rev =
    List.fold_left
      (fun (bi, acc) ((ti, r) : int * 'a Admission.request) ->
        let c = st.ledger.(r.Admission.rq_id) in
        let keep = Hedge.complete c in
        if keep then begin
          Hedge.observe st.window (done_us -. r.Admission.rq_arrival_us);
          match c.Hedge.hedge with
          | Some hc when hc == r -> Stats.incr st.stats Stats.hedge_wins
          | _ -> ()
        end
        else Stats.incr st.stats Stats.hedge_wasted;
        bi + 1, if keep then (bi, ti, r) :: acc else acc)
      (0, []) batch
  in
  let fresh = List.rev fresh_rev in
  List.iter
    (fun ((bi, ti, r) : int * int * 'a Admission.request) ->
      let ts = st.tenants.(ti) in
      (* Sampled audit gate ahead of delivery; a mismatch delivers the
         reference result (the request is saved) and feeds the serving
         replica's corruption score. *)
      let d =
        Server.audit_request st.auditor ~audit_rng:rp.rp_audit_rng ~stats:st.stats
          ~forced:false ~outcome ~index:bi r
      in
      if d.Server.ad_audited then begin
        Stats.incr ts.ts_stats Stats.audits;
        if not d.Server.ad_clean then
          Stats.incr ts.ts_stats Stats.audit_mismatches;
        Trace.instant st.tracer
          ~name:(if d.Server.ad_clean then "audit_ok" else "audit_mismatch")
          ~cat:"integrity" ~pid:0 ~tid:(Server.req_tid r.Admission.rq_id) ~ts_us:done_us
          ~args:[ "replica", Json.Int rp.rp_id ];
        rp.rp_corrupt_score <-
          ((1.0 -. Replica.corrupt_alpha) *. rp.rp_corrupt_score)
          +. (if d.Server.ad_clean then 0.0 else Replica.corrupt_alpha);
        if
          (not d.Server.ad_clean)
          && rp.rp_corrupt_score >= Replica.corrupt_threshold
          && rp.rp_state = Active
        then quarantine st rp ~ts_us:done_us
      end;
      Server.note_delivery st.stats ~outcome d;
      Server.note_delivery ts.ts_stats ~outcome d;
      let r_done_us = done_us +. d.Server.ad_extra_us in
      Stats.record_fields st.stats ~id:r.Admission.rq_id ~arrival_us:r.Admission.rq_arrival_us
        ~start_us:now ~done_us:r_done_us ~batch_size:size;
      Stats.record_fields ts.ts_stats ~id:r.Admission.rq_id
        ~arrival_us:r.Admission.rq_arrival_us ~start_us:now ~done_us:r_done_us
        ~batch_size:size;
      (match r.Admission.rq_deadline_us with
      | Some d when r_done_us > d -> ()
      | Some _ | None ->
        Stats.incr st.stats Stats.slo_ok;
        Stats.incr ts.ts_stats Stats.slo_ok);
      Trace.complete st.tracer ~name:"queue" ~cat:"request" ~pid:0
        ~tid:(Server.req_tid r.Admission.rq_id) ~ts_us:r.Admission.rq_arrival_us
        ~dur_us:(now -. r.Admission.rq_arrival_us);
      trace_terminal st ts ~name:"done" ~ts_us:r_done_us r)
    fresh;
  fun () ->
    List.iter
      (fun ((_, ti, _) : int * int * 'a Admission.request) ->
        st.tenants.(ti).ts_inflight <- st.tenants.(ti).ts_inflight - 1)
      fresh

(* The lead tenant owns a failed attempt: its breaker counts the failure,
   and a half-open trial that fails reopens at once. Runs after the fault
   is traced; never abandons the resolution. *)
and escalate st rp ~lead ~model ~freed_us =
  let lead_ts = st.tenants.(lead) in
  let tol = st.cfg.t_server.Server.tolerance in
  if Resilience.active st.cfg.t_server.Server.resilience then begin
    lead_ts.ts_consec_failures <- lead_ts.ts_consec_failures + 1;
    if
      lead_ts.ts_breaker = Server.Half_open
      || lead_ts.ts_consec_failures >= tol.Server.breaker_threshold
    then begin
      lead_ts.ts_breaker <-
        Server.Open { until_us = freed_us +. tol.Server.breaker_cooldown_us };
      lead_ts.ts_consec_failures <- 0;
      Stats.incr st.stats Stats.breaker_opens;
      Stats.incr lead_ts.ts_stats Stats.breaker_opens;
      Trace.instant st.tracer ~name:"breaker_open" ~cat:"resilience" ~pid:0 ~tid:0
        ~ts_us:freed_us
        ~args:
          (Trace.tag ~tenant:lead_ts.ts_tenant.Tenant.tn_name ~model
             [ "replica", Json.Int rp.rp_id ])
    end
  end;
  None

(* The lead tenant's retry budget ran dry: retrying would amplify load the
   pool already cannot absorb, so each copy's tenant sheds it. *)
and retry_shed st batch ~freed_us =
  List.iter
    (fun (ti, r) ->
      let ts = st.tenants.(ti) in
      drop_copy st ts Stats.Outcome.retry_budget ~ts_us:freed_us r)
    batch;
  ignore

and poison st (ti, r) =
  let ts = st.tenants.(ti) in
  drop_copy st ts Stats.Outcome.poisoned ~ts_us:(now_us st) r

(* Put one free replica to work: offer it to backlogged tenants in
   fair-share order; the first whose batcher wants to flush launches. A
   tenant that prefers to wait is skipped (work conservation) but remembered
   as the earliest wake-up if nobody launches. *)
and try_launch st rp =
  let now = now_us st in
  let wake = ref infinity in
  let order =
    Fairshare.ranked st.fair ~eligible:(fun i ->
        not (Admission.is_empty st.tenants.(i).ts_queue))
  in
  let rec go = function
    | [] ->
      if !wake < infinity then
        Event_loop.schedule st.loop ~at:!wake (fun () -> pass st)
    | ti :: rest -> (
      let ts = st.tenants.(ti) in
      match Recovery.decide_launch ts.ts_batcher ts.ts_queue ~now_us:now ~cap:st.pmax with
      | Batcher.Wait_until at ->
        if at < !wake then wake := at;
        go rest
      | Batcher.Flush limit -> if not (flush st rp ti ~now ~limit) then try_launch st rp)
  in
  go order

(* Assemble and launch one batch for [rp], led by tenant [ti]. Returns false
   when everything popped had already expired (the caller re-scans). *)
and flush st rp ti ~now ~limit =
  let ts = st.tenants.(ti) in
  (* Feed the tenant's queue-delay signal into its AIMD admission limiter
     at each launch attempt (a device's own limiter is fed the same way by
     [Server.observe_pressure]). *)
  Option.iter
    (fun lim ->
      Limiter.observe lim ~delay_us:(Admission.queue_delay_us ts.ts_queue ~now_us:now))
    ts.ts_limiter;
  let live, dropped = Admission.take_with_expired ts.ts_queue ~now_us:now ~limit in
  drop_expired st ts ~ts_us:now dropped;
  match drop_cancelled st live with
  | [] -> false
  | live ->
    Fairshare.serve st.fair ti;
    let model = ts.ts_tenant.Tenant.tn_model in
    let fills = fill_batch st ~lead:ti ~model ~room:(st.pmax - List.length live) ~now in
    let batch =
      List.concat_map (fun (tj, rs) -> List.map (fun r -> tj, r) rs) ((ti, live) :: fills)
    in
    rp.rp_busy <- true;
    let launch_us = now in
    let swap_us =
      if rp.rp_resident = Some model then 0.0
      else begin
        let param_bytes = st.model_bytes model in
        let d = Cost_model.model_swap_time st.cfg.t_swap_cost ~param_bytes in
        rp.rp_resident <- Some model;
        rp.rp_swaps <- rp.rp_swaps + 1;
        Stats.incr st.stats Stats.swaps;
        Stats.incr ts.ts_stats Stats.swaps;
        if d > 0.0 then
          Trace.complete st.tracer ~name:"swap" ~cat:"tenancy" ~pid:(rp_pid rp) ~tid:0
            ~ts_us:now ~dur_us:d
            ~args:
              (Trace.tag ~tenant:ts.ts_tenant.Tenant.tn_name ~model
                 [ "param_bytes", Json.Int param_bytes ]);
        (* The swap is the lead tenant's doing: bill it now, while the
           batch's own time is billed per share at completion. *)
        Fairshare.charge st.fair ti ~work:d;
        d
      end
    in
    (* The batch resolves through the shared loop on [rp]'s jitter stream,
       charged to the lead tenant's retry budget and counters; bisection
       halves keep their owners, so per-tenant accounting survives fault
       isolation. The dispatcher ignores OOM and reset flags: its replicas
       have no batch-size cap or health monitor of their own. *)
    let owner =
      {
        Recovery.loop = st.loop;
        tracer = st.tracer;
        pid = Some (rp_pid rp);
        tol = st.cfg.t_server.Server.tolerance;
        rng = rp.rp_rng;
        budget = ts.ts_budget;
        counters = [ st.stats; ts.ts_stats ];
        epoch = (fun () -> rp.rp_epoch);
        payload = (fun ((_, r) : int * 'a Admission.request) -> r.Admission.rq_payload);
        execute = st.execute rp.rp_id ~model;
        deliver = deliver st rp ~lead:ti ~model;
        on_fault = (fun ~oom:_ ~reset:_ ~freed_us:_ -> ());
        escalate = escalate st rp ~lead:ti ~model;
        retry_shed = retry_shed st;
        poison = poison st;
      }
    in
    let resolve () =
      Recovery.resolve owner batch ~k:(fun () ->
          rp.rp_busy <- false;
          rp.rp_busy_us <- rp.rp_busy_us +. (now_us st -. launch_us);
          if rp.rp_state = Draining then retire st rp;
          pass st)
    in
    (* Load the incoming model's weights before executing; the device is
       occupied for the duration, then the first attempt starts. *)
    if swap_us > 0.0 then Event_loop.schedule st.loop ~at:(now +. swap_us) resolve
    else resolve ();
    true

(* Offer every free, warmed-up, active, reachable replica to the tenants. *)
and pass st =
  Array.iter
    (fun rp ->
      if
        rp.rp_state = Active && (not rp.rp_busy)
        && now_us st >= rp.rp_ready_us
        && net_reachable st rp ~now:(now_us st)
      then try_launch st rp)
    st.replicas

(* Audit-driven containment: a replica whose corruption score crosses the
   threshold drains like a scale-down victim — its in-flight batch has
   already delivered through the audit gate, so nothing is requeued — and
   is replaced like-for-like (cold-start warmup, outside the autoscaler's
   min/max envelope) so the pool keeps its capacity while the flaky device
   leaves the rotation. The elastic pool replaces rather than probes;
   probe-based re-admission is the fixed-pool {!Replica} machine's job. *)
and quarantine st rp ~ts_us =
  rp.rp_state <- Draining;
  Stats.incr st.stats Stats.quarantines;
  Trace.instant st.tracer ~name:"quarantine" ~cat:"integrity" ~pid:(rp_pid rp) ~tid:0
    ~ts_us
    ~args:[ "replica", Json.Int rp.rp_id; "score", Json.Float rp.rp_corrupt_score ];
  grow st ~ts_us ~event:"quarantine_replace" ~cat:"integrity"

(* Add a replica that warms up from [ts_us], record the pool change as
   [event] and wake the replica the moment it is usable. *)
and grow st ~ts_us ~event ~cat =
  let rp = new_replica st ~ready_us:(ts_us +. st.cfg.t_autoscale.Autoscaler.as_warmup_us) in
  let active = active_replicas st in
  if active > st.peak_replicas then st.peak_replicas <- active;
  st.scale_events <- (ts_us, event, active) :: st.scale_events;
  Trace.instant st.tracer ~name:event ~cat ~pid:0 ~tid:0 ~ts_us
    ~args:[ "replica", Json.Int rp.rp_id; "ready_us", Json.Float rp.rp_ready_us ];
  Event_loop.schedule st.loop ~at:rp.rp_ready_us (fun () -> pass st)

(* --- Hedging --- *)

(* Duplicate a still-unresolved request back into its tenant's queue; the
   first completion wins, the loser is cancelled (still queued) or counted
   wasted (already executing). Only ever scheduled when hedging is armed. *)
let maybe_hedge st (ts : 'a tstate) (r : 'a Admission.request) =
  let c = st.ledger.(r.Admission.rq_id) in
  if (not c.Hedge.resolved) && Option.is_none c.Hedge.hedge then begin
    let now = now_us st in
    let copy = { r with Admission.rq_id = r.Admission.rq_id } in
    Hedge.add_hedge c copy;
    Stats.incr st.stats Stats.hedges;
    Trace.instant st.tracer ~name:"hedge" ~cat:"tenancy" ~pid:0
      ~tid:(Server.req_tid r.Admission.rq_id) ~ts_us:now
      ~args:
        (Trace.tag ~tenant:ts.ts_tenant.Tenant.tn_name
           ~model:ts.ts_tenant.Tenant.tn_model
           [ "id", Json.Int r.Admission.rq_id ]);
    let admitted, swept = Admission.offer_swept ts.ts_queue ~now_us:now copy in
    drop_expired st ts ~ts_us:now swept;
    if admitted then Event_loop.schedule st.loop ~at:now (fun () -> pass st)
    else
      (* Queue full: the duplicate is lost; the primary copy stands alone,
         so this never terminates the request. *)
      ignore (Hedge.lose c)
  end

(* --- Admission --- *)

let on_arrival st (ts : 'a tstate) (r : 'a Admission.request) =
  let now = now_us st in
  Batcher.observe_arrival ts.ts_batcher ~now_us:now;
  Trace.instant st.tracer ~name:"admit" ~cat:"request" ~pid:0
    ~tid:(Server.req_tid r.Admission.rq_id) ~ts_us:now
    ~args:
      (Trace.tag ~tenant:ts.ts_tenant.Tenant.tn_name ~model:ts.ts_tenant.Tenant.tn_model
         [ "id", Json.Int r.Admission.rq_id ]);
  let breaker_open =
    match ts.ts_breaker with
    | Server.Open { until_us } when now < until_us -> true
    | Server.Open _ ->
      (* Cooldown elapsed: admit one half-open trial batch. *)
      ts.ts_breaker <- Server.Half_open;
      false
    | Server.Closed | Server.Half_open -> false
  in
  (* The configured quota is per replica: an autoscaled pool admits
     proportionally more in-flight work, so quotas never become the binding
     constraint after a scale-up. *)
  let quota = ts.ts_tenant.Tenant.tn_quota * max 1 (active_replicas st) in
  if breaker_open then
    count_terminal st ts Stats.Outcome.shed_breaker ~ts_us:now r
  else if ts.ts_inflight >= quota then
    (* Over quota: refuse before admission so the queue (and the cluster
       behind it) never sees the excess. *)
    count_terminal st ts Stats.Outcome.shed_quota ~ts_us:now r
  else begin
    match ts.ts_limiter with
    | Some lim when not (Limiter.admits lim ~queued:(Admission.length ts.ts_queue)) ->
      (* The tenant's adaptive concurrency limiter gates ahead of its
         bounded queue (the gate {!Server.offer} applies per device). *)
      count_terminal st ts Stats.Outcome.shed_limit ~ts_us:now r
    | _ ->
      let admitted, swept = Admission.offer_swept ts.ts_queue ~now_us:now r in
      drop_expired st ts ~ts_us:now swept;
      if not admitted then count_terminal st ts Stats.Outcome.shed ~ts_us:now r
      else begin
        Option.iter Budget.deposit ts.ts_budget;
        ts.ts_inflight <- ts.ts_inflight + 1;
        if ts.ts_inflight > ts.ts_peak_inflight then
          ts.ts_peak_inflight <- ts.ts_inflight;
        (match Hedge.due st.window ~percentile:st.cfg.t_hedge_percentile ~arrival_us:now with
        | Some at -> Event_loop.schedule st.loop ~at (fun () -> maybe_hedge st ts r)
        | None -> ());
        (* Same-time launch check, so simultaneous arrivals coalesce into one
           batch (ties dispatch in scheduling order). *)
        Event_loop.schedule st.loop ~at:now (fun () -> pass st)
      end
  end

(* --- Autoscaler control loop --- *)

let scale_up st =
  let now = now_us st in
  Autoscaler.note_scaled st.scaler ~now_us:now ~decision:Autoscaler.Scale_up;
  grow st ~ts_us:now ~event:"scale_up" ~cat:"tenancy"

let scale_down st =
  (* Highest-index active replica drains: ids stay dense at the bottom, so
     repeated up/down cycles reuse low pids. *)
  let victim = ref None in
  Array.iter (fun rp -> if rp.rp_state = Active then victim := Some rp) st.replicas;
  match !victim with
  | None -> ()
  | Some rp ->
    rp.rp_state <- Draining;
    Autoscaler.note_scaled st.scaler ~now_us:(now_us st)
      ~decision:Autoscaler.Scale_down;
    st.scale_events <- (now_us st, "scale_down", active_replicas st) :: st.scale_events;
    Trace.instant st.tracer ~name:"scale_down" ~cat:"tenancy" ~pid:0 ~tid:0
      ~ts_us:(now_us st)
      ~args:[ "replica", Json.Int rp.rp_id ];
    if not rp.rp_busy then retire st rp

let rec tick st () =
  let now = now_us st in
  let max_delay = ref 0.0 in
  Array.iter
    (fun ts ->
      let age = Admission.queue_delay_us ts.ts_queue ~now_us:now in
      ts.ts_delay_ewma_us <- (0.5 *. ts.ts_delay_ewma_us) +. (0.5 *. age);
      if ts.ts_delay_ewma_us > !max_delay then max_delay := ts.ts_delay_ewma_us)
    st.tenants;
  (match
     Autoscaler.decide st.scaler ~now_us:now ~replicas:(active_replicas st)
       ~max_queue_delay_us:!max_delay
   with
  | Autoscaler.Hold -> ()
  | Autoscaler.Scale_up -> scale_up st
  | Autoscaler.Scale_down -> scale_down st);
  (* The control loop rides the event queue as a daemon and stops
     rescheduling once no work is pending, so the simulation drains. *)
  if Event_loop.pending_work st.loop > 0 then
    Event_loop.schedule_daemon st.loop ~delay:st.cfg.t_autoscale.Autoscaler.as_interval_us
      (tick st)

(* --- Reports --- *)

type tenant_view = {
  tv_tenant : Tenant.t;
  tv_stats : Stats.t;
  tv_peak_inflight : int;
}

type report = {
  tn_stats : Stats.t;  (** Aggregate across tenants, event-ordered. *)
  tn_tenants : tenant_view list;
  tn_scale_events : (float * string * int) list;
      (** (virtual time, "scale_up"/"scale_down", active replicas after). *)
  tn_peak_replicas : int;
  tn_final_replicas : int;
  tn_swaps : int;
  tn_busy_us : float;  (** Summed device-occupied time across replicas. *)
}

(** Device utilization over the run: busy time across the pool divided by
    peak-pool capacity (a conservative denominator — retired replicas still
    count until the end). *)
let utilization (r : report) =
  let span = r.tn_stats.Stats.end_us in
  if span <= 0.0 || r.tn_peak_replicas = 0 then 0.0
  else r.tn_busy_us /. (span *. float_of_int r.tn_peak_replicas)

(** Run the multi-tenant simulation to completion.

    [tenants] is the registry; each tenant's arrival stream is drawn from
    its own traffic process with its own seed (or taken verbatim from
    [arrivals] when given — one monotone array per tenant). [payload]
    builds request payloads from (tenant index, per-tenant request index,
    global request id); [execute] runs one single-model batch on a replica;
    [model_bytes] sizes each model's parameters for the swap penalty.

    Global request ids number the merged arrival stream in (time, tenant)
    order, so traces, chaos invariants and payload poison lists all speak
    the same id space. [snapshot_every_us] turns on periodic snapshots of
    the aggregate counters, as in {!Acrobat_serve.Server.simulate}. *)
let simulate ?(tracer = Trace.null) ?snapshot_every_us ?arrivals ?auditor (cfg : config)
    ~(tenants : Tenant.t array)
    ~(payload : tenant:int -> index:int -> id:int -> 'a)
    ~(execute : int -> model:string -> 'a list -> Server.exec_result)
    ~(model_bytes : string -> int) : report =
  if Array.length tenants = 0 then Fmt.invalid_arg "Dispatcher.simulate: no tenants";
  Array.iter (fun t -> ignore (Tenant.validate t)) tenants;
  let loop = Event_loop.create (Clock.create ()) in
  let st =
    {
      cfg;
      loop;
      tenants =
        Array.map
          (fun t ->
            let rs = cfg.t_server.Server.resilience in
            {
              ts_tenant = t;
              ts_queue =
                Admission.create
                  ~eager_sweep:(Resilience.active rs)
                  ~capacity:cfg.t_server.Server.queue_capacity ();
              ts_batcher = Batcher.create ~cost:cfg.t_server.Server.cost cfg.t_server.Server.policy;
              ts_stats = Stats.create ();
              ts_inflight = 0;
              ts_peak_inflight = 0;
              ts_delay_ewma_us = 0.0;
              ts_budget =
                Option.map (fun frac -> Budget.create ~frac) rs.Resilience.rs_retry_budget;
              ts_limiter =
                Option.map
                  (fun target_us -> Limiter.create ~target_us ())
                  rs.Resilience.rs_target_delay_us;
              ts_breaker = Server.Closed;
              ts_consec_failures = 0;
            })
          tenants;
      fair = Fairshare.create ~weights:(Array.map (fun t -> t.Tenant.tn_weight) tenants);
      scaler = Autoscaler.create cfg.t_autoscale;
      replicas = [||];
      stats = Stats.create ();
      execute;
      auditor;
      model_bytes;
      pmax = Server.policy_max_batch cfg.t_server.Server.policy;
      scale_events = [];
      peak_replicas = 0;
      tracer;
      ledger = [||];
      window = Hedge.window ();
    }
  in
  if Trace.enabled tracer then begin
    Trace.name_process tracer ~pid:0 ~name:"dispatcher";
    Trace.name_thread tracer ~pid:0 ~tid:0 ~name:"control"
  end;
  for _ = 1 to cfg.t_autoscale.Autoscaler.as_min do
    ignore (new_replica st ~ready_us:0.0)
  done;
  st.peak_replicas <- active_replicas st;
  (* Merge the per-tenant arrival streams into one globally-ordered,
     globally-numbered schedule. *)
  let streams =
    match arrivals with
    | Some a ->
      if Array.length a <> Array.length tenants then
        Fmt.invalid_arg "Dispatcher.simulate: %d arrival streams for %d tenants"
          (Array.length a) (Array.length tenants);
      a
    | None ->
      Array.map
        (fun t ->
          let rng = Rng.create ((t.Tenant.tn_seed * 53) + 11) in
          Traffic.arrivals ~rng (Tenant.process t) ~n:t.Tenant.tn_requests)
        tenants
  in
  let merged = ref [] in
  Array.iteri
    (fun ti a -> Array.iteri (fun k at -> merged := (at, ti, k) :: !merged) a)
    streams;
  let merged =
    List.sort
      (fun (ta, ia, ka) (tb, ib, kb) ->
        match Float.compare ta tb with
        | 0 -> ( match Int.compare ia ib with 0 -> Int.compare ka kb | c -> c)
        | c -> c)
      !merged
  in
  let merged = Array.of_list merged in
  st.ledger <- Array.init (Array.length merged) (fun _ -> Hedge.single ());
  let requests =
    Array.mapi
      (fun id (at, ti, k) ->
        let ts = st.tenants.(ti) in
        ( ts,
          {
            Admission.rq_id = id;
            rq_payload = payload ~tenant:ti ~index:k ~id;
            rq_arrival_us = at;
            rq_deadline_us = Option.map (fun d -> at +. d) (Tenant.slo_us ts.ts_tenant);
          } ))
      merged
  in
  Event_loop.feed loop (Array.map (fun (at, _, _) -> at) merged) (fun id ->
      let ts, r = requests.(id) in
      on_arrival st ts r);
  (* The control loop only matters when the pool can actually change. *)
  if cfg.t_autoscale.Autoscaler.as_max > cfg.t_autoscale.Autoscaler.as_min then
    Event_loop.schedule_daemon loop ~delay:cfg.t_autoscale.Autoscaler.as_interval_us
      (tick st);
  (* A launch pass at the heal instant re-admits partitioned replicas even
     when no completion or arrival lands right then. *)
  (match cfg.t_net with
  | Some plan -> (
    Net.validate plan;
    match Net.partition_window plan with
    | Some (_, t1) -> Event_loop.schedule loop ~at:t1 (fun () -> pass st)
    | None -> ())
  | None -> ());
  Stats.snapshot_periodically ?every_us:snapshot_every_us st.stats loop;
  Event_loop.run loop;
  let end_us = Event_loop.now loop in
  (* Anything still queued when the run drains is conserved as a
     budget-exhausted terminal, exactly like the cluster's parked queue. *)
  Array.iter
    (fun ts ->
      let leftovers, dropped = Admission.drain ts.ts_queue ~now_us:end_us in
      drop_expired st ts ~ts_us:end_us dropped;
      List.iter (drop_copy st ts Stats.Outcome.budget_exhausted ~ts_us:end_us) leftovers)
    st.tenants;
  let views =
    Array.to_list
      (Array.map
         (fun ts ->
           ts.ts_stats.Stats.end_us <- end_us;
           {
             tv_tenant = ts.ts_tenant;
             tv_stats = ts.ts_stats;
             tv_peak_inflight = ts.ts_peak_inflight;
           })
         st.tenants)
  in
  Stats.finish st.stats loop;
  Stats.assert_conserved st.stats ~arrivals:(Array.length merged);
  {
    tn_stats = st.stats;
    tn_tenants = views;
    tn_scale_events = List.rev st.scale_events;
    tn_peak_replicas = st.peak_replicas;
    tn_final_replicas = active_replicas st;
    tn_swaps = Array.fold_left (fun n rp -> n + rp.rp_swaps) 0 st.replicas;
    tn_busy_us = Array.fold_left (fun b rp -> b +. rp.rp_busy_us) 0.0 st.replicas;
  }

(** JSON shape shared by [acrobatc serve --tenant --json] and
    [bench tenants]: aggregate summary, per-tenant summaries with SLO
    attainment and quota observations, and the scale-event trajectory. *)
let report_json (r : report) : Json.t =
  let tenant_json (tv : tenant_view) =
    let s = Stats.summarize tv.tv_stats in
    Json.Obj
      [
        "name", Json.Str tv.tv_tenant.Tenant.tn_name;
        "model", Json.Str tv.tv_tenant.Tenant.tn_model;
        "weight", Json.Float tv.tv_tenant.Tenant.tn_weight;
        "quota", Json.Int tv.tv_tenant.Tenant.tn_quota;
        "peak_inflight", Json.Int tv.tv_peak_inflight;
        "slo_ms", Json.Float tv.tv_tenant.Tenant.tn_slo_ms;
        "goodput", Json.Float (Stats.goodput s);
        "slo_attainment", Json.Float (Stats.slo_attainment s);
        "summary", Stats.summary_to_json s;
      ]
  in
  let scale_json (ts_us, kind, replicas) =
    Json.Obj
      [
        "ts_us", Json.Float ts_us;
        "event", Json.Str kind;
        "replicas", Json.Int replicas;
      ]
  in
  let s = Stats.summarize r.tn_stats in
  Json.Obj
    [
      "summary", Stats.summary_to_json s;
      "goodput", Json.Float (Stats.goodput s);
      "slo_attainment", Json.Float (Stats.slo_attainment s);
      "utilization", Json.Float (utilization r);
      "peak_replicas", Json.Int r.tn_peak_replicas;
      "final_replicas", Json.Int r.tn_final_replicas;
      "swaps", Json.Int r.tn_swaps;
      "tenants", Json.List (List.map tenant_json r.tn_tenants);
      "scale_events", Json.List (List.map scale_json r.tn_scale_events);
    ]
