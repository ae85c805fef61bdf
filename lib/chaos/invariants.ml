(** The reusable invariant suite: what must hold of {e every} serving run,
    no matter which faults were injected.

    Each check is an oracle over the run's {!Acrobat_serve.Stats.summary}
    and its deterministic trace — exactly the artifacts every simulation
    already produces — so future subsystems get checked for free by running
    under the chaos campaign. The invariants:

    - {b conservation}: offered equals the number of generated arrivals and
      [completed] plus every {!Acrobat_serve.Stats.Outcome} counter (no
      request vanishes, none is double-counted), as
      {!Acrobat_serve.Stats.conservation} checks it;
    - {b terminal_once}: exactly one terminal trace instant per request id
      (dispatcher pid 0, tid = id + 1), and none for unknown ids;
    - {b no_dup_completion}: no request id completes twice — the accounting
      hedging must preserve — and done-event count matches [s_completed];
    - {b requeue_budget}: per-request failover requeues never exceed the
      configured budget;
    - {b clamped}: zero past-time event-loop schedules (each one is a
      latent scheduling bug that clamping would otherwise hide);
    - {b goodput_floor}: availability at or above a caller-derived floor
      (1.0 for a clean unbounded scenario, campaign-supplied otherwise);
    - {b tenant_starvation} / {b quota_respected}: on multi-tenant runs,
      every tenant with offered load completes something, and no tenant's
      observed peak inflight ever exceeded its admission quota scaled by the
      peak replica count;
    - {b tenant_conservation}: on multi-tenant runs, the tenants' offered
      counts sum to the aggregate offered count (a tenant counts requests,
      never hedge copies);
    - {b retry_amplification}: with a retry budget of fraction [f] armed,
      re-executed requests never exceed [f] times the offered load — the
      bound that makes retry storms impossible by construction;
    - {b brownout_dwell}: brownout transitions on every replica alternate
      degrade/restore and consecutive transitions are at least the dwell
      window apart, and trace transition counts match the summary counters;
    - {b audit_shield}: with the audit gate at rate 1.0 every delivery is
      verified, so zero corrupted results may reach a caller — the bound
      that makes sampled auditing a real defense, not a dashboard — and
      mismatches never exceed audits;
    - {b quarantine_flow}: quarantine/restore trace instants agree with the
      summary counters, and a replica can only be restored after having
      been quarantined (restores never exceed quarantines);
    - {b net_exactly_once}: with the lossy transport's dedup window armed,
      no (request, replica, epoch) key executes twice no matter how many
      copies dup + resend put on the wire — the exactly-once guarantee,
      read directly off [net_exec] trace instants;
    - {b net_partition}: no request or ack delivery lands on a cut link
      inside an active partition window (the window is half-open, so a
      landing exactly at the heal instant is lawful);
    - {b net_conservation}: each of {!Acrobat_serve.Stats.laws} holds —
      every copy put on the wire lands in exactly one bucket. Checked on
      every run by the same function: with the transport off every term is
      zero.

    Replay determinism (same seed, byte-identical summary + trace) needs a
    second run, so it lives in {!Campaign.check_scenario} and reports here
    as a violation named ["replay"]. *)

module Stats = Acrobat_serve.Stats
module Trace = Acrobat_obs.Trace
module Brownout = Acrobat_resilience.Brownout
module Net = Acrobat_net.Net
module Json = Acrobat_obs.Json

type violation = {
  vi_name : string;  (** Which invariant broke. *)
  vi_detail : string;  (** Human-readable evidence. *)
}

let v name fmt = Fmt.kstr (fun vi_detail -> { vi_name = name; vi_detail }) fmt

(** Terminal instant names the dispatcher emits on pid 0 — the closed set
    every admitted request must end in exactly once: ["done"] and every
    {!Acrobat_serve.Stats.Outcome}. Some outcomes fire only on their own
    layer (the breaker's on the single server and tenants, the quota's on
    the multi-tenant dispatcher) but all stay in the set so the suite keeps
    working as an oracle over every serving stack's traces. *)
let terminal_names =
  "done" :: List.map (fun o -> o.Stats.Outcome.name) Stats.Outcome.all

(** What the multi-tenant dispatcher observed for one tenant; empty list on
    single-tenant runs. *)
type tenant_obs = {
  tb_name : string;
  tb_offered : int;  (** Arrivals, including quota-shed ones. *)
  tb_completed : int;
  tb_quota : int;  (** Configured per-replica inflight quota. *)
  tb_peak_inflight : int;  (** Largest admitted-but-not-terminal count seen. *)
  tb_resilience_shed : int;
      (** Requests the overload controls dropped (limiter + retry budget +
          breaker): lawful losses the starvation oracle must not count. *)
}

(** Everything one invariant check needs to know about a finished run. *)
type input = {
  in_requests : int;  (** Arrivals the scenario generated. *)
  in_requeue_budget : int;
  in_goodput_floor : float;
  in_summary : Stats.summary;
  in_events : Trace.event list;  (** Canonical order ({!Trace.events}). *)
  in_tenants : tenant_obs list;  (** Per-tenant observations; [] if single-tenant. *)
  in_retry_budget_frac : float option;  (** Armed retry-budget fraction. *)
  in_brownout : Brownout.spec option;  (** Armed brownout spec. *)
  in_peak_replicas : int;  (** Peak fleet size; scales per-replica quotas. *)
  in_audit_rate : float;  (** Armed sampled-audit rate; 0.0 = auditing off. *)
  in_net : Net.plan option;  (** Armed network fault plan; [None] = direct calls. *)
}

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Sorted key list so violation order never depends on hash-bucket layout —
   campaign reports must be byte-deterministic. *)
let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let check (i : input) : violation list =
  let s = i.in_summary in
  let out = ref [] in
  let add x = out := x :: !out in
  let laws = Stats.conservation s ~arrivals:i.in_requests in
  let add_law name =
    List.iter
      (fun (law, vi_detail) -> if law = name then add { vi_name = law; vi_detail })
      laws
  in
  add_law "conservation";
  (* Index the dispatcher's per-request instants: terminal outcomes,
     completions and requeues, keyed by request id (tid - 1). *)
  let terminals = Hashtbl.create 64 in
  let dones = Hashtbl.create 64 in
  let requeues = Hashtbl.create 16 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.ev_ph = 'i' && ev.Trace.ev_pid = 0 then begin
        let id = ev.Trace.ev_tid - 1 in
        if List.mem ev.Trace.ev_name terminal_names then begin
          bump terminals id;
          if ev.Trace.ev_name = "done" then bump dones id
        end
        else if ev.Trace.ev_name = "requeue" then bump requeues id
      end)
    i.in_events;
  for id = 0 to i.in_requests - 1 do
    match Hashtbl.find_opt terminals id with
    | Some 1 -> ()
    | Some n -> add (v "terminal_once" "request %d has %d terminal trace events" id n)
    | None -> add (v "terminal_once" "request %d has no terminal trace event" id)
  done;
  List.iter
    (fun id ->
      if id < 0 || id >= i.in_requests then
        add (v "terminal_once" "terminal trace event for unknown request %d" id))
    (sorted_keys terminals);
  List.iter
    (fun id ->
      let n = Hashtbl.find dones id in
      if n > 1 then add (v "no_dup_completion" "request %d completed %d times" id n))
    (sorted_keys dones);
  let done_total = Hashtbl.fold (fun _ n acc -> acc + n) dones 0 in
  if done_total <> s.Stats.s_completed then
    add
      (v "no_dup_completion" "%d done trace events but %d completions recorded" done_total
         s.Stats.s_completed);
  List.iter
    (fun id ->
      let n = Hashtbl.find requeues id in
      if n > i.in_requeue_budget then
        add
          (v "requeue_budget" "request %d requeued %d times (budget %d)" id n
             i.in_requeue_budget))
    (sorted_keys requeues);
  if s.Stats.s_clamped_schedules <> 0 then
    add
      (v "clamped" "%d event-loop schedules requested a past time"
         s.Stats.s_clamped_schedules);
  if Stats.goodput s < i.in_goodput_floor -. 1e-9 then
    add
      (v "goodput_floor" "goodput %.4f below floor %.4f" (Stats.goodput s)
         i.in_goodput_floor);
  let quota_scale = max 1 i.in_peak_replicas in
  List.iter
    (fun tb ->
      if tb.tb_offered > 0 && tb.tb_completed = 0 && tb.tb_resilience_shed = 0 then
        add
          (v "tenant_starvation" "tenant %s offered %d requests but completed none"
             tb.tb_name tb.tb_offered);
      if tb.tb_peak_inflight > tb.tb_quota * quota_scale then
        add
          (v "quota_respected" "tenant %s peaked at %d inflight (quota %d x %d replicas)"
             tb.tb_name tb.tb_peak_inflight tb.tb_quota quota_scale))
    i.in_tenants;
  (* Every arrival belongs to exactly one tenant, so the tenants' offered
     counts sum to the aggregate. *)
  if i.in_tenants <> [] then begin
    let total = List.fold_left (fun n tb -> n + tb.tb_offered) 0 i.in_tenants in
    if total <> s.Stats.s_offered then
      add
        (v "tenant_conservation" "tenants offered %d requests, the aggregate %d" total
           s.Stats.s_offered)
  end;
  (* Retry amplification: each fresh admitted request deposits [frac]
     tokens and every re-execution spends one, so re-executed requests can
     never exceed frac * offered. A violation means the budget leaked. *)
  Option.iter
    (fun frac ->
      let bound = (frac *. float_of_int s.Stats.s_offered) +. 1e-9 in
      if float_of_int s.Stats.s_retried_requests > bound then
        add
          (v "retry_amplification" "%d requests re-executed, budget allows %.1f (%.2f x %d offered)"
             s.Stats.s_retried_requests bound frac s.Stats.s_offered))
    i.in_retry_budget_frac;
  (* Brownout dwell + hysteresis, read off the trace: per replica (pid),
     transitions must alternate starting with a degrade, consecutive
     transitions must be >= the dwell window apart, and the per-run counters
     must agree with the transition counts. *)
  Option.iter
    (fun (bo : Brownout.spec) ->
      let by_pid = Hashtbl.create 8 in
      List.iter
        (fun (ev : Trace.event) ->
          if
            ev.Trace.ev_ph = 'i'
            && (ev.Trace.ev_name = "brownout_degrade"
               || ev.Trace.ev_name = "brownout_restore")
          then
            Hashtbl.replace by_pid ev.Trace.ev_pid
              ((ev.Trace.ev_name, ev.Trace.ev_ts_us)
              :: Option.value ~default:[] (Hashtbl.find_opt by_pid ev.Trace.ev_pid)))
        i.in_events;
      let degrades = ref 0 and restores = ref 0 in
      List.iter
        (fun pid ->
          (* Events were consed in canonical order, so reverse to timeline. *)
          let timeline = List.rev (Hashtbl.find by_pid pid) in
          let expect = ref "brownout_degrade" in
          let last_ts = ref neg_infinity in
          List.iter
            (fun (name, ts) ->
              if name = "brownout_degrade" then incr degrades else incr restores;
              if name <> !expect then
                add
                  (v "brownout_dwell" "pid %d: %s out of order at %.0fus" pid name ts)
              else
                expect :=
                  if name = "brownout_degrade" then "brownout_restore"
                  else "brownout_degrade";
              if ts -. !last_ts < bo.Brownout.bo_dwell_us -. 1e-6 then
                add
                  (v "brownout_dwell"
                     "pid %d: %s at %.0fus only %.0fus after previous transition (dwell %.0fus)"
                     pid name ts (ts -. !last_ts) bo.Brownout.bo_dwell_us);
              last_ts := ts)
            timeline)
        (sorted_keys by_pid);
      if !degrades <> s.Stats.s_brownouts then
        add
          (v "brownout_dwell" "%d degrade trace events but %d brownouts recorded"
             !degrades s.Stats.s_brownouts);
      if !restores <> s.Stats.s_brownout_restores then
        add
          (v "brownout_dwell" "%d restore trace events but %d restores recorded"
             !restores s.Stats.s_brownout_restores))
    i.in_brownout;
  (* Audit shield: at rate 1.0 every delivery passes through the audit
     gate, so a corrupted result reaching a caller means the gate leaked.
     Mismatches are a subset of audits by construction. *)
  if i.in_audit_rate >= 1.0 && s.Stats.s_corrupted_delivered > 0 then
    add
      (v "audit_shield" "%d corrupted results delivered despite audit rate %.2f"
         s.Stats.s_corrupted_delivered i.in_audit_rate);
  if s.Stats.s_audit_mismatches > s.Stats.s_audits then
    add
      (v "audit_shield" "%d audit mismatches exceed %d audits"
         s.Stats.s_audit_mismatches s.Stats.s_audits);
  (* Quarantine flow: trace instants and summary counters must agree, and a
     replica is only ever restored out of a quarantine it entered. *)
  let quarantines = ref 0 and restores = ref 0 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.ev_ph = 'i' then
        if ev.Trace.ev_name = "quarantine" then incr quarantines
        else if ev.Trace.ev_name = "quarantine_restore" then incr restores)
    i.in_events;
  if !quarantines <> s.Stats.s_quarantines then
    add
      (v "quarantine_flow" "%d quarantine trace events but %d quarantines recorded"
         !quarantines s.Stats.s_quarantines);
  if !restores <> s.Stats.s_quarantine_restores then
    add
      (v "quarantine_flow" "%d restore trace events but %d restores recorded" !restores
         s.Stats.s_quarantine_restores);
  if s.Stats.s_quarantine_restores > s.Stats.s_quarantines then
    add
      (v "quarantine_flow" "%d restores exceed %d quarantines"
         s.Stats.s_quarantine_restores s.Stats.s_quarantines);
  add_law "net_conservation";
  Option.iter
    (fun (plan : Net.plan) ->
      let n = max 1 i.in_peak_replicas in
      (* Exactly-once: with the dedup window armed, however many copies
         dup + resend put on the wire, at most one [net_exec] may fire per
         (request, replica, epoch) key. Epoch fencing makes re-execution
         after a replica reset lawful — the reset wiped the first attempt. *)
      if plan.Net.np_dedup then begin
        let execs = Hashtbl.create 64 in
        List.iter
          (fun (ev : Trace.event) ->
            if ev.Trace.ev_ph = 'i' && ev.Trace.ev_name = "net_exec" then begin
              let epoch =
                match List.assoc_opt "epoch" ev.Trace.ev_args with
                | Some (Json.Int e) -> e
                | _ -> -1
              in
              bump execs (ev.Trace.ev_tid - 1, ev.Trace.ev_pid - n - 1, epoch)
            end)
          i.in_events;
        List.iter
          (fun ((id, replica, epoch) as key) ->
            let c = Hashtbl.find execs key in
            if c > 1 then
              add
                (v "net_exactly_once"
                   "request %d executed %d times on replica %d epoch %d" id c replica
                   epoch))
          (sorted_keys execs)
      end;
      (* Partition blackout: no request or ack delivery may land on a cut
         link inside the active window (half-open: landing exactly at the
         heal instant is lawful). *)
      Option.iter
        (fun (t0, t1) ->
          List.iter
            (fun (ev : Trace.event) ->
              if
                ev.Trace.ev_ph = 'i'
                && (ev.Trace.ev_name = "net_deliver" || ev.Trace.ev_name = "net_recv")
                && ev.Trace.ev_ts_us >= t0
                && ev.Trace.ev_ts_us < t1
              then begin
                let replica = ev.Trace.ev_pid - n - 1 in
                if replica >= 0 && Net.in_group plan ~replica ~n then
                  add
                    (v "net_partition"
                       "%s on cut link %d at %.0fus inside partition [%.0f, %.0f)"
                       ev.Trace.ev_name replica ev.Trace.ev_ts_us t0 t1)
              end)
            i.in_events)
        (Net.partition_window plan))
    i.in_net;
  List.rev !out

(** Distinct invariant names violated, sorted — the compact label used in
    reports and reproducer headers. *)
let names (vs : violation list) : string list =
  List.sort_uniq compare (List.map (fun x -> x.vi_name) vs)
