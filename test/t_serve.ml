(** Tests for the serving layer: event loop determinism, traffic
    generation, admission control, batching policies, and the end-to-end
    server simulation (including the adaptive-beats-batch1 criterion on a
    real compiled model). *)

open Acrobat
open T_util
module Server = Serve.Server
module Batcher = Serve.Batcher
module Admission = Serve.Admission
module Traffic = Serve.Traffic
module Stats = Serve.Stats
module Event_loop = Serve.Event_loop
module Clock = Serve.Clock
module Json = Serve.Json
module Cluster = Serve.Cluster
module Hedge = Serve.Hedge
module Replica = Serve.Replica

(* --- Event loop --- *)

let test_event_loop_order () =
  let loop = Event_loop.create (Clock.create ()) in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  (* Same-time events must dispatch in scheduling order; earlier times
     first regardless of scheduling order. *)
  Event_loop.schedule loop ~at:10.0 (note "b1");
  Event_loop.schedule loop ~at:10.0 (note "b2");
  Event_loop.schedule loop ~at:5.0 (note "a");
  Event_loop.schedule loop ~at:20.0 (fun () ->
      note "c" ();
      (* An event scheduled in the past clamps to now, not to the past. *)
      Event_loop.schedule loop ~at:1.0 (note "d"));
  Event_loop.run loop;
  Alcotest.(check (list string)) "dispatch order" [ "a"; "b1"; "b2"; "c"; "d" ]
    (List.rev !log);
  check_float "clock ends at last event" 20.0 (Event_loop.now loop);
  (* The past-time schedule above ("d" at t=1 while now=20) must be counted,
     not silently clamped. *)
  check_int "clamped schedule counted" 1 (Event_loop.clamped_count loop)

(* --- Traffic --- *)

let test_traffic_poisson () =
  let n = 2000 in
  let draw seed = Traffic.arrivals ~rng:(Rng.create seed) (Traffic.Poisson { rate_per_s = 1000.0 }) ~n in
  let a = draw 42 in
  check_true "monotone"
    (Array.for_all (fun x -> x >= 0.0) a
    && Array.for_all
         (fun i -> a.(i) <= a.(i + 1))
         (Array.init (n - 1) (fun i -> i)));
  (* Mean inter-arrival should be near 1e6/rate = 1000us. *)
  let mean = a.(n - 1) /. float_of_int n in
  check_true "mean interarrival within 15%" (mean > 850.0 && mean < 1150.0);
  check_true "deterministic" (draw 42 = a);
  check_true "seed-sensitive" (draw 43 <> a)

let test_traffic_burst_and_bursty () =
  let rng = Rng.create 7 in
  let b = Traffic.arrivals ~rng (Traffic.Burst { at_us = 3.0 }) ~n:5 in
  check_true "burst: all at once" (Array.for_all (fun x -> x = 3.0) b);
  let m =
    Traffic.arrivals ~rng:(Rng.create 7)
      (Traffic.Bursty { rate_low_per_s = 100.0; rate_high_per_s = 10_000.0; mean_dwell_us = 5_000.0 })
      ~n:500
  in
  check_true "bursty: monotone"
    (Array.for_all (fun i -> m.(i) <= m.(i + 1)) (Array.init 499 (fun i -> i)))

(* --- Admission --- *)

let rq ?deadline id at =
  { Admission.rq_id = id; rq_payload = id; rq_arrival_us = at; rq_deadline_us = deadline }

let test_admission_shed () =
  let q = Admission.create ~capacity:2 () in
  check_true "admit 1" (Admission.offer q ~now_us:0.0 (rq 0 0.0));
  check_true "admit 2" (Admission.offer q ~now_us:1.0 (rq 1 1.0));
  check_true "shed at capacity" (not (Admission.offer q ~now_us:2.0 (rq 2 2.0)));
  check_int "shed counted" 1 (Admission.shed_count q);
  check_float "oldest" 0.0 (Option.get (Admission.oldest_arrival_us q));
  let batch = Admission.take q ~now_us:5.0 ~limit:10 in
  Alcotest.(check (list int)) "FIFO ids" [ 0; 1 ]
    (List.map (fun r -> r.Admission.rq_id) batch)

let test_admission_deadline () =
  let q = Admission.create ~capacity:8 () in
  ignore (Admission.offer q ~now_us:0.0 (rq ~deadline:100.0 0 0.0));
  ignore (Admission.offer q ~now_us:0.0 (rq ~deadline:9_999.0 1 0.0));
  let batch = Admission.take q ~now_us:500.0 ~limit:10 in
  Alcotest.(check (list int)) "expired dropped" [ 1 ]
    (List.map (fun r -> r.Admission.rq_id) batch);
  check_int "expired counted" 1 (Admission.expired_count q)

let test_admission_sweep_on_offer () =
  let q = Admission.create ~capacity:2 () in
  ignore (Admission.offer q ~now_us:0.0 (rq ~deadline:10.0 0 0.0));
  ignore (Admission.offer q ~now_us:0.0 (rq ~deadline:10.0 1 0.0));
  (* The queue is full, but both residents are already past their deadline
     at t=50: offer must sweep them and admit rather than shed. *)
  check_true "admitted after sweep" (Admission.offer q ~now_us:50.0 (rq 2 50.0));
  check_int "expired counted at offer time" 2 (Admission.expired_count q);
  check_int "nothing shed" 0 (Admission.shed_count q);
  check_int "only the live request queued" 1 (Admission.length q);
  (* A full queue of live requests still sheds. *)
  ignore (Admission.offer q ~now_us:51.0 (rq 3 51.0));
  check_true "live-full queue sheds" (not (Admission.offer q ~now_us:52.0 (rq 4 52.0)));
  check_int "shed counted" 1 (Admission.shed_count q)

(* --- Batcher --- *)

let test_batcher_fixed_decide () =
  let b = Batcher.create (Batcher.Fixed { max_batch = 4; max_wait_us = 500.0 }) in
  (match Batcher.decide b ~now_us:0.0 ~queue_len:4 ~oldest_arrival_us:0.0 with
  | Batcher.Flush n -> check_int "full batch flushes" 4 n
  | Batcher.Wait_until _ -> Alcotest.fail "expected flush at max_batch");
  (match Batcher.decide b ~now_us:600.0 ~queue_len:2 ~oldest_arrival_us:0.0 with
  | Batcher.Flush n -> check_int "timeout flushes partial" 2 n
  | Batcher.Wait_until _ -> Alcotest.fail "expected timeout flush");
  match Batcher.decide b ~now_us:100.0 ~queue_len:2 ~oldest_arrival_us:0.0 with
  | Batcher.Wait_until at -> check_float "waits until oldest+max_wait" 500.0 at
  | Batcher.Flush _ -> Alcotest.fail "expected wait"

(* Regression for an infinite event loop: when the timeout wake fires at
   exactly [oldest + max_wait], the decision must be a flush — never another
   wait at a time that is not in the future. [(oldest +. w) -. oldest] can
   round below [w], so the check must compare against the same float
   expression the wake was scheduled at. *)
let test_batcher_timeout_wake_flushes () =
  List.iter
    (fun policy ->
      let w = 1500.0 in
      for i = 1 to 500 do
        let oldest = float_of_int i *. 1234.567 /. 3.0 in
        let b = Batcher.create policy in
        match Batcher.decide b ~now_us:(oldest +. w) ~queue_len:1 ~oldest_arrival_us:oldest with
        | Batcher.Flush _ -> ()
        | Batcher.Wait_until at ->
          if at <= oldest +. w then
            Alcotest.failf "wake at oldest+max_wait re-waited for the past (oldest=%.17g)"
              oldest
      done)
    [
      Batcher.Fixed { max_batch = 4; max_wait_us = 1500.0 };
      Batcher.Adaptive { max_batch = 4; max_wait_us = 1500.0 };
    ]

let test_batcher_adaptive_target () =
  let b = Batcher.create (Batcher.Adaptive { max_batch = 16; max_wait_us = 2000.0 }) in
  check_int "no arrivals: target 1" 1 (Batcher.target_batch b ~max_batch:16);
  (* One arrival every 10us, batches costing ~100us fixed + 10us/item:
     the fixed point of k = rate * latency(k) is well above 1. *)
  for i = 0 to 50 do
    Batcher.observe_arrival b ~now_us:(float_of_int i *. 10.0)
  done;
  for _ = 1 to 20 do
    Batcher.observe_batch b ~size:8 ~latency_us:180.0;
    Batcher.observe_batch b ~size:2 ~latency_us:120.0
  done;
  let t = Batcher.target_batch b ~max_batch:16 in
  check_true "fast arrivals push target up" (t >= 8);
  check_int "clamped by max_batch" 4 (Batcher.target_batch b ~max_batch:4)

(* --- Server simulation with synthetic executors --- *)

let linear_cost ~fixed ~per_item batch =
  {
    Server.ex_latency_us = fixed +. (per_item *. float_of_int (List.length batch));
    ex_profiler = None;
    ex_fingerprints = None;
    ex_corrupted = false;
  }

let simulate ?(config = Server.default_config) ~arrivals () =
  Server.simulate config ~arrivals
    ~payload:(fun i -> i)
    ~execute:(Server.infallible (linear_cost ~fixed:100.0 ~per_item:10.0))

let test_timeout_partial_batch () =
  let config =
    { Server.default_config with
      Server.policy = Batcher.Fixed { max_batch = 4; max_wait_us = 500.0 } }
  in
  let s = Stats.summarize (simulate ~config ~arrivals:[| 0.0; 100.0 |] ()) in
  check_int "both complete" 2 s.Stats.s_completed;
  check_int "one partial batch" 1 s.Stats.s_batches;
  check_float "partial batch holds both" 2.0 s.Stats.s_mean_batch;
  (* The batch launched at the oldest request's timeout, not earlier. *)
  check_float ~eps:1e-6 "launch at oldest+max_wait" 0.45 s.Stats.s_mean_queue_ms

let test_queue_full_shedding () =
  let config =
    { Server.default_config with
      Server.policy = Batcher.Batch1; Server.queue_capacity = 2 }
  in
  let arrivals = Traffic.arrivals ~rng:(Rng.create 1) (Traffic.Burst { at_us = 0.0 }) ~n:10 in
  let s = Stats.summarize (simulate ~config ~arrivals ()) in
  check_int "only the queue survives" 2 s.Stats.s_completed;
  check_int "rest shed at the door" 8 s.Stats.s_shed;
  check_int "offered counts shed" 10 s.Stats.s_offered;
  check_true "drop rate reflects shed" (Stats.drop_rate s = 0.8)

let test_deadline_drop () =
  let config =
    { Server.default_config with
      Server.policy = Batcher.Batch1; Server.deadline_us = Some 100.0 }
  in
  let arrivals = [| 0.0; 0.0; 0.0 |] in
  let s = Stats.summarize (simulate ~config ~arrivals ()) in
  (* First request launches immediately; the other two wait out its 110us
     service time and expire at their 100us deadline. *)
  check_int "first completes" 1 s.Stats.s_completed;
  check_int "queued ones expire" 2 s.Stats.s_expired;
  check_int "no shedding" 0 s.Stats.s_shed

let test_burst_batching_invariant () =
  let max_batch = 8 in
  let n = 40 in
  let config =
    { Server.default_config with
      Server.policy = Batcher.Adaptive { max_batch; max_wait_us = 1000.0 } }
  in
  let arrivals = Traffic.arrivals ~rng:(Rng.create 1) (Traffic.Burst { at_us = 0.0 }) ~n in
  let s = Stats.summarize (simulate ~config ~arrivals ()) in
  check_int "all complete" n s.Stats.s_completed;
  (* Simultaneous arrivals must coalesce: no more flushes than full batches
     can cover. *)
  check_true "<= ceil(n/max_batch) batches"
    (s.Stats.s_batches <= (n + max_batch - 1) / max_batch)

let test_simulation_deterministic () =
  let run () =
    let arrivals =
      Traffic.arrivals ~rng:(Rng.create 9) (Traffic.Poisson { rate_per_s = 5000.0 }) ~n:200
    in
    Json.to_string (Stats.summary_to_json (Stats.summarize (simulate ~arrivals ())))
  in
  Alcotest.(check string) "same seed, same summary JSON" (run ()) (run ())

(* --- Fault tolerance: retry, bisection, breaker, degradation --- *)

let fault ?(latency = 50.0) ?(transient = true) ?(oom = false) ?(reset = false) reason =
  Server.Exec_fault
    {
      ef_latency_us = latency;
      ef_reason = reason;
      ef_transient = transient;
      ef_oom = oom;
      ef_reset = reset;
    }

let ok batch = Server.Exec_ok (linear_cost ~fixed:100.0 ~per_item:10.0 batch)

let test_ft_retry_transient () =
  (* Every batch's first attempt fails transiently; its retry succeeds. *)
  let run () =
    let seen = Hashtbl.create 16 in
    let execute ~degraded:_ batch =
      if Hashtbl.mem seen batch then ok batch
      else begin
        Hashtbl.add seen batch ();
        fault "flake"
      end
    in
    let arrivals =
      Traffic.arrivals ~rng:(Rng.create 4) (Traffic.Poisson { rate_per_s = 3000.0 }) ~n:40
    in
    Stats.summarize
      (Server.simulate Server.default_config ~arrivals ~payload:(fun i -> i) ~execute)
  in
  let s = run () in
  check_int "all complete despite faults" 40 s.Stats.s_completed;
  check_true "faults recorded" (s.Stats.s_fault_batches > 0);
  check_int "every fault was retried" s.Stats.s_fault_batches s.Stats.s_retries;
  check_int "nothing dropped" 0 s.Stats.s_poisoned;
  check_int "breaker never opened" 0 s.Stats.s_breaker_opens;
  check_true "goodput is 1" (Stats.goodput s = 1.0);
  (* Satellite: same seed + same fault behaviour => byte-identical stats. *)
  let json s = Json.to_string (Stats.summary_to_json s) in
  Alcotest.(check string) "byte-identical stats across runs" (json s) (json (run ()))

let test_ft_bisection_isolates_poison () =
  let executed = ref [] in
  let execute ~degraded:_ batch =
    if List.mem 5 batch then fault ~transient:false "poison"
    else begin
      executed := batch :: !executed;
      ok batch
    end
  in
  let config =
    { Server.default_config with
      Server.policy = Batcher.Fixed { max_batch = 16; max_wait_us = 500.0 } }
  in
  let arrivals = Traffic.arrivals ~rng:(Rng.create 1) (Traffic.Burst { at_us = 0.0 }) ~n:16 in
  let s =
    Stats.summarize (Server.simulate config ~arrivals ~payload:(fun i -> i) ~execute)
  in
  check_int "15 of 16 complete" 15 s.Stats.s_completed;
  check_int "exactly one request dropped" 1 s.Stats.s_poisoned;
  check_true "bisection ran" (s.Stats.s_bisections > 0);
  let completed_ids = List.sort compare (List.concat !executed) in
  Alcotest.(check (list int)) "exactly the poison id is missing"
    (List.filter (fun i -> i <> 5) (List.init 16 Fun.id))
    completed_ids

let test_ft_circuit_breaker () =
  (* The device is down for the first 7 attempts, then recovers: the breaker
     must open after the failure threshold, shed arrivals while open, and
     close via the half-open probe once the device answers again. *)
  let attempts = ref 0 in
  let execute ~degraded:_ batch =
    incr attempts;
    if !attempts <= 7 then fault "device down" else ok batch
  in
  let config = { Server.default_config with Server.policy = Batcher.Batch1 } in
  let arrivals = Array.init 30 (fun i -> float_of_int i *. 2_000.0) in
  let s =
    Stats.summarize (Server.simulate config ~arrivals ~payload:(fun i -> i) ~execute)
  in
  check_true "breaker opened" (s.Stats.s_breaker_opens >= 1);
  check_true "arrivals shed while open" (s.Stats.s_breaker_shed > 0);
  check_true "served again after the probe closed it" (s.Stats.s_completed > 0);
  check_int "every request accounted" 30
    (s.Stats.s_completed + s.Stats.s_poisoned + s.Stats.s_breaker_shed);
  check_true "goodput reflects the outage" (Stats.goodput s < 1.0)

let test_ft_oom_shrinks_batches () =
  (* Any batch wider than 2 OOMs: the cap must shrink until work fits, and
     every request must still complete — bisection re-splits the wide ones. *)
  let execute ~degraded:_ batch =
    if List.length batch > 2 then fault ~transient:false ~oom:true "oom" else ok batch
  in
  let config =
    { Server.default_config with
      Server.policy = Batcher.Fixed { max_batch = 8; max_wait_us = 500.0 } }
  in
  let arrivals = Traffic.arrivals ~rng:(Rng.create 1) (Traffic.Burst { at_us = 0.0 }) ~n:24 in
  let s =
    Stats.summarize (Server.simulate config ~arrivals ~payload:(fun i -> i) ~execute)
  in
  check_int "all complete" 24 s.Stats.s_completed;
  check_int "nothing dropped" 0 s.Stats.s_poisoned;
  check_true "ooms recorded" (s.Stats.s_fault_batches > 0);
  check_true "shrunk batches ran in degraded mode" (s.Stats.s_degraded_batches > 0)

let test_ft_pressure_degradation () =
  let degraded_calls = ref 0 in
  let execute ~degraded batch =
    if degraded then incr degraded_calls;
    ok batch
  in
  let tolerance =
    { Server.default_tolerance with
      Server.degrade_high_frac = 0.5; Server.degrade_low_frac = 0.1 }
  in
  let config =
    { Server.default_config with
      Server.policy = Batcher.Fixed { max_batch = 4; max_wait_us = 500.0 };
      Server.queue_capacity = 8;
      Server.tolerance = tolerance }
  in
  let arrivals = Traffic.arrivals ~rng:(Rng.create 2) (Traffic.Burst { at_us = 0.0 }) ~n:8 in
  let s =
    Stats.summarize (Server.simulate config ~arrivals ~payload:(fun i -> i) ~execute)
  in
  check_int "all complete" 8 s.Stats.s_completed;
  check_true "queue pressure engaged degraded mode" (s.Stats.s_degraded_batches > 0);
  check_true "executor saw the degraded flag" (!degraded_calls > 0)

(* --- Overload resilience: retry budget, limiter, brownout (DESIGN.md
   §13). Unit tests of the mechanisms, then server-level integration. --- *)

let test_budget_tokens () =
  let b = Server.Budget.create ~frac:0.5 in
  check_true "empty bucket denies the first retry" (not (Server.Budget.try_spend b 1));
  Server.Budget.deposit b;
  Server.Budget.deposit b;
  check_true "two deposits cover one request" (Server.Budget.try_spend b 1);
  check_true "the bucket drained" (not (Server.Budget.try_spend b 1));
  Server.Budget.deposit b;
  Server.Budget.deposit b;
  Server.Budget.deposit b;
  (* 1.5 tokens: a batch of 2 costs more than the bucket holds. *)
  check_true "partial cover still denies" (not (Server.Budget.try_spend b 2));
  check_float "a denied spend leaves the tokens untouched" 1.5 (Server.Budget.tokens b)

let test_limiter_aimd () =
  let l = Server.Limiter.create ~target_us:1_000.0 () in
  check_float "initial limit" 8.0 (Server.Limiter.limit l);
  check_true "admits below the limit" (Server.Limiter.admits l ~queued:7);
  check_true "refuses at the limit" (not (Server.Limiter.admits l ~queued:8));
  Server.Limiter.observe l ~delay_us:500.0;
  check_float "under target: additive increase" 9.0 (Server.Limiter.limit l);
  Server.Limiter.observe l ~delay_us:2_000.0;
  check_float ~eps:1e-9 "over target: multiplicative decrease" 6.3
    (Server.Limiter.limit l);
  check_int "decreases counted" 1 (Server.Limiter.decreases l);
  for _ = 1 to 64 do
    Server.Limiter.observe l ~delay_us:1.0e9
  done;
  check_float "backoff never goes below the floor" 1.0 (Server.Limiter.limit l);
  check_true "the floor still admits one request" (Server.Limiter.admits l ~queued:0)

let test_brownout_dwell_hysteresis () =
  let spec =
    { Server.Brownout.bo_high_us = 100.0; bo_dwell_us = 50.0; bo_low_us = 40.0 }
  in
  let b = Server.Brownout.create spec in
  let obs ~at delay = Server.Brownout.observe b ~now_us:at ~delay_us:delay in
  check_true "first high crossing only starts the dwell clock"
    (obs ~at:0.0 200.0 = Server.Brownout.Stay);
  check_true "a dip below high resets the clock" (obs ~at:30.0 50.0 = Server.Brownout.Stay);
  check_true "re-crossing restarts" (obs ~at:40.0 200.0 = Server.Brownout.Stay);
  check_true "still inside the dwell window" (obs ~at:80.0 200.0 = Server.Brownout.Stay);
  check_true "engages after a full dwell above high"
    (obs ~at:95.0 200.0 = Server.Brownout.Engage);
  check_true "controller reports engaged" (Server.Brownout.engaged b);
  (* Hysteresis: between low and high makes no restore progress. *)
  check_true "mid-band stays engaged" (obs ~at:120.0 60.0 = Server.Brownout.Stay);
  check_true "below low starts the restore clock" (obs ~at:130.0 10.0 = Server.Brownout.Stay);
  check_true "a mid-band sample resets the restore clock"
    (obs ~at:150.0 60.0 = Server.Brownout.Stay);
  check_true "restore needs its own full dwell" (obs ~at:160.0 10.0 = Server.Brownout.Stay);
  check_true "restores after a full dwell below low"
    (obs ~at:215.0 10.0 = Server.Brownout.Restore);
  check_true "controller reports restored" (not (Server.Brownout.engaged b))

(* Satellite regression: a request swept at offer time and one dropped at
   pop time are each counted as expired exactly once — never double-counted
   by the later pop, never missed. *)
let test_admission_eager_sweep_counts_once () =
  let q = Admission.create ~eager_sweep:true ~capacity:4 () in
  ignore (Admission.offer q ~now_us:0.0 (rq ~deadline:10.0 0 0.0));
  ignore (Admission.offer q ~now_us:0.0 (rq ~deadline:200.0 1 0.0));
  (* Eager sweep: the offer at t=50 purges request 0 although there is room. *)
  check_true "offer admits" (Admission.offer q ~now_us:50.0 (rq ~deadline:500.0 2 50.0));
  check_int "offer-time sweep counted" 1 (Admission.expired_count q);
  check_int "swept entry left the queue" 2 (Admission.length q);
  (* Request 1 expires at t=200; the pop at t=300 counts it exactly once. *)
  let batch, dropped = Admission.take_with_expired q ~now_us:300.0 ~limit:4 in
  check_int "pop-time drop counted once" 2 (Admission.expired_count q);
  check_int "one request dropped at pop" 1 (List.length dropped);
  Alcotest.(check (list int)) "the live request is served" [ 2 ]
    (List.map (fun r -> r.Admission.rq_id) batch);
  check_true "queue drained" (Admission.is_empty q);
  check_int "no double count after drain" 2 (Admission.expired_count q)

let test_retry_budget_sheds () =
  (* Every attempt faults transiently. Legacy: retry twice, then bisect
     down to per-request poison. Armed with a zero-fraction budget: the
     very first retry is denied and the whole batch becomes a counted
     shed — no re-offered load, no bisection. *)
  let always_fault ~degraded:_ _batch = fault "storm" in
  let config budget =
    {
      Server.default_config with
      Server.policy = Batcher.Fixed { max_batch = 4; max_wait_us = 500.0 };
      resilience = { Resilience.off with Resilience.rs_retry_budget = budget };
    }
  in
  let arrivals = Traffic.arrivals ~rng:(Rng.create 1) (Traffic.Burst { at_us = 0.0 }) ~n:8 in
  let run budget =
    Stats.summarize
      (Server.simulate (config budget) ~arrivals ~payload:(fun i -> i)
         ~execute:always_fault)
  in
  let off = run None in
  check_int "legacy: everything poisoned after bisection" 8 off.Stats.s_poisoned;
  check_true "legacy: bisection ran" (off.Stats.s_bisections > 0);
  check_int "legacy: no retry sheds" 0 off.Stats.s_retry_shed;
  let armed = run (Some 0.0) in
  check_int "armed: every faulted batch shed under the budget" 8 armed.Stats.s_retry_shed;
  check_int "armed: nothing poisoned" 0 armed.Stats.s_poisoned;
  check_int "armed: no retries ran" 0 armed.Stats.s_retries;
  check_int "armed: denied retries are not counted as re-executions" 0
    armed.Stats.s_retried_requests;
  check_int "armed: offered still accounts every request" 8 armed.Stats.s_offered

let test_limiter_sheds_burst () =
  let config =
    {
      Server.default_config with
      Server.resilience =
        { Resilience.off with Resilience.rs_target_delay_us = Some 1_000.0 };
    }
  in
  let arrivals = Traffic.arrivals ~rng:(Rng.create 1) (Traffic.Burst { at_us = 0.0 }) ~n:40 in
  let s = Stats.summarize (simulate ~config ~arrivals ()) in
  (* The AIMD limit starts at 8: a simultaneous burst admits 8 and sheds
     the rest at the door, well before the 256-slot queue would. *)
  check_int "burst admits up to the initial limit" 8 s.Stats.s_completed;
  check_int "the excess is limit-shed" 32 s.Stats.s_limit_shed;
  check_int "nothing reaches the queue-full path" 0 s.Stats.s_shed;
  check_int "offered counts limit sheds" 40 s.Stats.s_offered

let test_brownout_engage_restore () =
  let degraded_calls = ref 0 in
  let execute ~degraded batch =
    if degraded then incr degraded_calls;
    let full = 1_000.0 +. (100.0 *. float_of_int (List.length batch)) in
    Server.Exec_ok
      {
        Server.ex_latency_us = (if degraded then full /. 2.0 else full);
        ex_profiler = None;
        ex_fingerprints = None;
        ex_corrupted = false;
      }
  in
  let config =
    {
      Server.default_config with
      Server.policy = Batcher.Fixed { max_batch = 8; max_wait_us = 500.0 };
      resilience =
        {
          Resilience.off with
          Resilience.rs_brownout =
            Some
              { Server.Brownout.bo_high_us = 2_000.0;
                bo_dwell_us = 3_000.0;
                bo_low_us = 600.0 };
        };
    }
  in
  (* A 64-request burst drives queue delay past the engage threshold; the
     2ms trickle afterwards keeps batches launching with ~0.5ms delay, so
     the controller restores after its dwell below the low watermark. *)
  let arrivals =
    Array.init 104 (fun i ->
        if i < 64 then 0.0 else 20_000.0 +. (2_000.0 *. float_of_int (i - 64)))
  in
  let s =
    Stats.summarize (Server.simulate config ~arrivals ~payload:(fun i -> i) ~execute)
  in
  check_int "everything completes" 104 s.Stats.s_completed;
  check_true "brownout engaged under the burst" (s.Stats.s_brownouts >= 1);
  check_true "brownout restored on the trickle" (s.Stats.s_brownout_restores >= 1);
  check_true "transitions alternate" (s.Stats.s_brownouts - s.Stats.s_brownout_restores <= 1
                                     && s.Stats.s_brownouts >= s.Stats.s_brownout_restores);
  check_true "degraded batches ran while engaged" (s.Stats.s_degraded_batches > 0);
  check_true "executor saw the degraded flag" (!degraded_calls > 0)

let test_resilience_idle_matches_legacy () =
  (* Arm every mechanism at thresholds gentle traffic never crosses: the
     run must be byte-identical to the legacy server — same RNG stream,
     same stats, no new JSON fields. *)
  let arrivals =
    Traffic.arrivals ~rng:(Rng.create 3) (Traffic.Poisson { rate_per_s = 2_000.0 }) ~n:60
  in
  let run resilience =
    let config = { Server.default_config with Server.resilience } in
    Json.to_string (Stats.summary_to_json (Stats.summarize (simulate ~config ~arrivals ())))
  in
  let off = run Resilience.off in
  let idle =
    run
      {
        Resilience.rs_retry_budget = Some 0.5;
        rs_target_delay_us = Some 1.0e9;
        rs_brownout =
          Some
            { Server.Brownout.bo_high_us = infinity; bo_dwell_us = 1.0; bo_low_us = 0.0 };
      }
  in
  Alcotest.(check string) "armed-but-idle run is byte-identical to legacy" off idle

(* --- Admission property test (randomized offer/take/expiry scripts) --- *)

type aop = A_offer of int * int option | A_take of int * int

let gen_aop =
  QCheck2.Gen.(
    bind (int_range 0 400) (fun dt ->
        oneof
          [
            map (fun dl -> A_offer (dt, dl)) (option (int_range 0 1_000));
            map (fun limit -> A_take (dt, limit)) (int_range 1 8);
          ]))

let gen_admission_script =
  QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 1 80) gen_aop))

(* Invariants under any interleaving of offers, takes and deadline expiry:
   the queue never exceeds its capacity, each take pops live requests in
   earliest-deadline-first order (deadline-free requests sort last; equal
   deadlines break FIFO by id, so the order is total and stable), no id is
   popped twice, and every offered request is accounted exactly once as
   taken, shed or expired. *)
let admission_prop (cap, ops) =
  let q = Admission.create ~capacity:cap () in
  let now = ref 0.0 in
  let next_id = ref 0 in
  let taken = ref [] in
  let ok = ref true in
  let edf_key (r : int Admission.request) =
    Option.value ~default:infinity r.Admission.rq_deadline_us, r.Admission.rq_id
  in
  (* Within one batch the pop order must be non-decreasing in
     (deadline, id); across batches a later arrival may legitimately carry
     an earlier deadline than requests already taken. *)
  let rec edf_sorted = function
    | a :: (b :: _ as t) -> edf_key a <= edf_key b && edf_sorted t
    | _ -> true
  in
  let record_batch batch limit =
    if List.length batch > limit then ok := false;
    if not (edf_sorted batch) then ok := false;
    List.iter (fun r -> taken := r.Admission.rq_id :: !taken) batch
  in
  List.iter
    (fun op ->
      match op with
      | A_offer (dt, dl) ->
        now := !now +. float_of_int dt;
        let id = !next_id in
        incr next_id;
        let r =
          {
            Admission.rq_id = id;
            rq_payload = id;
            rq_arrival_us = !now;
            rq_deadline_us = Option.map (fun d -> !now +. float_of_int d) dl;
          }
        in
        ignore (Admission.offer q ~now_us:!now r);
        if Admission.length q > cap then ok := false
      | A_take (dt, limit) ->
        now := !now +. float_of_int dt;
        record_batch (Admission.take q ~now_us:!now ~limit) limit)
    ops;
  record_batch (Admission.take q ~now_us:!now ~limit:max_int) max_int;
  let taken = List.rev !taken in
  let seen = Hashtbl.create 64 in
  let unique =
    List.for_all
      (fun id ->
        if Hashtbl.mem seen id then false else (Hashtbl.add seen id (); true))
      taken
  in
  !ok && unique
  && Admission.length q = 0
  && !next_id = List.length taken + Admission.shed_count q + Admission.expired_count q

(* --- Simulator-core backends: heap vs reference equivalence --- *)

(* The heap event queue and EDF admission heap are pure speedups: on any
   schedule they must be observationally identical to the Map/sorted-list
   reference implementations they replaced. These differential properties
   are the proof obligation. *)

let test_event_loop_nonfinite () =
  let loop = Event_loop.create (Clock.create ()) in
  Alcotest.check_raises "NaN time rejected"
    (Invalid_argument "Event_loop.schedule: non-finite time nan") (fun () ->
      Event_loop.schedule loop ~at:Float.nan ignore);
  Alcotest.check_raises "infinite time rejected"
    (Invalid_argument "Event_loop.schedule: non-finite time inf") (fun () ->
      Event_loop.schedule loop ~at:Float.infinity ignore);
  Alcotest.check_raises "NaN delay rejected"
    (Invalid_argument "Event_loop.schedule_after: non-finite delay nan") (fun () ->
      Event_loop.schedule_after loop ~delay:Float.nan ignore);
  (* Nothing was enqueued and nothing was counted as clamped. *)
  check_int "queue untouched" 0 (Event_loop.pending loop);
  check_int "no clamps" 0 (Event_loop.clamped_count loop)

let test_event_loop_negative_delay_clamped () =
  let loop = Event_loop.create (Clock.create ()) in
  let fired = ref [] in
  Event_loop.schedule loop ~at:10.0 (fun () ->
      (* A negative delay is a past-time request: clamped to "now" and
         counted, exactly like a past [~at]. *)
      Event_loop.schedule_after loop ~delay:(-5.0) (fun () ->
          fired := ("neg", Event_loop.now loop) :: !fired);
      Event_loop.schedule_after loop ~delay:2.0 (fun () ->
          fired := ("pos", Event_loop.now loop) :: !fired));
  Event_loop.run loop;
  Alcotest.(check (list (pair string (float 0.0))))
    "fire times" [ "neg", 10.0; "pos", 12.0 ] (List.rev !fired);
  check_int "negative delay counted as clamped" 1 (Event_loop.clamped_count loop)

(* Random schedules over a coarse time grid (forcing plenty of same-time
   ties), where every third event schedules a nested child: both backends
   must dispatch the identical sequence. *)
let gen_event_script =
  QCheck2.Gen.(list_size (int_range 0 60) (pair (int_range 0 20) (option (int_range 0 8))))

let event_loop_backend_prop script =
  let run backend =
    let loop = Event_loop.create ~backend (Clock.create ()) in
    let log = ref [] in
    List.iteri
      (fun i (at, child) ->
        Event_loop.schedule loop ~at:(float_of_int at) (fun () ->
            log := i :: !log;
            match child with
            | Some d ->
              Event_loop.schedule loop
                ~at:(Event_loop.now loop +. float_of_int d)
                (fun () -> log := (10_000 + i) :: !log)
            | None -> ()))
      script;
    Event_loop.run loop;
    List.rev !log, Event_loop.dispatched loop, Event_loop.pending loop
  in
  run Event_loop.Heap = run Event_loop.Map_reference

(* --- Fed arrival streams: dispatch order --- *)

(* Events scheduled before the feed, the fed stream (unsorted, tied and
   past times; the clock starts at [start], so anything earlier is
   clamped) and events scheduled after it; every event may schedule a
   child. The fed run must match scheduling each stream event upfront in
   index order, on both backends, in every observable: dispatch order and
   times, [pending] as each event runs, and the final counts. *)
let gen_feed_script =
  let events n =
    QCheck2.Gen.(list_size (int_range 0 n) (pair (int_range 0 20) (option (int_range 0 8))))
  in
  QCheck2.Gen.(
    quad (int_range 0 6) (events 6)
      (list_size (int_range 0 40) (pair (int_range (-5) 20) (option (int_range 0 8))))
      (events 6))

let feed_run ~backend ~fed (start, before, stream, after) =
  let clock = Clock.create () in
  Clock.advance_to clock (float_of_int start);
  let loop = Event_loop.create ~backend clock in
  let log = ref [] in
  let event tag child () =
    log := (tag, Event_loop.now loop, Event_loop.pending loop) :: !log;
    match child with
    | Some d ->
      Event_loop.schedule_after loop ~delay:(float_of_int d) (fun () ->
          log := (tag + 10_000, Event_loop.now loop, Event_loop.pending loop) :: !log)
    | None -> ()
  in
  let schedule_all base =
    List.iteri (fun i (at, child) ->
        Event_loop.schedule loop ~at:(float_of_int at) (event (base + i) child))
  in
  schedule_all 0 before;
  let times = Array.of_list (List.map (fun (at, _) -> float_of_int at) stream) in
  let children = Array.of_list (List.map snd stream) in
  if fed then Event_loop.feed loop times (fun i -> event (100 + i) children.(i) ())
  else
    Array.iteri
      (fun i at -> Event_loop.schedule loop ~at (event (100 + i) children.(i)))
      times;
  schedule_all 1_000 after;
  let pending = Event_loop.pending loop in
  Event_loop.run loop;
  ( List.rev !log,
    pending,
    Event_loop.dispatched loop,
    Event_loop.pending loop,
    Event_loop.clamped_count loop )

let feed_order_prop script =
  let reference = feed_run ~backend:Event_loop.Map_reference ~fed:false script in
  List.for_all
    (fun (backend, fed) -> feed_run ~backend ~fed script = reference)
    [ Event_loop.Heap, false; Event_loop.Heap, true; Event_loop.Map_reference, true ]

let test_event_loop_feed_counts () =
  List.iter
    (fun backend ->
      let clock = Clock.create () in
      Clock.advance_to clock 2.0;
      let loop = Event_loop.create ~backend clock in
      let seen = ref [] in
      Event_loop.feed loop [| 5.0; 1.0; 3.0; 1.0 |] (fun i ->
          seen := (i, Event_loop.now loop, Event_loop.pending loop) :: !seen);
      check_int "fed events are pending" 4 (Event_loop.pending loop);
      check_int "past times clamped and counted" 2 (Event_loop.clamped_count loop);
      Alcotest.check_raises "one stream at a time"
        (Invalid_argument "Event_loop.feed: a fed stream is still pending") (fun () ->
          Event_loop.feed loop [| 1.0 |] ignore);
      Event_loop.run loop;
      Alcotest.(check (list (triple int (float 0.0) int)))
        "clamped ties keep index order; pending counts the stream"
        [ 1, 2.0, 3; 3, 2.0, 2; 2, 3.0, 1; 0, 5.0, 0 ]
        (List.rev !seen);
      check_int "every fed event dispatched" 4 (Event_loop.dispatched loop);
      check_int "nothing left" 0 (Event_loop.pending loop);
      (* A drained stream makes room for the next one. *)
      Event_loop.feed loop [| 0.0 |] ignore;
      check_int "past time counted" 3 (Event_loop.clamped_count loop);
      Event_loop.run loop;
      check_int "second stream dispatched" 5 (Event_loop.dispatched loop))
    [ Event_loop.Heap; Event_loop.Map_reference ]

let test_event_loop_feed_nonfinite () =
  let loop = Event_loop.create (Clock.create ()) in
  Alcotest.check_raises "NaN time rejected"
    (Invalid_argument "Event_loop.feed: non-finite time nan") (fun () ->
      Event_loop.feed loop [| 1.0; Float.nan |] ignore);
  Alcotest.check_raises "infinite time rejected"
    (Invalid_argument "Event_loop.feed: non-finite time inf") (fun () ->
      Event_loop.feed loop [| Float.infinity |] ignore);
  check_int "nothing fed" 0 (Event_loop.pending loop);
  check_int "no clamps" 0 (Event_loop.clamped_count loop);
  (* No sequence numbers were reserved either: a later schedule at the
     same time still runs before a later feed's event. *)
  let log = ref [] in
  Event_loop.schedule loop ~at:1.0 (fun () -> log := "scheduled" :: !log);
  Event_loop.feed loop [| 1.0 |] (fun _ -> log := "fed" :: !log);
  Event_loop.run loop;
  Alcotest.(check (list string)) "order" [ "scheduled"; "fed" ] (List.rev !log)

(* Same random offer/take scripts as [admission_prop], but run against both
   backends recording every observable — admit/shed decisions, swept and
   dropped request ids, pop order, and the per-tick probes ([length],
   [is_empty], [oldest_arrival_us]) whose O(1) counters the heap backend
   maintains incrementally. The traces must match exactly, which is also
   the regression test that offer/take/sweep keep the counters consistent
   with the reference's ground truth. *)
let gen_admission_backend_script =
  QCheck2.Gen.(triple (int_range 1 6) bool (list_size (int_range 1 80) gen_aop))

let admission_backend_prop (cap, eager_sweep, ops) =
  let ids = List.map (fun (r : int Admission.request) -> r.Admission.rq_id) in
  let run backend =
    let q = Admission.create ~backend ~eager_sweep ~capacity:cap () in
    let now = ref 0.0 in
    let next_id = ref 0 in
    let trace = ref [] in
    let push x = trace := x :: !trace in
    let probe () =
      push
        (`Probe (Admission.length q, Admission.is_empty q, Admission.oldest_arrival_us q))
    in
    List.iter
      (fun op ->
        match op with
        | A_offer (dt, dl) ->
          now := !now +. float_of_int dt;
          let id = !next_id in
          incr next_id;
          let r =
            {
              Admission.rq_id = id;
              rq_payload = id;
              rq_arrival_us = !now;
              rq_deadline_us = Option.map (fun d -> !now +. float_of_int d) dl;
            }
          in
          let admitted, swept = Admission.offer_swept q ~now_us:!now r in
          push (`Offer (admitted, ids swept));
          probe ()
        | A_take (dt, limit) ->
          now := !now +. float_of_int dt;
          let live, dropped = Admission.take_with_expired q ~now_us:!now ~limit in
          push (`Take (ids live, ids dropped));
          probe ())
      ops;
    let live, dropped = Admission.drain q ~now_us:!now in
    push (`Drain (ids live, ids dropped));
    push (`Counts (Admission.shed_count q, Admission.expired_count q, Admission.length q));
    List.rev !trace
  in
  run Admission.Edf_heap = run Admission.Sorted_list

(* Deterministic spot-check of the O(1) counters across offer, take, a
   full-queue sweep, and drain (the differential property above is the
   broad net; this pins the exact values). *)
let test_admission_counters () =
  let q = Admission.create ~capacity:3 () in
  check_int "empty length" 0 (Admission.length q);
  check_true "empty" (Admission.is_empty q);
  check_true "no oldest" (Admission.oldest_arrival_us q = None);
  check_true "admit r0" (Admission.offer q ~now_us:0.0 (rq ~deadline:100.0 0 0.0));
  check_true "admit r1" (Admission.offer q ~now_us:10.0 (rq ~deadline:50.0 1 10.0));
  check_true "admit r2" (Admission.offer q ~now_us:20.0 (rq 2 20.0));
  check_int "length 3" 3 (Admission.length q);
  check_true "oldest is r0" (Admission.oldest_arrival_us q = Some 0.0);
  (* EDF pops r1 (deadline 50) first; the min-arrival cache must not move. *)
  (match Admission.take q ~now_us:20.0 ~limit:1 with
  | [ r ] -> check_int "EDF pop" 1 r.Admission.rq_id
  | _ -> Alcotest.fail "expected exactly one pop");
  check_int "length 2" 2 (Admission.length q);
  check_true "oldest still r0" (Admission.oldest_arrival_us q = Some 0.0);
  (match Admission.take q ~now_us:20.0 ~limit:1 with
  | [ r ] -> check_int "EDF pop r0" 0 r.Admission.rq_id
  | _ -> Alcotest.fail "expected exactly one pop");
  check_true "oldest advances to r2" (Admission.oldest_arrival_us q = Some 20.0);
  (* Refill to capacity, then let r3 expire: the full-queue offer sweeps
     it, admits r5, and every counter stays consistent. *)
  check_true "admit r3" (Admission.offer q ~now_us:200.0 (rq ~deadline:210.0 3 200.0));
  check_true "admit r4" (Admission.offer q ~now_us:220.0 (rq 4 220.0));
  check_int "full" 3 (Admission.length q);
  check_true "admit r5 after sweep" (Admission.offer q ~now_us:300.0 (rq 5 300.0));
  check_int "swept one expired" 1 (Admission.expired_count q);
  check_int "still full" 3 (Admission.length q);
  check_int "nothing shed" 0 (Admission.shed_count q);
  check_true "oldest still r2" (Admission.oldest_arrival_us q = Some 20.0);
  let live, dropped = Admission.drain q ~now_us:300.0 in
  Alcotest.(check (list int)) "drain order (EDF = seq for deadline-less)" [ 2; 4; 5 ]
    (List.map (fun (r : int Admission.request) -> r.Admission.rq_id) live);
  check_int "no drops in drain" 0 (List.length dropped);
  check_int "drained empty" 0 (Admission.length q);
  check_true "oldest gone" (Admission.oldest_arrival_us q = None)

(* --- Streaming stats: exact-until-K, then reservoir percentiles --- *)

let test_stats_reservoir_error () =
  let saved = Stats.current_streaming_threshold () in
  Stats.set_streaming_threshold 1_000;
  Fun.protect ~finally:(fun () -> Stats.set_streaming_threshold saved) @@ fun () ->
  let t = Stats.create () in
  let n = 50_000 in
  let rng = Rng.create 5 in
  let exact = Array.make n 0.0 in
  for i = 0 to n - 1 do
    (* Uniform latencies in [0, 100] ms: the distribution with the worst
       (widest) quantile spread for a fixed-size sample. *)
    let lat_us = 100_000.0 *. Rng.float rng in
    exact.(i) <- lat_us /. 1000.0;
    Stats.record t
      {
        Stats.r_id = i;
        r_arrival_us = float_of_int i;
        r_start_us = float_of_int i;
        r_done_us = float_of_int i +. lat_us;
        r_batch_size = 1;
      }
  done;
  check_true "streaming engaged past the threshold" (Stats.streaming_active t);
  let s = Stats.summarize t in
  check_int "count survives the conversion" n s.Stats.s_completed;
  (* Reservoir percentiles against the exact ones over all 50k latencies.
     8192 samples bound the quantile standard error at ~0.55% of rank
     (p50), so a 2.5ms tolerance on a 100ms range is ~4.5 sigma — and the
     fixed seed makes the draw deterministic anyway. *)
  let exact_p p = Stats.percentile exact p in
  check_true "p50 within bound" (Float.abs (s.Stats.s_p50_ms -. exact_p 50.0) < 2.5);
  check_true "p95 within bound" (Float.abs (s.Stats.s_p95_ms -. exact_p 95.0) < 2.5);
  check_true "p99 within bound" (Float.abs (s.Stats.s_p99_ms -. exact_p 99.0) < 2.5);
  (* Means are running sums in completion order — the identical float
     additions the exact path performs, so they agree exactly. *)
  let mean_exact = Array.fold_left ( +. ) 0.0 exact /. float_of_int n in
  check_float "mean stays exact in streaming mode" mean_exact s.Stats.s_mean_ms

let test_stats_exact_below_threshold () =
  (* Below the threshold nothing changes: records are retained and the
     summary is the exact one (the exact-until-K contract that keeps all
     legacy-sized runs byte-identical). *)
  let t = Stats.create () in
  for i = 0 to 99 do
    Stats.record t
      {
        Stats.r_id = i;
        r_arrival_us = float_of_int (i * 10);
        r_start_us = float_of_int ((i * 10) + 5);
        r_done_us = float_of_int ((i * 10) + 20);
        r_batch_size = 1;
      }
  done;
  check_true "still exact" (not (Stats.streaming_active t));
  let s = Stats.summarize t in
  check_int "completed" 100 s.Stats.s_completed;
  check_float "exact p99" 0.02 s.Stats.s_p99_ms;
  check_float "exact mean" 0.02 s.Stats.s_mean_ms

(* --- Cluster: replicated serving with failover + hedging --- *)

let ok_exec = Server.infallible (linear_cost ~fixed:100.0 ~per_item:10.0)

(* A dead device: every attempt reports a device reset. The transient flag
   makes the single-server baseline burn its retries before bisecting, and
   the reset counter fails the replica over before bisection can poison
   anything. *)
let always_reset ~degraded:_ _batch = fault ~transient:true ~reset:true "dead device"

(* Every [every]-th batch stalls [mult]x longer than the latency model
   predicts — the tail-latency straggler hedging exists to cut. Stateful, so
   each run needs a fresh executor. *)
let straggler_exec ~every ~mult () =
  let n = ref 0 in
  fun ~degraded:_ batch ->
    incr n;
    let c = linear_cost ~fixed:100.0 ~per_item:10.0 batch in
    if !n mod every = 0 then
      Server.Exec_ok { c with Server.ex_latency_us = c.Server.ex_latency_us *. mult }
    else Server.Exec_ok c

let cluster_arrivals ?(n = 120) ?(rate = 4000.0) seed =
  Traffic.arrivals ~rng:(Rng.create seed) (Traffic.Poisson { rate_per_s = rate }) ~n

let test_cluster_failover_goodput () =
  let arrivals = cluster_arrivals ~n:120 5 in
  (* Baseline: one server under the dead-device plan loses most requests to
     the breaker. *)
  let single =
    Stats.summarize
      (Server.simulate Server.default_config ~arrivals ~payload:Fun.id
         ~execute:always_reset)
  in
  check_true "single server under the plan collapses" (Stats.goodput single < 0.5);
  (* Same plan on replica 0 of a 3-replica cluster: failover requeues its
     work onto the healthy peers. *)
  let report =
    Cluster.simulate
      { Cluster.default_config with Cluster.c_replicas = 3 }
      ~arrivals ~payload:Fun.id
      ~executors:[| always_reset; ok_exec; ok_exec |]
  in
  let s = Stats.summarize report.Cluster.cluster_stats in
  let admitted = s.Stats.s_offered - s.Stats.s_shed in
  check_true "cluster completes >= 99% of admitted"
    (float_of_int s.Stats.s_completed >= 0.99 *. float_of_int admitted);
  check_true "failover engaged" (s.Stats.s_failovers >= 1);
  check_true "in-flight work was requeued" (s.Stats.s_requeued >= 1);
  let v0 = List.nth report.Cluster.replica_views 0 in
  check_true "faulty replica never silently healthy"
    (v0.Cluster.rv_health <> Replica.Up)

let test_cluster_hedging_p99 () =
  let arrivals = cluster_arrivals ~n:150 7 in
  let run hedge =
    let report =
      Cluster.simulate
        { Cluster.default_config with
          Cluster.c_replicas = 3; Cluster.c_hedge_percentile = hedge }
        ~arrivals ~payload:Fun.id
        ~executors:
          [|
            straggler_exec ~every:6 ~mult:30.0 ();
            straggler_exec ~every:7 ~mult:30.0 ();
            straggler_exec ~every:8 ~mult:30.0 ();
          |]
    in
    Stats.summarize report.Cluster.cluster_stats
  in
  let plain = run None in
  let hedged = run (Some 90.0) in
  check_true "hedges were issued" (hedged.Stats.s_hedges > 0);
  check_true "a hedge outran its straggling primary" (hedged.Stats.s_hedge_wins > 0);
  check_true "hedging reduces p99 under stragglers"
    (hedged.Stats.s_p99_ms < plain.Stats.s_p99_ms);
  check_true "hedging loses no completions"
    (hedged.Stats.s_completed >= plain.Stats.s_completed)

let test_cluster_request_accounting () =
  (* The nastiest combination: a dead replica (failover + requeue), a
     straggler (hedging fires), deadlines and a small queue (expiry + shed).
     Every offered request must terminate exactly once, and no request id
     may complete twice no matter how many copies hedging created. *)
  let n = 140 in
  let arrivals = cluster_arrivals ~n 11 in
  let report =
    Cluster.simulate
      { Cluster.default_config with
        Cluster.c_replicas = 3;
        Cluster.c_hedge_percentile = Some 85.0;
        Cluster.c_server =
          { Server.default_config with
            Server.deadline_us = Some 40_000.0; Server.queue_capacity = 16 } }
      ~arrivals ~payload:Fun.id
      ~executors:[| always_reset; straggler_exec ~every:5 ~mult:20.0 (); ok_exec |]
  in
  let st = report.Cluster.cluster_stats in
  let s = Stats.summarize st in
  check_int "every request terminates exactly once" n
    (s.Stats.s_completed + s.Stats.s_shed + s.Stats.s_expired + s.Stats.s_poisoned
   + s.Stats.s_breaker_shed);
  let ids = List.map (fun r -> r.Stats.r_id) st.Stats.records in
  check_int "no request id completed twice" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  check_true "stress exercised failover and hedging"
    (s.Stats.s_failovers > 0 && s.Stats.s_hedges > 0)

let test_cluster_deterministic () =
  let run () =
    let arrivals = cluster_arrivals ~n:120 13 in
    let report =
      Cluster.simulate
        { Cluster.default_config with
          Cluster.c_replicas = 3; Cluster.c_hedge_percentile = Some 90.0 }
        ~arrivals ~payload:Fun.id
        ~executors:[| always_reset; straggler_exec ~every:6 ~mult:25.0 (); ok_exec |]
    in
    Json.to_string
      (Json.Obj
         (("cluster",
           Stats.summary_to_json (Stats.summarize report.Cluster.cluster_stats))
         :: List.map
              (fun v ->
                ( Fmt.str "replica%d" v.Cluster.rv_id,
                  Stats.summary_to_json (Stats.summarize v.Cluster.rv_stats) ))
              report.Cluster.replica_views))
  in
  Alcotest.(check string) "identical cluster JSON across reruns" (run ()) (run ())

let test_cluster_single_replica_equivalence () =
  (* One replica, no faults, no hedging: the cluster is the single server,
     byte for byte. *)
  let arrivals = cluster_arrivals ~n:200 ~rate:5000.0 9 in
  let sv =
    Stats.summarize
      (Server.simulate Server.default_config ~arrivals ~payload:Fun.id
         ~execute:ok_exec)
  in
  let report =
    Cluster.simulate Cluster.default_config ~arrivals ~payload:Fun.id
      ~executors:[| ok_exec |]
  in
  let cl = Stats.summarize report.Cluster.cluster_stats in
  let json s = Json.to_string (Stats.summary_to_json s) in
  Alcotest.(check string) "1-replica cluster == single server" (json sv) (json cl)

(* --- Integrity: sampled audit re-execution and corruption quarantine --- *)

(* A batch executor that silently corrupts every [every]-th batch: the
   fingerprints it attaches are wrong, nothing raises. Honest results
   fingerprint as [1000 + id], which is what the reference recomputes. *)
let corrupt_exec ?(every = 3) () =
  let n = ref 0 in
  fun ~degraded:_ batch ->
    incr n;
    let corrupted = !n mod every = 0 in
    let c = linear_cost ~fixed:100.0 ~per_item:10.0 batch in
    Server.Exec_ok
      {
        c with
        Server.ex_corrupted = corrupted;
        ex_fingerprints =
          Some
            (Array.of_list
               (List.map
                  (fun id -> Int64.of_int (if corrupted then -id - 1 else 1000 + id))
                  batch));
      }

(* Corrupts its first [bad] batches, then runs clean — the transient flaky
   device quarantine must contain and then re-admit. *)
let flaky_then_clean_exec ?(bad = 3) () =
  let n = ref 0 in
  fun ~degraded:_ batch ->
    incr n;
    let corrupted = !n <= bad in
    let c = linear_cost ~fixed:100.0 ~per_item:10.0 batch in
    Server.Exec_ok
      {
        c with
        Server.ex_corrupted = corrupted;
        ex_fingerprints =
          Some
            (Array.of_list
               (List.map
                  (fun id -> Int64.of_int (if corrupted then -id - 1 else 1000 + id))
                  batch));
      }

let reference_auditor rate =
  {
    Server.au_rate = rate;
    au_seed = 42;
    au_reference = (fun id _ -> Int64.of_int (1000 + id), 80.0);
  }

let test_audit_intercepts_corruption () =
  let arrivals = cluster_arrivals ~n:150 17 in
  let run auditor =
    Stats.summarize
      (Server.simulate ?auditor Server.default_config ~arrivals ~payload:Fun.id
         ~execute:(corrupt_exec ~every:3 ()))
  in
  let off = run None in
  check_true "corruption injected" (off.Stats.s_corrupted_batches > 0);
  check_true "unaudited corruption is delivered silently"
    (off.Stats.s_corrupted_delivered > 0);
  check_int "nothing audited without an auditor" 0 off.Stats.s_audits;
  (* The tentpole oracle: at rate 1.0 every delivery is verified, so zero
     corrupted results reach clients — and no completion is lost doing it. *)
  let full = run (Some (reference_auditor 1.0)) in
  check_int "audit 1.0 delivers zero corrupted results" 0
    full.Stats.s_corrupted_delivered;
  check_int "every completion audited" full.Stats.s_completed full.Stats.s_audits;
  check_true "mismatches caught" (full.Stats.s_audit_mismatches > 0);
  check_int "auditing loses no completions" off.Stats.s_completed
    full.Stats.s_completed;
  let half = run (Some (reference_auditor 0.5)) in
  check_true "sampling reduces delivered corruption"
    (half.Stats.s_corrupted_delivered < off.Stats.s_corrupted_delivered);
  check_true "sampling audits a strict fraction"
    (half.Stats.s_audits > 0 && half.Stats.s_audits < full.Stats.s_audits)

let test_cluster_quarantine_contains_corruption () =
  (* Replica 0 corrupts every batch; full auditing must shield delivery,
     the scoreboard must quarantine it, and — the conservation oracle —
     every offered request still terminates exactly once. *)
  let n = 160 in
  let arrivals = cluster_arrivals ~n 19 in
  let report =
    Cluster.simulate ~auditor:(reference_auditor 1.0)
      { Cluster.default_config with Cluster.c_replicas = 3 }
      ~arrivals ~payload:Fun.id
      ~executors:[| corrupt_exec ~every:1 (); ok_exec; ok_exec |]
  in
  let s = Stats.summarize report.Cluster.cluster_stats in
  check_int "no corrupted result delivered" 0 s.Stats.s_corrupted_delivered;
  check_true "the dirty replica was quarantined" (s.Stats.s_quarantines >= 1);
  let v0 = List.nth report.Cluster.replica_views 0 in
  check_true "a permanently dirty replica never returns to Up"
    (v0.Cluster.rv_health <> Replica.Up);
  check_int "quarantine conserves requests" n
    (s.Stats.s_completed + s.Stats.s_shed + s.Stats.s_expired + s.Stats.s_poisoned
   + s.Stats.s_breaker_shed)

let test_cluster_quarantine_readmits_after_clean_probes () =
  (* A transiently flaky replica: corrupt early batches trip quarantine;
     once its probes audit clean it must be re-admitted. *)
  let arrivals = cluster_arrivals ~n:400 ~rate:6000.0 23 in
  let report =
    Cluster.simulate ~auditor:(reference_auditor 1.0)
      { Cluster.default_config with Cluster.c_replicas = 2 }
      ~arrivals ~payload:Fun.id
      ~executors:[| flaky_then_clean_exec ~bad:2 (); ok_exec |]
  in
  let s = Stats.summarize report.Cluster.cluster_stats in
  check_true "the flaky replica was quarantined" (s.Stats.s_quarantines >= 1);
  check_true "clean probes re-admitted it" (s.Stats.s_quarantine_restores >= 1);
  check_true "probes ran" (s.Stats.s_probes >= 1);
  check_int "recovered fleet delivers no corruption" 0 s.Stats.s_corrupted_delivered;
  let v0 = List.nth report.Cluster.replica_views 0 in
  check_true "the recovered replica ends healthy" (v0.Cluster.rv_health = Replica.Up)

let test_cluster_audit_deterministic () =
  let run () =
    let arrivals = cluster_arrivals ~n:150 29 in
    let report =
      Cluster.simulate ~auditor:(reference_auditor 0.5)
        { Cluster.default_config with Cluster.c_replicas = 2 }
        ~arrivals ~payload:Fun.id
        ~executors:[| flaky_then_clean_exec ~bad:3 (); ok_exec |]
    in
    Json.to_string (Stats.summary_to_json (Stats.summarize report.Cluster.cluster_stats))
  in
  Alcotest.(check string) "identical audited cluster JSON across reruns" (run ()) (run ())

let test_integrity_counters_gated () =
  (* The integrity block is activity-gated: a legacy run's summary JSON,
     pp and metrics carry not a single new key, so byte-stability holds. *)
  let arrivals = cluster_arrivals ~n:100 31 in
  let summary auditor =
    Stats.summarize
      (Server.simulate ?auditor Server.default_config ~arrivals ~payload:Fun.id
         ~execute:ok_exec)
  in
  let j s = Json.to_string (Stats.summary_to_json s) in
  check_bool "legacy summary JSON carries no integrity keys" false
    (contains (j (summary None)) "audit");
  check_true "an armed auditor surfaces the integrity block"
    (contains (j (summary (Some (reference_auditor 1.0)))) "audits")

(* --- End to end on a real compiled model --- *)

let serve_tiny ?faults ~policy () =
  serve_model ~iters:50 ~policy ?faults
    ~process:(Traffic.Poisson { rate_per_s = 8000.0 })
    ~requests:80 ~seed:3 (Models.tiny "treelstm")

let test_serve_model_deterministic () =
  let json r = Json.to_string (serve_report_json r) in
  let a = serve_tiny ~policy:Server.default_config.Server.policy () in
  let b = serve_tiny ~policy:Server.default_config.Server.policy () in
  Alcotest.(check string) "identical report JSON" (json a) (json b)

let test_adaptive_beats_batch1 () =
  let summary policy = (serve_tiny ~policy ()).sv_summary in
  let b1 = summary Batcher.Batch1 in
  let ad = summary (Batcher.Adaptive { max_batch = 16; max_wait_us = 2000.0 }) in
  check_true "adaptive throughput strictly higher"
    (ad.Stats.s_throughput_rps > b1.Stats.s_throughput_rps);
  check_true "adaptive p99 strictly lower" (ad.Stats.s_p99_ms < b1.Stats.s_p99_ms);
  check_true "adaptive actually batches" (ad.Stats.s_mean_batch > 1.5);
  check_int "batch1 never batches" 80 b1.Stats.s_batches

let test_serve_model_goodput_under_faults () =
  (* ISSUE acceptance: a 5% transient kernel-fault rate must not cost more
     than 10% of fault-free goodput — retry + bisection + breaker absorb it. *)
  let policy = Batcher.Adaptive { max_batch = 16; max_wait_us = 2000.0 } in
  let clean = (serve_tiny ~policy ()).sv_summary in
  let faulty =
    (serve_tiny ~faults:(Faults.parse "seed=7,kernel=0.05") ~policy ()).sv_summary
  in
  check_true "faults were actually injected" (faulty.Stats.s_fault_batches > 0);
  check_true "retries ran" (faulty.Stats.s_retries > 0);
  check_true "goodput within 90% of fault-free"
    (Stats.goodput faulty >= 0.9 *. Stats.goodput clean)

(* Queue pressure degrades any server, but only a fault plan or brownout
   lets a replica swap in the model's degraded variant. Replica 0 is clean;
   the second plan arms the fleet's fault mode with no replica to run it.
   Berxit, which has a degraded variant, must then serve exactly as a copy
   of it without one. *)
let test_cluster_clean_replica_keeps_primary_model () =
  let run model =
    serve_cluster ~iters:50 ~queue_capacity:8
      ~fault_plans:[ Faults.none; Faults.parse "seed=7,kernel=0.3" ]
      ~process:(Traffic.Poisson { rate_per_s = 100_000.0 })
      ~requests:300 ~seed:1 model
  in
  let berxit = Models.tiny "berxit" in
  let primary = run berxit and plain = run { berxit with Model.degraded = None } in
  check_true "the clean replica degraded under queue pressure"
    (primary.cr_summary.Stats.s_degraded_batches > 0);
  Alcotest.(check string) "the clean replica kept the primary model"
    (Json.to_string (cluster_report_json plain))
    (Json.to_string (cluster_report_json primary))

let test_serve_model_poison_isolated () =
  (* A poisoned request id must be the only drop: bisection fences it off
     while the rest of its batch completes. *)
  let policy = Batcher.Adaptive { max_batch = 16; max_wait_us = 2000.0 } in
  let s = (serve_tiny ~faults:(Faults.parse "poison=5") ~policy ()).sv_summary in
  check_int "only the poison dropped" 1 s.Stats.s_poisoned;
  check_int "everyone else completes" 79 s.Stats.s_completed;
  check_int "nothing shed" 0 (s.Stats.s_shed + s.Stats.s_breaker_shed)

let test_serve_model_faulty_deterministic () =
  (* Satellite: same seed + same fault plan => byte-identical stats JSON. *)
  let run () =
    Json.to_string
      (serve_report_json
         (serve_tiny
            ~faults:(Faults.parse "seed=11,kernel=0.08,straggler=0.05x4,reset=0.01")
            ~policy:Server.default_config.Server.policy ()))
  in
  Alcotest.(check string) "identical faulty report JSON" (run ()) (run ())

let test_serve_model_audited_corruption () =
  (* End to end through the real engine stack: the device silently perturbs
     half its batch attempts; the auditor re-executes each sampled request
     unbatched and compares real tensor fingerprints. *)
  let policy = Batcher.Adaptive { max_batch = 16; max_wait_us = 2000.0 } in
  let run audit =
    (serve_model ~iters:50 ~policy
       ~faults:(Faults.parse "seed=9,corrupt=0.5")
       ~audit
       ~process:(Traffic.Poisson { rate_per_s = 8000.0 })
       ~requests:60 ~seed:3 (Models.tiny "treelstm"))
      .sv_summary
  in
  let off = run 0.0 in
  check_true "corruption injected" (off.Stats.s_corrupted_batches > 0);
  check_true "unaudited corruption delivered" (off.Stats.s_corrupted_delivered > 0);
  let full = run 1.0 in
  check_int "audit 1.0 delivers zero corrupted results" 0
    full.Stats.s_corrupted_delivered;
  check_true "real fingerprint mismatches detected" (full.Stats.s_audit_mismatches > 0);
  check_int "auditing loses no completions" off.Stats.s_completed
    full.Stats.s_completed

let test_degraded_variant_wired () =
  (* Early-exit models expose a degraded variant that shares input and
     weight shapes with the primary; others advertise none. *)
  let b = Models.tiny "berxit" in
  (match b.Model.degraded with
  | None -> Alcotest.fail "berxit should carry a degraded variant"
  | Some d ->
    check_true "degraded source differs (higher exit probability)"
      (d.Model.source <> b.Model.source);
    check_true "degraded variant is terminal" (d.Model.degraded = None);
    Alcotest.(check (list string)) "same inputs" b.Model.inputs d.Model.inputs);
  check_true "treelstm has no degraded variant"
    ((Models.tiny "treelstm").Model.degraded = None)

(* --- Statistics edge cases (satellite of the telemetry fixes) --- *)

let test_percentile_edges () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check_float "p100 is the max" 5.0 (Stats.percentile xs 100.0);
  check_float "p -> 0 is the min" 1.0 (Stats.percentile xs 0.001);
  check_float "p = 0 is the min" 1.0 (Stats.percentile xs 0.0);
  check_float "p50 nearest-rank" 3.0 (Stats.percentile xs 50.0);
  check_true "input stays unsorted" (xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |]);
  check_float "singleton at p0" 7.0 (Stats.percentile [| 7.0 |] 0.0);
  check_float "singleton at p100" 7.0 (Stats.percentile [| 7.0 |] 100.0);
  check_float "empty sample is 0" 0.0 (Stats.percentile [||] 50.0)

let test_percentile_sorted_agreement () =
  (* summarize sorts the latencies once and reads every percentile off the
     sorted array; the fast path must agree with the sort-per-call one. *)
  let agree xs =
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    List.iter
      (fun p ->
        check_float
          (Fmt.str "p%g agrees on %d samples" p (Array.length xs))
          (Stats.percentile xs p)
          (Stats.percentile_sorted sorted p))
      [ 0.0; 25.0; 50.0; 90.0; 95.0; 99.0; 100.0 ]
  in
  agree [||];
  agree [| 7.0 |];
  agree [| 5.0; 1.0; 4.0; 2.0; 3.0 |];
  let rng = Rng.create 17 in
  agree (Array.init 101 (fun _ -> 1000.0 *. Rng.float rng));
  (* And the summary itself reads off the single sorted pass. *)
  let stats = Stats.create () in
  let rng = Rng.create 18 in
  let lats_ms =
    Array.init 50 (fun i ->
        let latency_us = 500.0 *. Rng.float rng in
        Stats.record stats
          {
            Stats.r_id = i;
            r_arrival_us = 10.0 *. float_of_int i;
            r_start_us = 10.0 *. float_of_int i;
            r_done_us = (10.0 *. float_of_int i) +. latency_us;
            r_batch_size = 1;
          };
        latency_us /. 1000.0)
  in
  let s = Stats.summarize stats in
  check_float "summary p50 matches percentile" (Stats.percentile lats_ms 50.0)
    s.Stats.s_p50_ms;
  check_float "summary p95 matches percentile" (Stats.percentile lats_ms 95.0)
    s.Stats.s_p95_ms;
  check_float "summary p99 matches percentile" (Stats.percentile lats_ms 99.0)
    s.Stats.s_p99_ms

let test_event_loop_debug_order_check () =
  (* With debug checks armed, a handler that drags the clock past a pending
     event's due time must crash the run instead of dispatching stale
     events silently. *)
  let run_with_time_warp () =
    let loop = Event_loop.create (Clock.create ()) in
    Event_loop.schedule loop ~at:100.0 (fun () ->
        (* Misbehaving handler: advances the shared clock beyond the event
           scheduled at t=200, so that event pops "in the past". *)
        Clock.advance_to (Event_loop.clock loop) 500.0);
    Event_loop.schedule loop ~at:200.0 (fun () -> ());
    Event_loop.run loop
  in
  let was = Event_loop.debug_checks_enabled () in
  Fun.protect
    ~finally:(fun () -> Event_loop.set_debug_checks was)
    (fun () ->
      Event_loop.set_debug_checks false;
      run_with_time_warp ();
      Event_loop.set_debug_checks true;
      match run_with_time_warp () with
      | () -> Alcotest.fail "debug checks armed: dispatch regression must raise"
      | exception Invalid_argument msg ->
        check_true "error names the regression" (contains msg "dispatch order regression"))

(* --- Replica health-transition property ---

   Drive one replica with a scripted verdict tape (0 = ok, 1 = transient
   kernel fault, 2 = device reset) under a hair-trigger tolerance (any
   fault fails over), logging every health callback. Whatever the tape,
   the health machine must respect its protocol: a replica never
   resurrects without a successful probe (Down -> ProbeReady -> Up, in
   that order), and failover epochs are strictly increasing. *)

let gen_verdict_tape = QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 2))

let replica_health_prop (verdicts : int list) : bool =
  let loop = Event_loop.create (Clock.create ()) in
  let tape = ref verdicts in
  let next_verdict () =
    match !tape with [] -> 0 | v :: rest -> tape := rest; v
  in
  let config =
    {
      Server.default_config with
      Server.policy = Batcher.Batch1;
      queue_capacity = 256;
      tolerance =
        {
          Server.default_tolerance with
          Server.max_retries = 0;
          breaker_threshold = 1;
          breaker_cooldown_us = 1000.0;
        };
    }
  in
  let execute ~degraded:_ _batch =
    match next_verdict () with
    | 0 ->
      Server.Exec_ok
        {
          Server.ex_latency_us = 100.0;
          ex_profiler = None;
          ex_fingerprints = None;
          ex_corrupted = false;
        }
    | v ->
      Server.Exec_fault
        {
          ef_latency_us = 50.0;
          ef_reason = "scripted";
          ef_transient = true;
          ef_oom = false;
          ef_reset = v = 2;
        }
  in
  let events = ref [] in
  let note e = events := e :: !events in
  let repl = ref None in
  let the_repl () = Option.get !repl in
  let next_id = ref 0 in
  (* One outstanding request at a time; each executed attempt consumes
     exactly one scripted verdict. *)
  let feed () =
    let id = !next_id in
    incr next_id;
    ignore
      (Replica.enqueue (the_repl ())
         {
           Admission.rq_id = id;
           rq_payload = id;
           rq_arrival_us = Event_loop.now loop;
           rq_deadline_us = None;
         })
  in
  let cb =
    {
      Replica.cb_live = (fun _ -> true);
      cb_completed =
        (fun ~replica:_ _ ~size:_ ~start_us:_ ~done_us:_ ->
          if !tape <> [] then feed ());
      cb_cancelled = (fun ~replica:_ _ -> ());
      cb_lost = (fun ~replica:_ _ _ -> ());
      cb_down = (fun ~replica:_ _ -> note (`Down (Replica.epoch (the_repl ()))));
      cb_quarantined = (fun ~replica:_ _ -> ());
      cb_probe_ready =
        (fun ~replica:_ ->
          note `ProbeReady;
          feed () (* route the single probe request *));
      cb_up = (fun ~replica:_ -> note `Up);
    }
  in
  repl := Some (Replica.create ~id:0 ~loop ~config ~reset_threshold:1 ~execute ~cb ());
  feed ();
  Event_loop.run loop;
  let log = List.rev !events in
  (* Down only from Up or Probing; ProbeReady only from Down; Up only from
     Probing — never resurrect without a successful probe. *)
  let state = ref `U in
  let ok_machine =
    List.for_all
      (fun e ->
        match e, !state with
        | `Down _, (`U | `P) -> state := `D; true
        | `ProbeReady, `D -> state := `P; true
        | `Up, `P -> state := `U; true
        | _ -> false)
      log
  in
  let epochs = List.filter_map (function `Down e -> Some e | _ -> None) log in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  (* The tape always ends on implicit successes, so the replica must have
     recovered (and the whole script must have been consumed). *)
  ok_machine && increasing epochs && !tape = [] && Replica.health (the_repl ()) = Replica.Up

let test_hedge_warmup_boundary () =
  (* The estimator must stay off through min_obs - 1 observations and arm
     exactly at min_obs, reading only the observed prefix of the window
     (the unobserved slots hold zeros, which would drag p50 down). *)
  check_true "empty window: off" (Hedge.delay (Hedge.window ()) ~percentile:95.0 = None);
  let w = Hedge.window () in
  for i = 1 to Hedge.min_obs - 1 do
    Hedge.observe w (float_of_int i)
  done;
  check_true "one short of warm-up: off" (Hedge.delay w ~percentile:95.0 = None);
  Hedge.observe w (float_of_int Hedge.min_obs);
  (match Hedge.delay w ~percentile:50.0 with
  | None -> Alcotest.fail "estimator still off at min_obs"
  | Some d -> check_float "p50 of the first 8 observations" 4.0 d);
  match Hedge.delay w ~percentile:100.0 with
  | None -> Alcotest.fail "estimator still off at min_obs"
  | Some d -> check_float "unobserved ring entries are not read" 8.0 d

(* Random copy-level event scripts against one request's ledger: 0 issues
   the hedge (as both dispatchers do, only while unresolved and unhedged), 1
   completes a live copy, 2 loses one. The request resolves exactly once —
   by its first completion or by its last loss, never both — and an
   unhedged request resolves on its first event. *)
let gen_hedge_script = QCheck2.Gen.(list_size (int_range 0 12) (int_range 0 2))

let prop_hedge_ledger script =
  let c = Hedge.single () in
  let firsts = ref 0 and terminals = ref 0 and ok = ref true in
  List.iter
    (fun op ->
      (match op with
      | 0 -> if (not c.Hedge.resolved) && c.Hedge.hedge = None then Hedge.add_hedge c ()
      | 1 when c.Hedge.live > 0 ->
        let first = Hedge.complete c in
        if first then incr firsts;
        if c.Hedge.hedge = None && not first then ok := false
      | 2 when c.Hedge.live > 0 -> (
        match Hedge.lose c with
        | Hedge.Terminal ->
          if !firsts > 0 then ok := false;
          incr terminals
        | Hedge.Live | Hedge.Resolved -> if c.Hedge.hedge = None then ok := false)
      | _ -> ());
      if c.Hedge.live < 0 then ok := false)
    script;
  !ok && !firsts <= 1 && !terminals <= 1
  && !firsts + !terminals = (if c.Hedge.resolved then 1 else 0)
  && (c.Hedge.live > 0 || c.Hedge.resolved)

(* --- Observability: clamp accounting, tracing, metrics, JSON --- *)

let test_no_clamped_schedules_in_serving () =
  (* Bugfix assert: healthy end-to-end simulations must never schedule into
     the past — silently clamped events were the dropped-telemetry symptom. *)
  let arrivals =
    Traffic.arrivals ~rng:(Rng.create 9) (Traffic.Poisson { rate_per_s = 5000.0 }) ~n:200
  in
  let s = Stats.summarize (simulate ~arrivals ()) in
  check_int "server: no clamped schedules" 0 s.Stats.s_clamped_schedules;
  let report =
    Cluster.simulate
      { Cluster.default_config with Cluster.c_replicas = 3;
        Cluster.c_hedge_percentile = Some 90.0 }
      ~arrivals:(cluster_arrivals ~n:120 13) ~payload:Fun.id
      ~executors:[| always_reset; straggler_exec ~every:6 ~mult:25.0 (); ok_exec |]
  in
  let cs = Stats.summarize report.Cluster.cluster_stats in
  check_int "cluster: no clamped schedules" 0 cs.Stats.s_clamped_schedules

let terminal_names = [ "done"; "expired"; "shed"; "shed_breaker"; "poisoned"; "budget_exhausted" ]

let test_trace_deterministic_and_covering () =
  let n = 50 in
  let run () =
    let tracer = Trace.create () in
    let arrivals =
      Traffic.arrivals ~rng:(Rng.create 9) (Traffic.Poisson { rate_per_s = 5000.0 }) ~n
    in
    ignore
      (Server.simulate ~tracer Server.default_config ~arrivals
         ~payload:(fun i -> i)
         ~execute:(Server.infallible (linear_cost ~fixed:100.0 ~per_item:10.0)));
    tracer
  in
  let a = Json.to_string (Trace.to_json (run ())) in
  let b = Json.to_string (Trace.to_json (run ())) in
  Alcotest.(check string) "same seed, same trace JSON" a b;
  (* Lifecycle coverage: every request id is admitted once and reaches
     exactly one terminal state, on its own thread track. *)
  let evs = Trace.events (run ()) in
  let count f = List.length (List.filter f evs) in
  for id = 0 to n - 1 do
    let tid = Server.req_tid id in
    check_int (Fmt.str "request %d admitted once" id) 1
      (count (fun e -> e.Trace.ev_name = "admit" && e.Trace.ev_tid = tid));
    check_int (Fmt.str "request %d has one terminal" id) 1
      (count (fun e -> List.mem e.Trace.ev_name terminal_names && e.Trace.ev_tid = tid))
  done;
  check_true "batch spans on the device track"
    (count (fun e -> e.Trace.ev_name = "batch" && e.Trace.ev_tid = 0) > 0);
  check_true "queue spans recorded"
    (count (fun e -> e.Trace.ev_name = "queue" && e.Trace.ev_ph = 'X') > 0)

let test_trace_faulty_coverage () =
  (* Under faults + deadlines + a tiny queue, the dropped requests must
     still reach a terminal trace event (this is where telemetry used to
     vanish silently). *)
  let run () =
    let tracer = Trace.create () in
    let n = ref 0 in
    let execute ~degraded:_ batch =
      incr n;
      if !n mod 4 = 0 then fault "periodic" else ok batch
    in
    let config =
      { Server.default_config with
        Server.queue_capacity = 4; Server.deadline_us = Some 4_000.0 }
    in
    let arrivals =
      Traffic.arrivals ~rng:(Rng.create 3) (Traffic.Poisson { rate_per_s = 20_000.0 }) ~n:60
    in
    let stats = Server.simulate ~tracer config ~arrivals ~payload:(fun i -> i) ~execute in
    tracer, Stats.summarize stats
  in
  let tracer, s = run () in
  check_true "some requests actually dropped" (s.Stats.s_shed + s.Stats.s_expired > 0);
  let evs = Trace.events tracer in
  let count f = List.length (List.filter f evs) in
  for id = 0 to 59 do
    check_int (Fmt.str "request %d has one terminal" id) 1
      (count (fun e ->
           List.mem e.Trace.ev_name terminal_names && e.Trace.ev_tid = Server.req_tid id))
  done;
  check_int "terminals balance the offered load" 60
    (count (fun e -> List.mem e.Trace.ev_name terminal_names))

let test_trace_null_is_noop () =
  check_true "null tracer disabled" (not (Trace.enabled Trace.null));
  Trace.instant Trace.null ~name:"x" ~ts_us:0.0;
  Trace.complete Trace.null ~name:"y" ~ts_us:0.0 ~dur_us:1.0;
  Trace.name_process Trace.null ~name:"p";
  check_int "null tracer records nothing" 0 (Trace.event_count Trace.null)

let test_metrics_registry () =
  (* The serving stats carry the metrics timeline: each snapshot reads the
     counters as they stand at its virtual time, and the export lists its
     keys in a fixed order with the limiter gauge first. *)
  let stats = Stats.create () in
  stats.Stats.limit_armed <- true;
  let loop = Event_loop.create (Clock.create ()) in
  Event_loop.schedule loop ~at:15.0 (fun () ->
      Stats.incr stats Stats.shed;
      stats.Stats.limit <- 2.5);
  Stats.snapshot_periodically ~every_us:10.0 stats loop;
  Event_loop.run loop;
  Stats.finish stats loop;
  (match Stats.snapshots stats with
  | [ (t0, before); (t1, after) ] ->
    check_float "first snapshot on the virtual clock" 10.0 t0;
    check_float "the chain stops once the work is done" 20.0 t1;
    check_float "gauge reads 0 before the first observation" 0.0
      (List.assoc "resilience.limit" before);
    check_float "a counter reads its value at snapshot time" 0.0
      (List.assoc "serve.shed" before);
    check_float "later snapshots see later counts" 1.0 (List.assoc "serve.shed" after);
    check_float "offered counts the outcome" 1.0 (List.assoc "serve.offered" after)
  | snaps -> Alcotest.failf "expected 2 snapshots, got %d" (List.length snaps));
  (match Stats.metrics_json stats with
  | Json.Obj [ ("metrics", Json.Obj fields); ("snapshots", Json.List [ _; snap ]) ] ->
    Alcotest.(check (list string)) "export order"
      [ "resilience.limit"; "serve.offered"; "serve.completed"; "serve.shed";
        "serve.expired"; "serve.batches" ]
      (List.filteri (fun i _ -> i < 6) (List.map fst fields));
    check_true "the gauge exports as a float"
      (List.assoc "resilience.limit" fields = Json.Float 2.5);
    check_true "counters export as ints" (List.assoc "serve.shed" fields = Json.Int 1);
    check_true "idle net rows stay out"
      (not (List.exists (fun (k, _) -> contains k "net_") fields));
    check_true "device counters close the export"
      (fst (List.nth fields (List.length fields - 1)) = "device.fiber_switches");
    check_true "snapshot carries its virtual timestamp"
      (Json.member "ts_us" snap = Some (Json.Float 20.0))
  | _ -> Alcotest.fail "unexpected metrics JSON shape");
  check_true "no snapshots without an interval"
    (Json.member "snapshots" (Stats.metrics_json (Stats.create ())) = Some (Json.List []))

(* Final value of metric [name] in [stats]' export. *)
let final_metric stats name =
  match Option.bind (Json.member "metrics" (Stats.metrics_json stats)) (Json.member name) with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "no counter %s in the metrics export" name

let test_serve_metrics_end_to_end () =
  let arrivals =
    Traffic.arrivals ~rng:(Rng.create 9) (Traffic.Poisson { rate_per_s = 5000.0 }) ~n:200
  in
  let stats =
    Server.simulate ~snapshot_every_us:10_000.0 Server.default_config ~arrivals
      ~payload:(fun i -> i)
      ~execute:ok_exec
  in
  let s = Stats.summarize stats in
  let counter = final_metric stats in
  check_int "serve.offered mirrors the summary" s.Stats.s_offered (counter "serve.offered");
  check_int "serve.completed mirrors the summary" s.Stats.s_completed
    (counter "serve.completed");
  check_int "serve.batches mirrors the summary" s.Stats.s_batches (counter "serve.batches");
  check_int "serve.clamped_schedules is zero" 0 (counter "serve.clamped_schedules");
  check_true "periodic snapshots were captured" (List.length (Stats.snapshots stats) > 1)

let test_json_parse_roundtrip () =
  let j =
    Json.Obj
      [
        "a", Json.Int 42;
        "b", Json.Float 1.5;
        "c", Json.Str "he\"llo\n\tworld\\";
        "d", Json.List [ Json.Bool true; Json.Bool false; Json.Null; Json.Int (-3) ];
        "e", Json.Obj [];
        "f", Json.List [];
      ]
  in
  let s = Json.to_string j in
  check_true "parse inverts to_string" (Json.parse s = j);
  Alcotest.(check string) "emission is a fixed point" s (Json.to_string (Json.parse s));
  check_true "whitespace tolerated"
    (Json.member "x" (Json.parse "  { \"x\" : [ 1 , 2.5 , \"y\" ] }  ") <> None);
  check_true "truncated input rejected"
    (try
       ignore (Json.parse "{\"a\": [1, 2");
       false
     with Json.Parse_error _ -> true);
  check_true "trailing garbage rejected"
    (try
       ignore (Json.parse "{} {}");
       false
     with Json.Parse_error _ -> true)

(* --- Net: lossy transport, exactly-once delivery, partition-tolerant
   failover (DESIGN.md §16) --- *)

(* Terminal sum: [summarize] derives s_offered from exactly these, so
   equality with the request count is the conservation check. *)
let net_terminals (s : Stats.summary) =
  s.Stats.s_completed + s.Stats.s_shed + s.Stats.s_expired + s.Stats.s_poisoned
  + s.Stats.s_breaker_shed + s.Stats.s_quota_shed + s.Stats.s_limit_shed
  + s.Stats.s_retry_shed + s.Stats.s_net_shed

(* The three transport conservation laws the chaos oracle enforces,
   checked directly on a summary. *)
let check_net_conservation (s : Stats.summary) =
  check_int "every transmitted copy lands in one bucket"
    (s.Stats.s_net_sends + s.Stats.s_net_dups)
    (s.Stats.s_net_deliveries + s.Stats.s_net_drops + s.Stats.s_net_partition_drops);
  check_int "every delivery is fresh or a dedup hit" s.Stats.s_net_deliveries
    (s.Stats.s_net_fresh + s.Stats.s_net_dedup_hits);
  check_int "every ack lands in one bucket" s.Stats.s_net_acks
    (s.Stats.s_net_ack_deliveries + s.Stats.s_net_ack_drops + s.Stats.s_net_gray_drops)

let test_net_parse_roundtrip () =
  let spec =
    "seed=7,delay=80:20,drop=0.1,dup=0.2,reorder=0.05,gray=0.02,partition=4000:9000:2,\
     timeout=5000,resends=3,dedup=0,window=64"
  in
  let p = Net.parse spec in
  check_true "clauses land in the right fields"
    (p.Net.np_drop = 0.1 && p.Net.np_dup = 0.2 && p.Net.np_jitter_us = 20.0
   && p.Net.np_window = 64
    && (not p.Net.np_dedup)
    && p.Net.np_partition = Some (4000.0, 9000.0, [ 2 ]));
  check_true "round-trip through to_spec" (Net.parse (Net.to_spec p) = p);
  check_true "defaults stay short" (Net.to_spec Net.none = "seed=0,delay=0:0,drop=0,dup=0,reorder=0,gray=0");
  let msg f = match f () with _ -> "" | exception Invalid_argument m -> m in
  (* Both plan languages reject unknown keys listing their own full valid
     set — the shared clause helper at work. *)
  let nm = msg (fun () -> Net.parse "delai=80") in
  check_true "net plan names the bad key" (contains nm "delai");
  check_true "net plan lists its valid keys"
    (contains nm "partition" && contains nm "window" && contains nm "gray");
  let fm = msg (fun () -> Faults.parse "kernal=0.1") in
  check_true "fault plan names the bad key" (contains fm "kernal");
  check_true "fault plan lists its valid keys"
    (contains fm "straggler" && contains fm "poison" && contains fm "flaky");
  (* A lossy plan with no timeout could never terminate lost requests. *)
  let vm = msg (fun () -> Net.parse "drop=0.1,timeout=0") in
  check_true "lossy plan requires a timeout" (contains vm "timeout")

let test_net_exactly_once () =
  let n = 160 in
  let arrivals = cluster_arrivals ~n 17 in
  let plan = Net.parse "seed=5,delay=150:60,drop=0.08,dup=0.3,timeout=3000,resends=3" in
  let report =
    Cluster.simulate
      { Cluster.default_config with Cluster.c_replicas = 3; Cluster.c_net = Some plan }
      ~arrivals ~payload:Fun.id
      ~executors:[| ok_exec; ok_exec; ok_exec |]
  in
  let st = report.Cluster.cluster_stats in
  let s = Stats.summarize st in
  check_int "every request terminates exactly once" n (net_terminals s);
  check_int "offered matches the arrival count" n s.Stats.s_offered;
  check_true "duplication and loss actually fired"
    (s.Stats.s_net_dups > 0 && s.Stats.s_net_drops > 0 && s.Stats.s_net_timeouts > 0);
  check_true "the dedup window absorbed duplicates" (s.Stats.s_net_dedup_hits > 0);
  check_net_conservation s;
  let ids = List.map (fun r -> r.Stats.r_id) st.Stats.records in
  check_int "no request id completed twice" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_net_partition_failover_deterministic () =
  (* Replica 2 is cut off mid-run; dispatch must fail over to the
     surviving replicas until the heal, then the whole run must replay
     byte-identically. *)
  let run () =
    let arrivals = cluster_arrivals ~n:160 21 in
    let plan = Net.parse "seed=9,delay=100,partition=5000:20000:2,timeout=2000,resends=1" in
    Cluster.simulate
      { Cluster.default_config with Cluster.c_replicas = 3; Cluster.c_net = Some plan }
      ~arrivals ~payload:Fun.id
      ~executors:[| ok_exec; ok_exec; ok_exec |]
  in
  let report = run () in
  let s = Stats.summarize report.Cluster.cluster_stats in
  check_int "every request terminates exactly once" 160 (net_terminals s);
  check_true "the cut was detected" (s.Stats.s_net_link_downs >= 1);
  check_true "the link healed" (s.Stats.s_net_heals >= 1);
  check_true "work still completes through the partition"
    (s.Stats.s_completed >= 150);
  check_net_conservation s;
  let json r =
    Json.to_string
      (Json.Obj
         (("cluster", Stats.summary_to_json (Stats.summarize r.Cluster.cluster_stats))
         :: List.map
              (fun v ->
                ( Fmt.str "replica%d" v.Cluster.rv_id,
                  Stats.summary_to_json (Stats.summarize v.Cluster.rv_stats) ))
              r.Cluster.replica_views))
  in
  Alcotest.(check string) "partition/heal run replays byte-identically" (json report)
    (json (run ()))

let test_net_deadline_shed () =
  (* Completed requests teach the EWMA the link costs ~800us one way; a
     dropped request's resend fires after the 3ms timeout, by which point
     the remaining 500us of budget cannot cover the transit — the sender
     sheds at the resend instead of wasting the transmit. *)
  let n = 60 in
  let arrivals = cluster_arrivals ~n ~rate:2000.0 23 in
  let plan = Net.parse "seed=3,delay=800,drop=0.3,timeout=3000,resends=3" in
  let report =
    Cluster.simulate
      { Cluster.default_config with
        Cluster.c_replicas = 2;
        Cluster.c_net = Some plan;
        Cluster.c_server =
          { Server.default_config with Server.deadline_us = Some 3500.0 } }
      ~arrivals ~payload:Fun.id
      ~executors:[| ok_exec; ok_exec |]
  in
  let s = Stats.summarize report.Cluster.cluster_stats in
  check_int "every request terminates exactly once" n (net_terminals s);
  check_true "the sender shed doomed dispatches" (s.Stats.s_net_shed > 0);
  check_net_conservation s

let test_net_disarmed_identity () =
  (* c_net = Some Net.none must take the direct-call path: byte-identical
     to c_net = None (no RNG draws, no schedules, no counters). *)
  let arrivals = cluster_arrivals ~n:150 27 in
  let run net =
    let report =
      Cluster.simulate
        { Cluster.default_config with Cluster.c_replicas = 3; Cluster.c_net = net }
        ~arrivals ~payload:Fun.id
        ~executors:[| ok_exec; straggler_exec ~every:7 ~mult:20.0 (); ok_exec |]
    in
    Json.to_string (Stats.summary_to_json (Stats.summarize report.Cluster.cluster_stats))
  in
  Alcotest.(check string) "disarmed plan is byte-identical to no plan" (run None)
    (run (Some Net.none))

let test_net_naive_reexecutes () =
  (* Same transport, dedup on vs off: naive resend must re-execute the
     duplicated deliveries (more fresh executions for the same work),
     while exactly-once absorbs every one in the idempotency window. *)
  let arrivals = cluster_arrivals ~n:160 31 in
  let plan = Net.parse "seed=5,delay=200:80,drop=0.05,dup=0.4,timeout=3000,resends=3" in
  let run dedup =
    let report =
      Cluster.simulate
        { Cluster.default_config with
          Cluster.c_replicas = 3;
          Cluster.c_net = Some { plan with Net.np_dedup = dedup } }
        ~arrivals ~payload:Fun.id
        ~executors:[| ok_exec; ok_exec; ok_exec |]
    in
    Stats.summarize report.Cluster.cluster_stats
  in
  let exact = run true in
  let naive = run false in
  check_int "exactly-once terminates every request" 160 (net_terminals exact);
  check_int "naive resend terminates every request" 160 (net_terminals naive);
  check_true "exactly-once absorbed duplicates" (exact.Stats.s_net_dedup_hits > 0);
  check_int "naive never deduplicates" 0 naive.Stats.s_net_dedup_hits;
  check_true "naive re-executes what the window would have absorbed"
    (naive.Stats.s_net_fresh > exact.Stats.s_net_fresh);
  check_net_conservation exact;
  check_net_conservation naive

(* --- QCheck: the dedup window against an ordered-list model --- *)

(* Scripts over a small key space: note (a delivery executing) or remove
   (a shed delivery's nack). The model is the insertion-ordered list of
   live keys, bounded at capacity. *)
let gen_dedup_script =
  QCheck2.Gen.(
    pair (int_range 1 8) (list_size (int_range 1 150) (pair (int_range 0 20) bool)))

let dedup_window_prop (capacity, script) =
  let w = Net.Dedup.create ~capacity in
  let model = ref [] in
  List.iter
    (fun (k, is_remove) ->
      if is_remove then begin
        Net.Dedup.remove w k;
        model := List.filter (fun k' -> k' <> k) !model
      end
      else begin
        (* Duplicate delivery never double-executes: the window's verdict
           must agree with the model's liveness before the note. *)
        let fresh = not (Net.Dedup.mem w k) in
        let model_fresh = not (List.mem k !model) in
        if fresh <> model_fresh then
          QCheck2.Test.fail_reportf "key %d: window fresh=%b, model fresh=%b" k fresh
            model_fresh;
        Net.Dedup.note w k k;
        if model_fresh then begin
          model := !model @ [ k ];
          if List.length !model > capacity then model := List.tl !model
        end
      end;
      (* Eviction never forgets a live id: every key the model still holds
         must still be in the window, and the window holds nothing more. *)
      if not (List.for_all (Net.Dedup.mem w) !model) then
        QCheck2.Test.fail_reportf "a live key was evicted early";
      if Net.Dedup.length w <> List.length !model then
        QCheck2.Test.fail_reportf "window holds %d keys, model %d" (Net.Dedup.length w)
          (List.length !model);
      (* Stale entries of removed keys never pile up past the bound. *)
      if Net.Dedup.queued w > 2 * capacity then
        QCheck2.Test.fail_reportf "%d queued entries for capacity %d" (Net.Dedup.queued w)
          capacity)
    script;
  true

(* The shed-nack storm: every delivery is noted and then removed. The
   window ends empty, and its insertion queue stays within twice the
   capacity instead of growing with every key ever seen. *)
let test_dedup_remove_storm_bounded () =
  let capacity = 512 in
  let w = Net.Dedup.create ~capacity in
  let worst = ref 0 in
  for k = 1 to 200_000 do
    Net.Dedup.note w k ();
    Net.Dedup.remove w k;
    worst := max !worst (Net.Dedup.queued w)
  done;
  check_int "no live keys" 0 (Net.Dedup.length w);
  check_true "queue bounded by twice the capacity" (!worst <= 2 * capacity)

(* Two self-rescheduling observers that each continue only while work is
   pending: as daemons they stop once the real work is done instead of
   keeping each other alive. *)
let test_event_loop_daemons_drain () =
  let loop = Event_loop.create (Clock.create ()) in
  let steps = ref 0 in
  let rec chain every () =
    incr steps;
    if !steps > 1_000 then Alcotest.fail "daemon chains never drained";
    if Event_loop.pending_work loop > 0 then
      Event_loop.schedule_daemon loop ~delay:every (chain every)
  in
  Event_loop.feed loop [| 10.0; 35.0 |] ignore;
  Event_loop.schedule_daemon loop ~delay:4.0 (chain 4.0);
  Event_loop.schedule_daemon loop ~delay:7.0 (chain 7.0);
  check_int "daemons are pending but not work" 2
    (Event_loop.pending loop - Event_loop.pending_work loop);
  Event_loop.run loop;
  check_int "nothing left" 0 (Event_loop.pending loop);
  (* The 4us chain fires at 4..36, the 7us one at 7..35 (the first step
     past the last arrival sees no work). *)
  check_int "both chains stopped after the work" (9 + 5) !steps;
  check_float "the clock stops at the last daemon step" 36.0 (Event_loop.now loop)

(* Live metrics snapshots and a movable autoscaler: the snapshot chain and
   the tick are both daemons, so neither keeps the other pending and the
   run drains. The snapshots do not change what was served. *)
let test_tenancy_metrics_with_autoscaler_drains () =
  let module Tenant = Tenancy.Tenant in
  let module Dispatcher = Tenancy.Dispatcher in
  let module Autoscaler = Tenancy.Autoscaler in
  let tenant ~index name : Tenant.t =
    {
      Tenant.tn_name = name;
      tn_model = "treelstm";
      tn_rate_per_s = 6_000.0;
      tn_bursty = true;
      tn_seed = Tenant.derived_seed ~seed:8 ~index;
      tn_slo_ms = 0.0;
      tn_quota = 256;
      tn_weight = 1.0;
      tn_requests = 300;
    }
  in
  let run snapshot_every_us =
    Dispatcher.simulate ?snapshot_every_us
      {
        Dispatcher.default_config with
        Dispatcher.t_autoscale = Autoscaler.default ~min_replicas:1 ~max_replicas:3;
      }
      ~tenants:[| tenant ~index:0 "alpha"; tenant ~index:1 "beta" |]
      ~payload:(fun ~tenant:_ ~index:_ ~id -> id)
      ~execute:(fun _ ~model:_ batch ->
        Server.Exec_ok
          {
            Server.ex_latency_us = 1_500.0 +. (150.0 *. float_of_int (List.length batch));
            ex_profiler = None;
            ex_fingerprints = None;
            ex_corrupted = false;
          })
      ~model_bytes:(fun _ -> 0)
  in
  let observed = run (Some 5_000.0) and plain = run None in
  check_true "snapshots were taken"
    (List.length (Stats.snapshots observed.Dispatcher.tn_stats) > 1);
  check_true "no snapshots without an interval" (Stats.snapshots plain.Dispatcher.tn_stats = []);
  check_true "the fleet scaled" (plain.Dispatcher.tn_scale_events <> []);
  check_true "same scale trajectory"
    (observed.Dispatcher.tn_scale_events = plain.Dispatcher.tn_scale_events);
  let served (r : Dispatcher.report) =
    let s = Stats.summarize r.Dispatcher.tn_stats in
    s.Stats.s_offered, s.Stats.s_completed, s.Stats.s_batches
  in
  check_true "same requests served" (served observed = served plain)

(* --- Fed arrival streams: byte-identical metrics exports --- *)

(* Periodic metrics snapshots reschedule themselves only while work is
   pending, so the export pins [Event_loop.pending_work] across the whole
   run — fed arrivals included. The digests come from scheduling every
   arrival into the queue upfront, which a fed run must reproduce. *)
let metrics_digest stats =
  Digest.to_hex (Digest.string (Json.to_string (Stats.metrics_json stats)))

let hedged_cluster_metrics () =
  let arrivals =
    Traffic.arrivals ~rng:(Rng.create 17) (Traffic.Poisson { rate_per_s = 6000.0 }) ~n:300
  in
  let straggler i ~degraded:_ batch =
    Server.Exec_ok
      {
        Server.ex_latency_us =
          (if i = 2 then 900.0 else 150.0) +. (20.0 *. float_of_int (List.length batch));
        ex_profiler = None;
        ex_fingerprints = None;
        ex_corrupted = false;
      }
  in
  let report =
    Cluster.simulate ~snapshot_every_us:2_000.0
      {
        Cluster.default_config with
        Cluster.c_replicas = 3;
        c_hedge_percentile = Some 80.0;
        c_server = { Server.default_config with Server.deadline_us = Some 20_000.0 };
      }
      ~arrivals ~payload:Fun.id
      ~executors:(Array.init 3 straggler)
  in
  let stats = report.Cluster.cluster_stats in
  check_true "cluster: periodic snapshots were captured" (List.length (Stats.snapshots stats) > 1);
  metrics_digest stats

let tenancy_metrics () =
  let module Tenant = Tenancy.Tenant in
  let module Dispatcher = Tenancy.Dispatcher in
  let module Autoscaler = Tenancy.Autoscaler in
  let tenant ~index ~model ~rate ~bursty name : Tenant.t =
    {
      Tenant.tn_name = name;
      tn_model = model;
      tn_rate_per_s = rate;
      tn_bursty = bursty;
      tn_seed = Tenant.derived_seed ~seed:4 ~index;
      tn_slo_ms = 30.0;
      tn_quota = 32;
      tn_weight = 1.0 +. float_of_int index;
      tn_requests = 150;
    }
  in
  let cfg =
    {
      Dispatcher.default_config with
      Dispatcher.t_server =
        {
          Server.default_config with
          Server.policy = Batcher.Adaptive { max_batch = 8; max_wait_us = 400.0 };
          queue_capacity = 64;
        };
      t_autoscale = Autoscaler.fixed 2;
    }
  in
  let report =
    Dispatcher.simulate ~snapshot_every_us:2_000.0 cfg
      ~tenants:
        [|
          tenant ~index:0 ~model:"treelstm" ~rate:4_000.0 ~bursty:false "alpha";
          tenant ~index:1 ~model:"birnn" ~rate:2_500.0 ~bursty:true "beta";
        |]
      ~payload:(fun ~tenant:_ ~index:_ ~id -> id)
      ~execute:(fun _ ~model:_ batch ->
        Server.Exec_ok
          {
            Server.ex_latency_us = 400.0 +. (60.0 *. float_of_int (List.length batch));
            ex_profiler = None;
            ex_fingerprints = None;
            ex_corrupted = false;
          })
      ~model_bytes:(fun m -> if m = "treelstm" then 1_000_000 else 400_000)
  in
  let stats = report.Dispatcher.tn_stats in
  check_true "tenancy: periodic snapshots were captured" (List.length (Stats.snapshots stats) > 1);
  metrics_digest stats

let test_fed_metrics_identical () =
  Alcotest.(check string) "hedged cluster export" "e414dd6aec3959d8752e93a6184640e6"
    (hedged_cluster_metrics ());
  Alcotest.(check string) "two-tenant export" "5e92cc6de9694812592396e3b4d63d43"
    (tenancy_metrics ())

(* Single-server snapshots see sheds and expiries as they happen, and the
   clamp count as the loop has it: an overloaded run with a short deadline
   behind a queue of 8 and 2 ms batches. *)
let test_snapshots_read_live_outcomes () =
  let n = 400 in
  let arrivals =
    Traffic.arrivals ~rng:(Rng.create 5) (Traffic.Poisson { rate_per_s = 20_000.0 }) ~n
  in
  let config =
    { Server.default_config with Server.queue_capacity = 8; deadline_us = Some 1_500.0 }
  in
  let stats =
    Server.simulate ~snapshot_every_us:2_000.0 config ~arrivals ~payload:Fun.id
      ~execute:(Server.infallible (linear_cost ~fixed:2_000.0 ~per_item:0.0))
  in
  let s = Stats.summarize stats in
  check_true "the run sheds and expires" (s.Stats.s_shed > 0 && s.Stats.s_expired > 0);
  let snaps = Stats.snapshots stats in
  let late = List.filter (fun (ts, _) -> ts >= arrivals.(n - 1)) snaps in
  check_true "snapshots after the last arrival" (late <> []);
  List.iter
    (fun (_, values) ->
      check_float "a late snapshot reads the final shed count" (float_of_int s.Stats.s_shed)
        (List.assoc "serve.shed" values))
    late;
  check_true "expiries show up while the run is live"
    (List.exists (fun (_, values) -> List.assoc "serve.expired" values > 0.0) snaps);
  (* A handler that schedules into the past: the next snapshot counts it. *)
  let stats = Stats.create () in
  let loop = Event_loop.create (Clock.create ()) in
  Event_loop.schedule loop ~at:5.0 (fun () ->
      Event_loop.schedule loop ~at:1.0 ignore;
      Event_loop.schedule loop ~at:25.0 ignore);
  Stats.snapshot_periodically ~every_us:10.0 stats loop;
  Event_loop.run loop;
  match Stats.snapshots stats with
  | (_, values) :: _ ->
    check_float "the first snapshot reads the clamp" 1.0
      (List.assoc "serve.clamped_schedules" values)
  | [] -> Alcotest.fail "no snapshot taken"

let suite =
  [
    Alcotest.test_case "event loop: order + clamp" `Quick test_event_loop_order;
    Alcotest.test_case "traffic: poisson" `Quick test_traffic_poisson;
    Alcotest.test_case "traffic: burst + bursty" `Quick test_traffic_burst_and_bursty;
    Alcotest.test_case "admission: shed at capacity" `Quick test_admission_shed;
    Alcotest.test_case "admission: deadline expiry" `Quick test_admission_deadline;
    Alcotest.test_case "admission: sweep expired on offer" `Quick
      test_admission_sweep_on_offer;
    Alcotest.test_case "batcher: fixed policy decisions" `Quick test_batcher_fixed_decide;
    Alcotest.test_case "batcher: timeout wake always flushes" `Quick
      test_batcher_timeout_wake_flushes;
    Alcotest.test_case "batcher: adaptive target" `Quick test_batcher_adaptive_target;
    Alcotest.test_case "server: timeout fires partial batch" `Quick test_timeout_partial_batch;
    Alcotest.test_case "server: queue-full shedding" `Quick test_queue_full_shedding;
    Alcotest.test_case "server: deadline drops" `Quick test_deadline_drop;
    Alcotest.test_case "server: burst coalesces into full batches" `Quick
      test_burst_batching_invariant;
    Alcotest.test_case "server: deterministic replay" `Quick test_simulation_deterministic;
    Alcotest.test_case "ft: transient faults retry to completion" `Quick
      test_ft_retry_transient;
    Alcotest.test_case "ft: bisection isolates the poison request" `Quick
      test_ft_bisection_isolates_poison;
    Alcotest.test_case "ft: circuit breaker opens, sheds, probes closed" `Quick
      test_ft_circuit_breaker;
    Alcotest.test_case "ft: OOM shrinks the batch cap" `Quick test_ft_oom_shrinks_batches;
    Alcotest.test_case "resilience: retry-budget token bucket" `Quick test_budget_tokens;
    Alcotest.test_case "resilience: AIMD limiter" `Quick test_limiter_aimd;
    Alcotest.test_case "resilience: brownout dwell + hysteresis" `Quick
      test_brownout_dwell_hysteresis;
    Alcotest.test_case "resilience: eager sweep counts expiry once" `Quick
      test_admission_eager_sweep_counts_once;
    Alcotest.test_case "resilience: exhausted retry budget sheds" `Quick
      test_retry_budget_sheds;
    Alcotest.test_case "resilience: limiter sheds a burst at the door" `Quick
      test_limiter_sheds_burst;
    Alcotest.test_case "resilience: brownout engages and restores" `Quick
      test_brownout_engage_restore;
    Alcotest.test_case "resilience: armed-but-idle is byte-identical" `Quick
      test_resilience_idle_matches_legacy;
    Alcotest.test_case "ft: queue pressure degrades service" `Quick
      test_ft_pressure_degradation;
    qtest ~count:300 "admission: conservation + EDF order under random scripts"
      gen_admission_script admission_prop;
    Alcotest.test_case "event loop: non-finite times rejected" `Quick
      test_event_loop_nonfinite;
    Alcotest.test_case "event loop: negative delay counted as clamped" `Quick
      test_event_loop_negative_delay_clamped;
    qtest ~count:300 "event loop: heap dispatches identically to Map reference"
      gen_event_script event_loop_backend_prop;
    qtest ~count:300 "admission: EDF heap pops identically to sorted-list reference"
      gen_admission_backend_script admission_backend_prop;
    Alcotest.test_case "admission: O(1) counters stay consistent" `Quick
      test_admission_counters;
    Alcotest.test_case "stats: reservoir percentiles within error bound" `Quick
      test_stats_reservoir_error;
    Alcotest.test_case "stats: exact below the streaming threshold" `Quick
      test_stats_exact_below_threshold;
    Alcotest.test_case "cluster: failover keeps goodput >= 99%" `Quick
      test_cluster_failover_goodput;
    Alcotest.test_case "cluster: hedging cuts straggler p99" `Quick
      test_cluster_hedging_p99;
    Alcotest.test_case "cluster: per-request-id accounting" `Quick
      test_cluster_request_accounting;
    Alcotest.test_case "cluster: deterministic replay" `Quick test_cluster_deterministic;
    Alcotest.test_case "cluster: 1 replica == single server" `Quick
      test_cluster_single_replica_equivalence;
    Alcotest.test_case "integrity: audit intercepts corruption" `Quick
      test_audit_intercepts_corruption;
    Alcotest.test_case "integrity: quarantine contains a dirty replica" `Quick
      test_cluster_quarantine_contains_corruption;
    Alcotest.test_case "integrity: clean probes re-admit a flaky replica" `Quick
      test_cluster_quarantine_readmits_after_clean_probes;
    Alcotest.test_case "integrity: audited cluster deterministic" `Quick
      test_cluster_audit_deterministic;
    Alcotest.test_case "integrity: counters gated off legacy output" `Quick
      test_integrity_counters_gated;
    Alcotest.test_case "serve_model: deterministic report" `Quick
      test_serve_model_deterministic;
    Alcotest.test_case "serve_model: adaptive beats batch1" `Quick test_adaptive_beats_batch1;
    Alcotest.test_case "serve_model: goodput under 5% kernel faults" `Quick
      test_serve_model_goodput_under_faults;
    Alcotest.test_case "serve_cluster: a clean replica keeps the primary model" `Quick
      test_cluster_clean_replica_keeps_primary_model;
    Alcotest.test_case "serve_model: poison request isolated end to end" `Quick
      test_serve_model_poison_isolated;
    Alcotest.test_case "serve_model: faulty run deterministic" `Quick
      test_serve_model_faulty_deterministic;
    Alcotest.test_case "serve_model: audited corruption end to end" `Quick
      test_serve_model_audited_corruption;
    Alcotest.test_case "models: degraded variants wired" `Quick test_degraded_variant_wired;
    Alcotest.test_case "stats: percentile edge cases" `Quick test_percentile_edges;
    Alcotest.test_case "stats: sorted percentiles agree with per-call sort" `Quick
      test_percentile_sorted_agreement;
    Alcotest.test_case "event loop: debug dispatch-order assertion" `Quick
      test_event_loop_debug_order_check;
    qtest ~count:100 "replica: health transitions never skip the probe"
      gen_verdict_tape replica_health_prop;
    Alcotest.test_case "cluster: hedge estimator warm-up boundary" `Quick
      test_hedge_warmup_boundary;
    qtest ~count:500 "hedge: one resolution per request under random copy events"
      gen_hedge_script prop_hedge_ledger;
    Alcotest.test_case "obs: serving never clamps schedules" `Quick
      test_no_clamped_schedules_in_serving;
    Alcotest.test_case "obs: trace deterministic + full lifecycle coverage" `Quick
      test_trace_deterministic_and_covering;
    Alcotest.test_case "obs: dropped requests reach terminal trace events" `Quick
      test_trace_faulty_coverage;
    Alcotest.test_case "obs: null tracer is a no-op" `Quick test_trace_null_is_noop;
    Alcotest.test_case "obs: metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "obs: serve metrics mirror the summary" `Quick
      test_serve_metrics_end_to_end;
    Alcotest.test_case "obs: JSON parse round-trip" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "net: plan parse round-trip + shared key errors" `Quick
      test_net_parse_roundtrip;
    Alcotest.test_case "net: exactly-once under dup+drop+resend" `Quick
      test_net_exactly_once;
    Alcotest.test_case "net: partition failover + heal, deterministic" `Quick
      test_net_partition_failover_deterministic;
    Alcotest.test_case "net: sender sheds doomed dispatches" `Quick test_net_deadline_shed;
    Alcotest.test_case "net: disarmed plan byte-identical to none" `Quick
      test_net_disarmed_identity;
    Alcotest.test_case "net: naive resend re-executes, exactly-once absorbs" `Quick
      test_net_naive_reexecutes;
    qtest ~count:500 "net: dedup window vs ordered-list model" gen_dedup_script
      dedup_window_prop;
    Alcotest.test_case "net: dedup queue bounded under a remove storm" `Quick
      test_dedup_remove_storm_bounded;
    qtest ~count:300 "event loop: a fed stream dispatches like scheduling it upfront"
      gen_feed_script feed_order_prop;
    Alcotest.test_case "event loop: fed stream pending, dispatched and clamp counts" `Quick
      test_event_loop_feed_counts;
    Alcotest.test_case "event loop: non-finite fed times rejected" `Quick
      test_event_loop_feed_nonfinite;
    Alcotest.test_case "event loop: fed runs export byte-identical metrics" `Quick
      test_fed_metrics_identical;
    Alcotest.test_case "event loop: daemon chains drain with the work" `Quick
      test_event_loop_daemons_drain;
    Alcotest.test_case "tenancy: metrics with a movable autoscaler drain" `Quick
      test_tenancy_metrics_with_autoscaler_drains;
    Alcotest.test_case "obs: snapshots read live outcome counts" `Quick
      test_snapshots_read_live_outcomes;
  ]
