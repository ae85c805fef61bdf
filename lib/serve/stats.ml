(** SLO accounting for serving runs: per-request latency percentiles with a
    queue-wait vs compute breakdown, throughput, drop rates — plus the
    merged device {!Acrobat_device.Profiler} so a serving run prints the
    same activity report as the offline bench tables. *)

module Profiler = Acrobat_device.Profiler
module Rng = Acrobat_tensor.Rng

(** One completed request's life cycle, all in virtual microseconds. *)
type record = {
  r_id : int;
  r_arrival_us : float;
  r_start_us : float;  (** Batch launch time: queue wait ends here. *)
  r_done_us : float;  (** Batch completion: response leaves the server. *)
  r_batch_size : int;  (** Size of the batch this request rode in. *)
}

(* --- bounded-memory streaming mode ---

   A 10⁶-request campaign must not retain 10⁶ latency records just to
   print three percentiles at the end. Below [streaming_threshold]
   completions, nothing changes: every record is kept and {!summarize}
   computes exact percentiles — the exact-until-K contract that keeps all
   legacy-sized runs byte-identical. The completion that crosses the
   threshold converts the stream in place: the retained records are
   replayed (oldest first) into one-pass mean accumulators and a
   fixed-seed reservoir (Vitter's Algorithm R) over latencies, the record
   list is dropped, and every later completion is absorbed in O(1) with
   bounded memory. Means stay exact in streaming mode (running sums in
   completion order — the same float addition order as the exact path);
   percentiles become reservoir estimates over [reservoir_capacity]
   samples. The reservoir RNG is seeded by a constant and consumed only
   by completion index, so summaries are deterministic and independent of
   {e when} the conversion happened. *)

let default_streaming_threshold = 100_000
let streaming_threshold = ref default_streaming_threshold

(** Completions retained exactly before streaming engages (global, like
    {!Event_loop.set_debug_checks}, so harnesses can arm it without
    threading a knob through every [create]). *)
let set_streaming_threshold k =
  if k < 1 then Fmt.invalid_arg "Stats.set_streaming_threshold: %d < 1" k;
  streaming_threshold := k

let current_streaming_threshold () = !streaming_threshold

(** Latency samples kept for streaming percentiles. The standard error of
    a p99 estimate over 8192 uniform samples is ~0.11% of rank — well
    inside the nearest-rank quantization of the exact path at 10⁶. *)
let reservoir_capacity = 8192

let reservoir_seed = 0x5eed

type t = {
  mutable records : record list;  (** Reverse completion order (exact mode). *)
  mutable n_records : int;  (** Completions recorded, exact + streamed. *)
  mutable streaming : bool;
  mutable st_first_arrival_us : float;  (** Arrival of the first completion. *)
  mutable st_last_done_us : float;
  mutable st_sum_latency_ms : float;
  mutable st_sum_queue_ms : float;
  mutable st_sum_compute_ms : float;
  mutable reservoir : float array;  (** Latency samples (ms); allocated lazily. *)
  mutable reservoir_len : int;
  res_rng : Rng.t;
  mutable batches : int;
  mutable batched_requests : int;
  mutable shed : int;
  mutable expired : int;
  mutable end_us : float;  (** Virtual time when the simulation drained. *)
  profiler : Profiler.t;  (** Merged across every executed batch. *)
  (* Fault-tolerance accounting; all zero on a fault-free run. *)
  mutable fault_batches : int;  (** Batch attempts that failed. *)
  mutable retries : int;  (** Re-executions after a transient failure. *)
  mutable bisections : int;  (** Failed batches split to isolate poison. *)
  mutable poisoned : int;  (** Requests dropped after isolation. *)
  mutable breaker_opens : int;  (** Circuit-breaker open transitions. *)
  mutable breaker_shed : int;  (** Requests refused while the breaker was open. *)
  mutable degraded_batches : int;  (** Batches served in degraded mode. *)
  (* Cluster accounting; all zero on single-server runs. *)
  mutable failovers : int;  (** Replicas marked down by the health monitor. *)
  mutable requeued : int;  (** Requests drained off a dead replica and re-dispatched. *)
  mutable probes : int;  (** Re-admission probe requests routed to a down replica. *)
  mutable readmitted : int;  (** Probes that restored their replica to healthy. *)
  mutable hedges : int;  (** Speculative duplicate requests issued. *)
  mutable hedge_wins : int;  (** Requests whose hedge copy finished first. *)
  mutable hedge_cancels : int;  (** Hedge copies cancelled before execution. *)
  mutable hedge_wasted : int;
      (** Completions of a hedged request that arrived after its winner —
          duplicated device work, whichever copy was late. *)
  mutable clamped_schedules : int;
      (** Event-loop schedules whose requested time was in the past (see
          {!Event_loop.clamped_count}); always zero for a correct
          simulation, so any nonzero value flags a scheduling bug. *)
  mutable loop_events : int;
      (** Total event-loop dispatches the simulation performed — the
          simulator-throughput numerator [bench scale] divides by wall
          time. Diagnostic only: never serialized or printed. *)
  (* Multi-tenant accounting; all zero outside the tenancy dispatcher. *)
  mutable quota_shed : int;  (** Requests refused at their tenant's inflight quota. *)
  mutable swaps : int;  (** Resident-model swaps this stream's batches paid for. *)
  mutable slo_ok : int;  (** Completions that landed within their SLO deadline. *)
  (* Overload-resilience accounting (lib/resilience); all zero unless the
     resilience layer is armed. *)
  mutable limit_shed : int;  (** Refused by the adaptive concurrency limiter. *)
  mutable retry_shed : int;  (** Requests dropped when the retry budget ran dry. *)
  mutable retried_requests : int;
      (** Requests re-executed under the retry budget — the numerator of the
          retry-amplification bound the chaos invariants check. *)
  mutable brownouts : int;  (** Brownout engage transitions. *)
  mutable brownout_restores : int;  (** Brownout restore transitions. *)
  (* Result-integrity accounting (silent-data-corruption defense); all zero
     unless corruption injection or the audit layer is armed. *)
  mutable corrupted_batches : int;
      (** Batch attempts whose outputs were silently corrupted (injector
          ground truth — the serving layer cannot observe this directly). *)
  mutable corrupted_delivered : int;
      (** Corrupted results that reached a client undetected — the number
          the audit layer exists to drive to zero. *)
  mutable audits : int;  (** Requests re-executed unbatched for verification. *)
  mutable audit_mismatches : int;
      (** Audits whose reference fingerprint disagreed with the delivered
          candidate — detected corruption. *)
  mutable quarantines : int;  (** Replicas quarantined on corruption evidence. *)
  mutable quarantine_restores : int;
      (** Quarantined replicas re-admitted after clean audited probes. *)
  (* Network fault-domain accounting (lib/net); all zero unless a net plan
     is armed, so direct-call runs stay byte-stable. The counters are laid
     out so the chaos conservation oracles close from the summary alone:
     [sends = partition_drops + drops + (deliveries - dups)] on the request
     link, [deliveries = fresh + dedup_hits] at the replica ingress, and
     [acks = ack_deliveries + ack_drops + gray_drops] on the return link. *)
  mutable net_sends : int;  (** Logical request sends entering the link (incl. resends). *)
  mutable net_resends : int;  (** Timeout-driven retransmissions (subset of sends). *)
  mutable net_dups : int;  (** Extra delivered copies beyond each send's first. *)
  mutable net_drops : int;  (** Request sends lost to random loss. *)
  mutable net_partition_drops : int;  (** Request sends blocked by an active partition. *)
  mutable net_deliveries : int;  (** Request copies that reached a replica. *)
  mutable net_fresh : int;  (** Deliveries handed to the replica (not deduped). *)
  mutable net_dedup_hits : int;  (** Deliveries filtered by the idempotency window. *)
  mutable net_acks : int;  (** Completions entering the return link. *)
  mutable net_ack_drops : int;  (** Completions lost (random loss or partition). *)
  mutable net_gray_drops : int;  (** Completions lost to the gray link. *)
  mutable net_ack_deliveries : int;  (** Completions that reached the dispatcher. *)
  mutable net_timeouts : int;  (** Per-attempt timeouts that fired live. *)
  mutable net_shed : int;
      (** Requests shed at the sender because the remaining deadline budget
          could not cover the observed one-way delay EWMA — a terminal
          (joins offered/drop-rate conservation). *)
  mutable net_link_downs : int;  (** Links declared unreachable on consecutive timeouts. *)
  mutable net_heals : int;  (** Unreachable links restored by a probe round-trip. *)
  mutable net_probes : int;  (** Link-probe messages issued while unreachable. *)
}

let create () =
  {
    records = [];
    n_records = 0;
    streaming = false;
    st_first_arrival_us = 0.0;
    st_last_done_us = 0.0;
    st_sum_latency_ms = 0.0;
    st_sum_queue_ms = 0.0;
    st_sum_compute_ms = 0.0;
    reservoir = [||];
    reservoir_len = 0;
    res_rng = Rng.create reservoir_seed;
    batches = 0;
    batched_requests = 0;
    shed = 0;
    expired = 0;
    end_us = 0.0;
    profiler = Profiler.create ();
    fault_batches = 0;
    retries = 0;
    bisections = 0;
    poisoned = 0;
    breaker_opens = 0;
    breaker_shed = 0;
    degraded_batches = 0;
    failovers = 0;
    requeued = 0;
    probes = 0;
    readmitted = 0;
    hedges = 0;
    hedge_wins = 0;
    hedge_cancels = 0;
    hedge_wasted = 0;
    clamped_schedules = 0;
    loop_events = 0;
    quota_shed = 0;
    swaps = 0;
    slo_ok = 0;
    limit_shed = 0;
    retry_shed = 0;
    retried_requests = 0;
    brownouts = 0;
    brownout_restores = 0;
    corrupted_batches = 0;
    corrupted_delivered = 0;
    audits = 0;
    audit_mismatches = 0;
    quarantines = 0;
    quarantine_restores = 0;
    net_sends = 0;
    net_resends = 0;
    net_dups = 0;
    net_drops = 0;
    net_partition_drops = 0;
    net_deliveries = 0;
    net_fresh = 0;
    net_dedup_hits = 0;
    net_acks = 0;
    net_ack_drops = 0;
    net_gray_drops = 0;
    net_ack_deliveries = 0;
    net_timeouts = 0;
    net_shed = 0;
    net_link_downs = 0;
    net_heals = 0;
    net_probes = 0;
  }

let streaming_active t = t.streaming

(* Absorb one completion into the streaming accumulators. [i] is the
   0-based completion index — also the Algorithm-R sample count, so the
   reservoir's RNG consumption depends only on the index sequence, never
   on when the exact→streaming conversion fired. Takes bare fields so the
   hot path ({!record_fields}) never allocates a [record] in streaming
   mode. *)
let stream_absorb_fields t i ~arrival_us ~start_us ~done_us =
  if i = 0 then t.st_first_arrival_us <- arrival_us;
  if done_us > t.st_last_done_us then t.st_last_done_us <- done_us;
  let lat = (done_us -. arrival_us) /. 1000.0 in
  t.st_sum_latency_ms <- t.st_sum_latency_ms +. lat;
  t.st_sum_queue_ms <- t.st_sum_queue_ms +. ((start_us -. arrival_us) /. 1000.0);
  t.st_sum_compute_ms <- t.st_sum_compute_ms +. ((done_us -. start_us) /. 1000.0);
  if t.reservoir_len < reservoir_capacity then begin
    t.reservoir.(t.reservoir_len) <- lat;
    t.reservoir_len <- t.reservoir_len + 1
  end
  else begin
    let j = Rng.int t.res_rng (i + 1) in
    if j < reservoir_capacity then t.reservoir.(j) <- lat
  end

let stream_absorb t i (r : record) =
  stream_absorb_fields t i ~arrival_us:r.r_arrival_us ~start_us:r.r_start_us
    ~done_us:r.r_done_us

(* One-time exact→streaming conversion: replay the retained records in
   completion order, then drop them. *)
let convert_to_streaming t =
  t.reservoir <- Array.make reservoir_capacity 0.0;
  let arr = Array.of_list t.records in
  let n = Array.length arr in
  (* [t.records] is reverse completion order: replay from the back. *)
  for k = n - 1 downto 0 do
    stream_absorb t (n - 1 - k) arr.(k)
  done;
  t.records <- [];
  t.streaming <- true

(** Record one completion from bare fields — the allocation-free hot
    path. In streaming mode (the regime million-request runs live in) no
    [record] is ever built; in exact mode one is, because retention for
    exact percentiles requires it. Complete paths in [Server], [Cluster]
    and the tenancy dispatcher call this instead of boxing a [record]
    per request (ROADMAP §1 hot-path follow-up). *)
let record_fields t ~id ~arrival_us ~start_us ~done_us ~batch_size =
  if t.streaming then begin
    stream_absorb_fields t t.n_records ~arrival_us ~start_us ~done_us;
    t.n_records <- t.n_records + 1
  end
  else begin
    t.records <-
      {
        r_id = id;
        r_arrival_us = arrival_us;
        r_start_us = start_us;
        r_done_us = done_us;
        r_batch_size = batch_size;
      }
      :: t.records;
    t.n_records <- t.n_records + 1;
    if t.n_records > !streaming_threshold then convert_to_streaming t
  end

let record t (r : record) =
  record_fields t ~id:r.r_id ~arrival_us:r.r_arrival_us ~start_us:r.r_start_us
    ~done_us:r.r_done_us ~batch_size:r.r_batch_size

let note_batch t ~size ~profiler =
  t.batches <- t.batches + 1;
  t.batched_requests <- t.batched_requests + size;
  Option.iter (fun p -> Profiler.merge ~into:t.profiler p) profiler

(** Nearest-rank percentile of an already-sorted sample; 0 on an empty one.
    The workhorse behind {!percentile}: callers that need several
    percentiles of one sample (e.g. {!summarize}'s p50/p95/p99) sort once
    and query this repeatedly instead of paying a copy+sort per call. *)
let percentile_sorted (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(** Nearest-rank percentile of an unsorted sample; 0 on an empty one. *)
let percentile (xs : float array) (p : float) : float =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

type summary = {
  s_offered : int;  (** Arrivals, including dropped ones. *)
  s_completed : int;
  s_shed : int;  (** Load-shed at admission (queue full). *)
  s_expired : int;  (** Deadline passed while queued. *)
  s_makespan_ms : float;  (** First arrival to last completion. *)
  s_throughput_rps : float;  (** Completions per (virtual) second. *)
  s_p50_ms : float;
  s_p95_ms : float;
  s_p99_ms : float;
  s_mean_ms : float;
  s_mean_queue_ms : float;  (** Mean arrival -> batch-launch wait. *)
  s_mean_compute_ms : float;  (** Mean batch-launch -> completion time. *)
  s_batches : int;
  s_mean_batch : float;  (** Mean executed batch size. *)
  (* Fault-tolerance block; all zero (and omitted from output) when the run
     saw no faults. *)
  s_fault_batches : int;
  s_retries : int;
  s_bisections : int;
  s_poisoned : int;  (** Requests dropped as poison after bisection. *)
  s_breaker_opens : int;
  s_breaker_shed : int;
  s_degraded_batches : int;
  (* Cluster block; all zero (and omitted from output) on single-server
     runs, so single-server output stays byte-stable. *)
  s_failovers : int;
  s_requeued : int;
  s_probes : int;
  s_readmitted : int;
  s_hedges : int;
  s_hedge_wins : int;
  s_hedge_cancels : int;
  s_hedge_wasted : int;
  s_clamped_schedules : int;
      (** Past-time event-loop schedules; nonzero flags a scheduling bug
          (printed/serialized only when it fires, so healthy output is
          unchanged). *)
  (* Tenancy block; all zero (and omitted from output) outside the
     multi-tenant dispatcher, so pre-tenancy output stays byte-stable. *)
  s_quota_shed : int;  (** Refused at the tenant's inflight quota. *)
  s_swaps : int;  (** Resident-model swaps charged to this stream. *)
  s_slo_ok : int;  (** Completions within their SLO deadline. *)
  (* Resilience block; all zero (and omitted from output) unless the
     overload-resilience layer is armed, so legacy output stays
     byte-stable. *)
  s_limit_shed : int;  (** Refused by the adaptive concurrency limiter. *)
  s_retry_shed : int;  (** Dropped when the retry budget ran dry. *)
  s_retried_requests : int;  (** Requests re-executed under the budget. *)
  s_brownouts : int;
  s_brownout_restores : int;
  (* Integrity block; all zero (and omitted from output) unless corruption
     injection or the audit layer engaged, so legacy output stays
     byte-stable. *)
  s_corrupted_batches : int;  (** Corrupted batch attempts (injector ground truth). *)
  s_corrupted_delivered : int;  (** Corrupted results delivered undetected. *)
  s_audits : int;  (** Requests re-executed unbatched for verification. *)
  s_audit_mismatches : int;  (** Audits that caught a corrupted result. *)
  s_quarantines : int;  (** Replicas quarantined on corruption evidence. *)
  s_quarantine_restores : int;  (** Quarantined replicas re-admitted. *)
  (* Network block; all zero (and omitted from output) unless a net plan
     is armed, so direct-call output stays byte-stable. *)
  s_net_sends : int;
  s_net_resends : int;
  s_net_dups : int;
  s_net_drops : int;
  s_net_partition_drops : int;
  s_net_deliveries : int;
  s_net_fresh : int;
  s_net_dedup_hits : int;
  s_net_acks : int;
  s_net_ack_drops : int;
  s_net_gray_drops : int;
  s_net_ack_deliveries : int;
  s_net_timeouts : int;
  s_net_shed : int;  (** Sender-side deadline sheds (terminal). *)
  s_net_link_downs : int;
  s_net_heals : int;
  s_net_probes : int;
}

(** Availability: the fraction of offered requests actually answered. *)
let goodput (s : summary) =
  if s.s_offered = 0 then 1.0 else float_of_int s.s_completed /. float_of_int s.s_offered

(** True when any fault-tolerance machinery engaged during the run. *)
let fault_active (s : summary) =
  s.s_fault_batches > 0 || s.s_retries > 0 || s.s_bisections > 0 || s.s_poisoned > 0
  || s.s_breaker_opens > 0 || s.s_breaker_shed > 0 || s.s_degraded_batches > 0

(** True when any cluster machinery (failover, probing, hedging) engaged. *)
let cluster_active (s : summary) =
  s.s_failovers > 0 || s.s_requeued > 0 || s.s_probes > 0 || s.s_readmitted > 0
  || s.s_hedges > 0 || s.s_hedge_wins > 0 || s.s_hedge_cancels > 0 || s.s_hedge_wasted > 0

(** True when the multi-tenant dispatcher produced this stream. *)
let tenancy_active (s : summary) = s.s_quota_shed > 0 || s.s_swaps > 0 || s.s_slo_ok > 0

(** True when the overload-resilience layer engaged during the run. *)
let resilience_active (s : summary) =
  s.s_limit_shed > 0 || s.s_retry_shed > 0 || s.s_retried_requests > 0
  || s.s_brownouts > 0 || s.s_brownout_restores > 0

(** True when corruption injection or the audit layer engaged. *)
let integrity_active (s : summary) =
  s.s_corrupted_batches > 0 || s.s_corrupted_delivered > 0 || s.s_audits > 0
  || s.s_audit_mismatches > 0 || s.s_quarantines > 0 || s.s_quarantine_restores > 0

(** True when the network fault domain carried any traffic. *)
let net_active (s : summary) =
  s.s_net_sends > 0 || s.s_net_acks > 0 || s.s_net_shed > 0 || s.s_net_timeouts > 0
  || s.s_net_probes > 0

(** Fraction of completions that met their SLO deadline (1 when nothing
    completed — an empty stream violated nothing). *)
let slo_attainment (s : summary) =
  if s.s_completed = 0 then 1.0 else float_of_int s.s_slo_ok /. float_of_int s.s_completed

let summarize (t : t) : summary =
  let n, p50, p95, p99, mean_ms, mean_queue_ms, mean_compute_ms, makespan_us =
    if t.streaming then begin
      (* Streaming mode: means from the exact running sums, percentiles
         from the sorted reservoir sample. *)
      let n = t.n_records in
      let sorted = Array.sub t.reservoir 0 t.reservoir_len in
      Array.sort Float.compare sorted;
      let fn = float_of_int n in
      ( n,
        percentile_sorted sorted 50.0,
        percentile_sorted sorted 95.0,
        percentile_sorted sorted 99.0,
        t.st_sum_latency_ms /. fn,
        t.st_sum_queue_ms /. fn,
        t.st_sum_compute_ms /. fn,
        t.st_last_done_us -. t.st_first_arrival_us )
    end
    else begin
      (* Exact mode. [t.records] is reverse completion order; fill the
         arrays from the back while walking it once, so completion order is
         restored without building the reversed list or any per-mean
         intermediate list. Sums then run in ascending (completion) order —
         the same float addition order as before, keeping summaries
         bit-identical across the rewrite. *)
      let n = t.n_records in
      let latencies = Array.make n 0.0 in
      let queue_waits = Array.make n 0.0 in
      let computes = Array.make n 0.0 in
      let first_arrival_us = ref 0.0 in
      let last_done_us = ref 0.0 in
      let i = ref (n - 1) in
      List.iter
        (fun r ->
          latencies.(!i) <- (r.r_done_us -. r.r_arrival_us) /. 1000.0;
          queue_waits.(!i) <- (r.r_start_us -. r.r_arrival_us) /. 1000.0;
          computes.(!i) <- (r.r_done_us -. r.r_start_us) /. 1000.0;
          if !i = 0 then first_arrival_us := r.r_arrival_us;
          if r.r_done_us > !last_done_us then last_done_us := r.r_done_us;
          decr i)
        t.records;
      (* One sort shared by every percentile below; [latencies] itself
         stays in completion order for the mean. *)
      let sorted_latencies = Array.copy latencies in
      Array.sort Float.compare sorted_latencies;
      let mean xs =
        if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n
      in
      let makespan_us = if n = 0 then 0.0 else !last_done_us -. !first_arrival_us in
      ( n,
        percentile_sorted sorted_latencies 50.0,
        percentile_sorted sorted_latencies 95.0,
        percentile_sorted sorted_latencies 99.0,
        mean latencies,
        mean queue_waits,
        mean computes,
        makespan_us )
    end
  in
  {
    s_offered =
      n + t.shed + t.expired + t.poisoned + t.breaker_shed + t.quota_shed
      + t.limit_shed + t.retry_shed + t.net_shed;
    s_completed = n;
    s_shed = t.shed;
    s_expired = t.expired;
    s_makespan_ms = makespan_us /. 1000.0;
    s_throughput_rps =
      (if makespan_us > 0.0 then float_of_int n /. (makespan_us /. 1.0e6) else 0.0);
    s_p50_ms = p50;
    s_p95_ms = p95;
    s_p99_ms = p99;
    s_mean_ms = mean_ms;
    s_mean_queue_ms = mean_queue_ms;
    s_mean_compute_ms = mean_compute_ms;
    s_batches = t.batches;
    s_mean_batch =
      (if t.batches = 0 then 0.0
       else float_of_int t.batched_requests /. float_of_int t.batches);
    s_fault_batches = t.fault_batches;
    s_retries = t.retries;
    s_bisections = t.bisections;
    s_poisoned = t.poisoned;
    s_breaker_opens = t.breaker_opens;
    s_breaker_shed = t.breaker_shed;
    s_degraded_batches = t.degraded_batches;
    s_failovers = t.failovers;
    s_requeued = t.requeued;
    s_probes = t.probes;
    s_readmitted = t.readmitted;
    s_hedges = t.hedges;
    s_hedge_wins = t.hedge_wins;
    s_hedge_cancels = t.hedge_cancels;
    s_hedge_wasted = t.hedge_wasted;
    s_clamped_schedules = t.clamped_schedules;
    s_quota_shed = t.quota_shed;
    s_swaps = t.swaps;
    s_slo_ok = t.slo_ok;
    s_limit_shed = t.limit_shed;
    s_retry_shed = t.retry_shed;
    s_retried_requests = t.retried_requests;
    s_brownouts = t.brownouts;
    s_brownout_restores = t.brownout_restores;
    s_corrupted_batches = t.corrupted_batches;
    s_corrupted_delivered = t.corrupted_delivered;
    s_audits = t.audits;
    s_audit_mismatches = t.audit_mismatches;
    s_quarantines = t.quarantines;
    s_quarantine_restores = t.quarantine_restores;
    s_net_sends = t.net_sends;
    s_net_resends = t.net_resends;
    s_net_dups = t.net_dups;
    s_net_drops = t.net_drops;
    s_net_partition_drops = t.net_partition_drops;
    s_net_deliveries = t.net_deliveries;
    s_net_fresh = t.net_fresh;
    s_net_dedup_hits = t.net_dedup_hits;
    s_net_acks = t.net_acks;
    s_net_ack_drops = t.net_ack_drops;
    s_net_gray_drops = t.net_gray_drops;
    s_net_ack_deliveries = t.net_ack_deliveries;
    s_net_timeouts = t.net_timeouts;
    s_net_shed = t.net_shed;
    s_net_link_downs = t.net_link_downs;
    s_net_heals = t.net_heals;
    s_net_probes = t.net_probes;
  }

let drop_rate (s : summary) =
  if s.s_offered = 0 then 0.0
  else
    float_of_int
      (s.s_shed + s.s_expired + s.s_poisoned + s.s_breaker_shed + s.s_quota_shed
      + s.s_limit_shed + s.s_retry_shed + s.s_net_shed)
    /. float_of_int s.s_offered

(* The fault block is emitted only when the machinery engaged: a fault-free
   run prints (and serializes) exactly what it did before the fault layer
   existed, keeping clean-path output byte-stable across versions. *)
let summary_to_json (s : summary) : Json.t =
  let base =
    [
      "offered", Json.Int s.s_offered;
      "completed", Json.Int s.s_completed;
      "shed", Json.Int s.s_shed;
      "expired", Json.Int s.s_expired;
      "makespan_ms", Json.Float s.s_makespan_ms;
      "throughput_rps", Json.Float s.s_throughput_rps;
      "p50_ms", Json.Float s.s_p50_ms;
      "p95_ms", Json.Float s.s_p95_ms;
      "p99_ms", Json.Float s.s_p99_ms;
      "mean_ms", Json.Float s.s_mean_ms;
      "mean_queue_ms", Json.Float s.s_mean_queue_ms;
      "mean_compute_ms", Json.Float s.s_mean_compute_ms;
      "batches", Json.Int s.s_batches;
      "mean_batch", Json.Float s.s_mean_batch;
      "drop_rate", Json.Float (drop_rate s);
    ]
  in
  let faults =
    if not (fault_active s) then []
    else
      [
        "fault_batches", Json.Int s.s_fault_batches;
        "retries", Json.Int s.s_retries;
        "bisections", Json.Int s.s_bisections;
        "poisoned", Json.Int s.s_poisoned;
        "breaker_opens", Json.Int s.s_breaker_opens;
        "breaker_shed", Json.Int s.s_breaker_shed;
        "degraded_batches", Json.Int s.s_degraded_batches;
        "goodput", Json.Float (goodput s);
      ]
  in
  let cluster =
    if not (cluster_active s) then []
    else
      [
        "failovers", Json.Int s.s_failovers;
        "requeued", Json.Int s.s_requeued;
        "probes", Json.Int s.s_probes;
        "readmitted", Json.Int s.s_readmitted;
        "hedges", Json.Int s.s_hedges;
        "hedge_wins", Json.Int s.s_hedge_wins;
        "hedge_cancels", Json.Int s.s_hedge_cancels;
        "hedge_wasted", Json.Int s.s_hedge_wasted;
      ]
  in
  let tenancy =
    if not (tenancy_active s) then []
    else
      [
        "quota_shed", Json.Int s.s_quota_shed;
        "swaps", Json.Int s.s_swaps;
        "slo_ok", Json.Int s.s_slo_ok;
        "slo_attainment", Json.Float (slo_attainment s);
      ]
  in
  let resilience =
    if not (resilience_active s) then []
    else
      [
        "limit_shed", Json.Int s.s_limit_shed;
        "retry_shed", Json.Int s.s_retry_shed;
        "retried_requests", Json.Int s.s_retried_requests;
        "brownouts", Json.Int s.s_brownouts;
        "brownout_restores", Json.Int s.s_brownout_restores;
      ]
  in
  let integrity =
    if not (integrity_active s) then []
    else
      [
        "corrupted_batches", Json.Int s.s_corrupted_batches;
        "corrupted_delivered", Json.Int s.s_corrupted_delivered;
        "audits", Json.Int s.s_audits;
        "audit_mismatches", Json.Int s.s_audit_mismatches;
        "quarantines", Json.Int s.s_quarantines;
        "quarantine_restores", Json.Int s.s_quarantine_restores;
      ]
  in
  let net =
    if not (net_active s) then []
    else
      [
        "net_sends", Json.Int s.s_net_sends;
        "net_resends", Json.Int s.s_net_resends;
        "net_dups", Json.Int s.s_net_dups;
        "net_drops", Json.Int s.s_net_drops;
        "net_partition_drops", Json.Int s.s_net_partition_drops;
        "net_deliveries", Json.Int s.s_net_deliveries;
        "net_fresh", Json.Int s.s_net_fresh;
        "net_dedup_hits", Json.Int s.s_net_dedup_hits;
        "net_acks", Json.Int s.s_net_acks;
        "net_ack_drops", Json.Int s.s_net_ack_drops;
        "net_gray_drops", Json.Int s.s_net_gray_drops;
        "net_ack_deliveries", Json.Int s.s_net_ack_deliveries;
        "net_timeouts", Json.Int s.s_net_timeouts;
        "net_shed", Json.Int s.s_net_shed;
        "net_link_downs", Json.Int s.s_net_link_downs;
        "net_heals", Json.Int s.s_net_heals;
        "net_probes", Json.Int s.s_net_probes;
      ]
  in
  let anomalies =
    if s.s_clamped_schedules = 0 then []
    else [ "clamped_schedules", Json.Int s.s_clamped_schedules ]
  in
  Json.Obj (base @ faults @ cluster @ tenancy @ resilience @ integrity @ net @ anomalies)

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "@[<v>offered            %8d@,completed          %8d@,shed (queue full)  %8d@,\
     expired (deadline) %8d@,makespan           %8.2f ms@,throughput         %8.1f req/s@,\
     latency p50        %8.2f ms@,latency p95        %8.2f ms@,latency p99        %8.2f ms@,\
     latency mean       %8.2f ms@,queue wait (mean)  %8.2f ms@,compute (mean)     %8.2f ms@,\
     batches            %8d@,mean batch size    %8.2f"
    s.s_offered s.s_completed s.s_shed s.s_expired s.s_makespan_ms s.s_throughput_rps
    s.s_p50_ms s.s_p95_ms s.s_p99_ms s.s_mean_ms s.s_mean_queue_ms s.s_mean_compute_ms
    s.s_batches s.s_mean_batch;
  if fault_active s then
    Fmt.pf ppf
      "@,failed batches     %8d@,retries            %8d@,bisections         %8d@,\
       poisoned (dropped) %8d@,breaker opens      %8d@,breaker shed       %8d@,\
       degraded batches   %8d@,goodput            %8.1f %%"
      s.s_fault_batches s.s_retries s.s_bisections s.s_poisoned s.s_breaker_opens
      s.s_breaker_shed s.s_degraded_batches
      (100.0 *. goodput s);
  if cluster_active s then
    Fmt.pf ppf
      "@,failovers          %8d@,requeued           %8d@,probes             %8d@,\
       readmitted         %8d@,hedges issued      %8d@,hedge wins         %8d@,\
       hedge cancels      %8d@,hedge wasted       %8d"
      s.s_failovers s.s_requeued s.s_probes s.s_readmitted s.s_hedges s.s_hedge_wins
      s.s_hedge_cancels s.s_hedge_wasted;
  if tenancy_active s then
    Fmt.pf ppf
      "@,quota shed         %8d@,model swaps        %8d@,slo attained       %8.1f %%"
      s.s_quota_shed s.s_swaps
      (100.0 *. slo_attainment s);
  if resilience_active s then
    Fmt.pf ppf
      "@,limiter shed       %8d@,retry-budget shed  %8d@,retried requests   %8d@,\
       brownouts          %8d@,brownout restores  %8d"
      s.s_limit_shed s.s_retry_shed s.s_retried_requests s.s_brownouts
      s.s_brownout_restores;
  if integrity_active s then
    Fmt.pf ppf
      "@,corrupted batches  %8d@,corrupted delivered%8d@,audits             %8d@,\
       audit mismatches   %8d@,quarantines        %8d@,quarantine restores%8d"
      s.s_corrupted_batches s.s_corrupted_delivered s.s_audits s.s_audit_mismatches
      s.s_quarantines s.s_quarantine_restores;
  if net_active s then
    Fmt.pf ppf
      "@,net sends          %8d@,net resends        %8d@,net dups delivered %8d@,\
       net drops          %8d@,net partition drops%8d@,net deliveries     %8d@,\
       net dedup hits     %8d@,net acks lost      %8d@,net gray losses    %8d@,\
       net timeouts       %8d@,net deadline shed  %8d@,net link downs     %8d@,\
       net heals          %8d"
      s.s_net_sends s.s_net_resends s.s_net_dups s.s_net_drops s.s_net_partition_drops
      s.s_net_deliveries s.s_net_dedup_hits s.s_net_ack_drops s.s_net_gray_drops
      s.s_net_timeouts s.s_net_shed s.s_net_link_downs s.s_net_heals;
  if s.s_clamped_schedules > 0 then
    Fmt.pf ppf "@,clamped schedules  %8d  (scheduling bug?)" s.s_clamped_schedules;
  Fmt.pf ppf "@]"

(** Mirror the run's counters (and the merged device profiler's) into a
    metrics registry — the unification point between [Serve.Stats] and
    [Device.Profiler] telemetry. *)
let to_metrics (t : t) (m : Acrobat_obs.Metrics.t) =
  if not (Acrobat_obs.Metrics.enabled m) then ()
  else begin
  let s = summarize t in
  Acrobat_obs.Metrics.set_counters m "serve."
    [
      "offered", s.s_offered;
      "completed", s.s_completed;
      "shed", s.s_shed;
      "expired", s.s_expired;
      "batches", s.s_batches;
      "fault_batches", s.s_fault_batches;
      "retries", s.s_retries;
      "bisections", s.s_bisections;
      "poisoned", s.s_poisoned;
      "breaker_opens", s.s_breaker_opens;
      "breaker_shed", s.s_breaker_shed;
      "degraded_batches", s.s_degraded_batches;
      "failovers", s.s_failovers;
      "requeued", s.s_requeued;
      "probes", s.s_probes;
      "readmitted", s.s_readmitted;
      "hedges", s.s_hedges;
      "hedge_wins", s.s_hedge_wins;
      "hedge_cancels", s.s_hedge_cancels;
      "hedge_wasted", s.s_hedge_wasted;
      "clamped_schedules", s.s_clamped_schedules;
      "quota_shed", s.s_quota_shed;
      "swaps", s.s_swaps;
      "slo_ok", s.s_slo_ok;
      "limit_shed", s.s_limit_shed;
      "retry_shed", s.s_retry_shed;
      "retried_requests", s.s_retried_requests;
      "brownouts", s.s_brownouts;
      "brownout_restores", s.s_brownout_restores;
      "corrupted_batches", s.s_corrupted_batches;
      "corrupted_delivered", s.s_corrupted_delivered;
      "audits", s.s_audits;
      "audit_mismatches", s.s_audit_mismatches;
      "quarantines", s.s_quarantines;
      "quarantine_restores", s.s_quarantine_restores;
    ];
    (* Net counters appear only when the net layer carried traffic, so
       metrics snapshots from direct-call runs keep their exact key set. *)
    if net_active s then
      Acrobat_obs.Metrics.set_counters m "serve."
        [
          "net_sends", s.s_net_sends;
          "net_resends", s.s_net_resends;
          "net_dups", s.s_net_dups;
          "net_drops", s.s_net_drops;
          "net_partition_drops", s.s_net_partition_drops;
          "net_deliveries", s.s_net_deliveries;
          "net_fresh", s.s_net_fresh;
          "net_dedup_hits", s.s_net_dedup_hits;
          "net_acks", s.s_net_acks;
          "net_ack_drops", s.s_net_ack_drops;
          "net_gray_drops", s.s_net_gray_drops;
          "net_ack_deliveries", s.s_net_ack_deliveries;
          "net_timeouts", s.s_net_timeouts;
          "net_shed", s.s_net_shed;
          "net_link_downs", s.s_net_link_downs;
          "net_heals", s.s_net_heals;
          "net_probes", s.s_net_probes;
        ];
    Profiler.to_metrics t.profiler m
  end

(** Periodic virtual-clock snapshots of [t] into [m], every [every_us].
    The chain rides [loop] itself and stops rescheduling once it is the only
    pending work, so the loop still drains. A no-op when [m] is disabled. *)
let snapshot_periodically (t : t) (m : Acrobat_obs.Metrics.t) loop ~every_us =
  if Acrobat_obs.Metrics.enabled m then begin
    let rec snap () =
      to_metrics t m;
      Acrobat_obs.Metrics.snapshot m ~ts_us:(Event_loop.now loop);
      if Event_loop.pending loop > 0 then Event_loop.schedule_after loop ~delay:every_us snap
    in
    Event_loop.schedule_after loop ~delay:every_us snap
  end

(** End-of-run bookkeeping once [loop] has drained: the run's end time and
    the loop's own counters, then the final metrics export. *)
let finish (t : t) (m : Acrobat_obs.Metrics.t) loop =
  t.end_us <- Event_loop.now loop;
  t.clamped_schedules <- Event_loop.clamped_count loop;
  t.loop_events <- Event_loop.dispatched loop;
  to_metrics t m
