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

type summary = {
  s_offered : int;  (** Arrivals: [s_completed] plus every terminal counter. *)
  s_completed : int;
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
  (* One field per row of {!counters}, which documents each. *)
  s_shed : int;
  s_expired : int;
  s_fault_batches : int;
  s_retries : int;
  s_bisections : int;
  s_poisoned : int;
  s_breaker_opens : int;
  s_breaker_shed : int;
  s_degraded_batches : int;
  s_failovers : int;
  s_requeued : int;
  s_probes : int;
  s_readmitted : int;
  s_hedges : int;
  s_hedge_wins : int;
  s_hedge_cancels : int;
  s_hedge_wasted : int;
  s_clamped_schedules : int;
  s_quota_shed : int;
  s_swaps : int;
  s_slo_ok : int;
  s_limit_shed : int;
  s_retry_shed : int;
  s_retried_requests : int;
  s_brownouts : int;
  s_brownout_restores : int;
  s_corrupted_batches : int;
  s_corrupted_delivered : int;
  s_audits : int;
  s_audit_mismatches : int;
  s_quarantines : int;
  s_quarantine_restores : int;
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
  s_net_shed : int;
  s_net_link_downs : int;
  s_net_heals : int;
  s_net_probes : int;
}

(** Availability: the fraction of offered requests actually answered. *)
let goodput (s : summary) =
  if s.s_offered = 0 then 1.0 else float_of_int s.s_completed /. float_of_int s.s_offered

(** Fraction of completions that met their SLO deadline (1 when nothing
    completed — an empty stream violated nothing). *)
let slo_attainment (s : summary) =
  if s.s_completed = 0 then 1.0 else float_of_int s.s_slo_ok /. float_of_int s.s_completed

(* --- The counter table ---

   Every serving counter is declared exactly once below. Its row drives
   storage (one [int array] slot per row), the JSON and metrics key, the
   [pp_summary] line, the activity gate of its group, and the chaos
   invariants' conservation checks; the {!Outcome}s below name the rows
   whose sum is behind [s_offered] and [drop_rate]. Declaration order is
   metrics order; JSON and pp emit the same rows group by group, with the
   anomaly group last.

   Every group but [Core] is gated: its rows (and trailer) are emitted only
   when at least one of them is nonzero, so a run that never engaged a
   subsystem prints and serializes exactly what it did before that
   subsystem existed. [Core] rows always appear, in the summary header. *)

type group =
  | Core  (** Admission outcomes; always emitted. *)
  | Fault  (** Fault tolerance: retries, bisection, breaker, degraded mode. *)
  | Cluster  (** Failover, probing and hedging; zero on single-server runs. *)
  | Anomaly  (** Simulator bugs; zero on every correct run. *)
  | Tenancy  (** Multi-tenant dispatcher only. *)
  | Resilience  (** Overload controls (lib/resilience), when armed. *)
  | Integrity  (** Silent-corruption injection and the audit layer. *)
  | Net  (** The lossy transport (lib/net), when a plan is armed. *)

type counter = {
  index : int;  (** Slot in {!t}'s count array. *)
  name : string;  (** JSON and metrics key. *)
  group : group;
  label : string option;  (** [pp_summary] label; [None] = not printed. *)
  doc : string;
  read : summary -> int;  (** The counter's summary field. *)
}

let declared = ref []

(* A row's pp label is its name with spaces for underscores unless [pp]
   says otherwise; [quiet] rows are never printed. *)
let row ?pp ?(quiet = false) group name read doc =
  let label =
    if quiet then None
    else Some (Option.value pp ~default:(String.map (function '_' -> ' ' | c -> c) name))
  in
  let c = { index = List.length !declared; name; group; label; doc; read } in
  declared := c :: !declared;
  c

let shed = row Core "shed" ~pp:"shed (queue full)" (fun s -> s.s_shed)
    "Load-shed at admission (queue full)."
let expired = row Core "expired" ~pp:"expired (deadline)" (fun s -> s.s_expired)
    "Deadline passed while queued."

let fault_batches = row Fault "fault_batches" ~pp:"failed batches" (fun s -> s.s_fault_batches)
    "Batch attempts that failed."
let retries = row Fault "retries" (fun s -> s.s_retries)
    "Re-executions after a transient failure."
let bisections = row Fault "bisections" (fun s -> s.s_bisections)
    "Failed batches split to isolate poison."
let poisoned = row Fault "poisoned" ~pp:"poisoned (dropped)" (fun s -> s.s_poisoned)
    "Requests dropped as poison after isolation."
let breaker_opens = row Fault "breaker_opens" (fun s -> s.s_breaker_opens)
    "Circuit-breaker open transitions."
let breaker_shed = row Fault "breaker_shed" (fun s -> s.s_breaker_shed)
    "Requests refused while the breaker was open, or unplaced when the run drained."
let degraded_batches = row Fault "degraded_batches" (fun s -> s.s_degraded_batches)
    "Batches served in degraded mode."

let failovers = row Cluster "failovers" (fun s -> s.s_failovers)
    "Replicas marked down by the health monitor."
let requeued = row Cluster "requeued" (fun s -> s.s_requeued)
    "Requests drained off a dead replica and re-dispatched."
let probes = row Cluster "probes" (fun s -> s.s_probes)
    "Re-admission probe requests routed to a down replica."
let readmitted = row Cluster "readmitted" (fun s -> s.s_readmitted)
    "Probes that restored their replica to healthy."
let hedges = row Cluster "hedges" ~pp:"hedges issued" (fun s -> s.s_hedges)
    "Speculative duplicate requests issued."
let hedge_wins = row Cluster "hedge_wins" (fun s -> s.s_hedge_wins)
    "Requests whose hedge copy finished first."
let hedge_cancels = row Cluster "hedge_cancels" (fun s -> s.s_hedge_cancels)
    "Hedge copies cancelled before execution."
let hedge_wasted = row Cluster "hedge_wasted" (fun s -> s.s_hedge_wasted)
    "Late completions of an already-answered hedged request: duplicated device work."

let clamped_schedules = row Anomaly "clamped_schedules" (fun s -> s.s_clamped_schedules)
    "Past-time event-loop schedules (Event_loop.clamped_count); nonzero flags a bug."

let quota_shed = row Tenancy "quota_shed" (fun s -> s.s_quota_shed)
    "Requests refused at their tenant's inflight quota."
let swaps = row Tenancy "swaps" ~pp:"model swaps" (fun s -> s.s_swaps)
    "Resident-model swaps this stream's batches paid for."
let slo_ok = row Tenancy "slo_ok" ~quiet:true (fun s -> s.s_slo_ok)
    "Completions that landed within their SLO deadline."

let limit_shed =
  row Resilience "limit_shed" ~pp:"limiter shed" (fun s -> s.s_limit_shed)
    "Refused by the adaptive concurrency limiter."
let retry_shed =
  row Resilience "retry_shed" ~pp:"retry-budget shed" (fun s -> s.s_retry_shed)
    "Requests dropped when the retry budget ran dry."
let retried_requests = row Resilience "retried_requests" (fun s -> s.s_retried_requests)
    "Requests re-executed under the retry budget (the retry-amplification numerator)."
let brownouts = row Resilience "brownouts" (fun s -> s.s_brownouts)
    "Brownout engage transitions."
let brownout_restores = row Resilience "brownout_restores" (fun s -> s.s_brownout_restores)
    "Brownout restore transitions."

let corrupted_batches = row Integrity "corrupted_batches" (fun s -> s.s_corrupted_batches)
    "Batch attempts whose outputs were silently corrupted (injector ground truth)."
let corrupted_delivered = row Integrity "corrupted_delivered" (fun s -> s.s_corrupted_delivered)
    "Corrupted results that reached a client undetected; auditing drives this to zero."
let audits = row Integrity "audits" (fun s -> s.s_audits)
    "Requests re-executed unbatched for verification."
let audit_mismatches = row Integrity "audit_mismatches" (fun s -> s.s_audit_mismatches)
    "Audits whose reference fingerprint disagreed with the delivered candidate."
let quarantines = row Integrity "quarantines" (fun s -> s.s_quarantines)
    "Replicas quarantined on corruption evidence."
let quarantine_restores = row Integrity "quarantine_restores" (fun s -> s.s_quarantine_restores)
    "Quarantined replicas re-admitted after clean audited probes."

let net_sends = row Net "net_sends" (fun s -> s.s_net_sends)
    "Logical request sends entering the link (including resends)."
let net_resends = row Net "net_resends" (fun s -> s.s_net_resends)
    "Timeout-driven retransmissions (a subset of sends)."
let net_dups = row Net "net_dups" ~pp:"net dups delivered" (fun s -> s.s_net_dups)
    "Extra delivered copies beyond each send's first."
let net_drops = row Net "net_drops" (fun s -> s.s_net_drops)
    "Request sends lost to random loss."
let net_partition_drops = row Net "net_partition_drops" (fun s -> s.s_net_partition_drops)
    "Request sends blocked by an active partition."
let net_deliveries = row Net "net_deliveries" (fun s -> s.s_net_deliveries)
    "Request copies that reached a replica."
let net_fresh = row Net "net_fresh" ~quiet:true (fun s -> s.s_net_fresh)
    "Deliveries handed to the replica (not deduplicated)."
let net_dedup_hits = row Net "net_dedup_hits" (fun s -> s.s_net_dedup_hits)
    "Deliveries filtered by the idempotency window."
let net_acks = row Net "net_acks" ~quiet:true (fun s -> s.s_net_acks)
    "Completions entering the return link."
let net_ack_drops = row Net "net_ack_drops" ~pp:"net acks lost" (fun s -> s.s_net_ack_drops)
    "Completions lost to random loss or a partition."
let net_gray_drops = row Net "net_gray_drops" ~pp:"net gray losses" (fun s -> s.s_net_gray_drops)
    "Completions lost to the gray link."
let net_ack_deliveries = row Net "net_ack_deliveries" ~quiet:true (fun s -> s.s_net_ack_deliveries)
    "Completions that reached the dispatcher."
let net_timeouts = row Net "net_timeouts" (fun s -> s.s_net_timeouts)
    "Per-attempt timeouts that fired live."
let net_shed = row Net "net_shed" ~pp:"net deadline shed" (fun s -> s.s_net_shed)
    "Requests shed at the sender: the remaining deadline cannot cover the delay EWMA."
let net_link_downs = row Net "net_link_downs" (fun s -> s.s_net_link_downs)
    "Links declared unreachable on consecutive timeouts."
let net_heals = row Net "net_heals" (fun s -> s.s_net_heals)
    "Unreachable links restored by a probe round-trip."
let net_probes = row Net "net_probes" ~quiet:true (fun s -> s.s_net_probes)
    "Link-probe messages issued while unreachable."

(** Every counter, in declaration order. *)
let counters = List.rev !declared

(** The ways a request can end other than completion, each declared once
    with the counter it charges and the name of the terminal trace instant
    it emits. Every request ends in exactly one outcome or in a ["done"]
    completion, so [s_offered = s_completed + dropped s]. Two outcomes may
    share a counter: the breaker refusing a request at the door and a
    request still unplaced when the run drained both count as
    [breaker_shed]. *)
module Outcome = struct
  type t = { counter : counter; name : string }

  let declared = ref []

  let make counter name =
    let o = { counter; name } in
    declared := o :: !declared;
    o

  let shed = make shed "shed"
  let expired = make expired "expired"
  let poisoned = make poisoned "poisoned"

  (** The single server's (and each tenant's) open breaker refused it. *)
  let shed_breaker = make breaker_shed "shed_breaker"

  (** Still unplaced when the run drained, or out of requeue budget. *)
  let budget_exhausted = make breaker_shed "budget_exhausted"

  let shed_quota = make quota_shed "shed_quota"
  let shed_limit = make limit_shed "shed_limit"
  let retry_budget = make retry_shed "retry_budget"
  let net_shed = make net_shed "net_shed"

  (** Every outcome, in declaration order. *)
  let all = List.rev !declared
end

(** The counters some {!Outcome} charges, in declaration order. *)
let terminals =
  List.filter (fun c -> List.exists (fun o -> o.Outcome.counter == c) Outcome.all) counters

(** The net conservation laws, each [(lhs, rhs)] with equal sums on every
    run: every request copy put on the wire lands in exactly one bucket,
    live deliveries split into fresh + dedup hits, and acks split into
    delivered + dropped + gray-eaten. With the transport off every term is
    zero and the laws hold trivially. *)
let laws =
  [
    [ net_sends; net_dups ], [ net_deliveries; net_drops; net_partition_drops ];
    [ net_deliveries ], [ net_fresh; net_dedup_hits ];
    [ net_acks ], [ net_ack_deliveries; net_ack_drops; net_gray_drops ];
  ]

(** Sum of [cs] as read off [s]. *)
let total (s : summary) cs = List.fold_left (fun acc c -> acc + c.read s) 0 cs

(** Requests that ended in a terminal outcome other than completion. *)
let dropped (s : summary) = total s terminals

(** True when any counter of group [g] is nonzero ([Core] is always on). *)
let active (s : summary) g =
  g = Core || List.exists (fun c -> c.group = g && c.read s > 0) counters

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
  counts : int array;  (** One slot per {!counters} row. *)
  mutable batches : int;
  mutable batched_requests : int;
  mutable end_us : float;  (** Virtual time when the simulation drained. *)
  mutable loop_events : int;
      (** Total event-loop dispatches the simulation performed — the
          simulator-throughput numerator [bench scale] divides by wall
          time. Diagnostic only: never serialized or printed. *)
  profiler : Profiler.t;  (** Merged across every executed batch. *)
  mutable limit_armed : bool;
      (** Export the limiter gauge: set by the single server when its
          concurrency limiter is armed. *)
  mutable limit : float;  (** Last limit the limiter settled on; 0 before any. *)
  mutable net_keys : net_keys;
  mutable snapshots : (float * (string * float) list) list;
      (** [(ts_us, (key, value) ...)] in reverse capture order. *)
}

(* Where the net rows sit among the exported metrics: absent until the net
   group first engages, then before the device counters if that happened
   by the first export and after them otherwise. The order is the one the
   committed exports pin. *)
and net_keys = Net_hidden | Net_before_device | Net_after_device

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
    counts = Array.make (List.length counters) 0;
    batches = 0;
    batched_requests = 0;
    end_us = 0.0;
    loop_events = 0;
    profiler = Profiler.create ();
    limit_armed = false;
    limit = 0.0;
    net_keys = Net_hidden;
    snapshots = [];
  }

let count t c = t.counts.(c.index)
let add t c n = t.counts.(c.index) <- t.counts.(c.index) + n
let incr t c = t.counts.(c.index) <- t.counts.(c.index) + 1
let set t c n = t.counts.(c.index) <- n

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
  let c = count t in
  {
    s_offered = List.fold_left (fun acc r -> acc + c r) n terminals;
    s_completed = n;
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
    s_shed = c shed;
    s_expired = c expired;
    s_fault_batches = c fault_batches;
    s_retries = c retries;
    s_bisections = c bisections;
    s_poisoned = c poisoned;
    s_breaker_opens = c breaker_opens;
    s_breaker_shed = c breaker_shed;
    s_degraded_batches = c degraded_batches;
    s_failovers = c failovers;
    s_requeued = c requeued;
    s_probes = c probes;
    s_readmitted = c readmitted;
    s_hedges = c hedges;
    s_hedge_wins = c hedge_wins;
    s_hedge_cancels = c hedge_cancels;
    s_hedge_wasted = c hedge_wasted;
    s_clamped_schedules = c clamped_schedules;
    s_quota_shed = c quota_shed;
    s_swaps = c swaps;
    s_slo_ok = c slo_ok;
    s_limit_shed = c limit_shed;
    s_retry_shed = c retry_shed;
    s_retried_requests = c retried_requests;
    s_brownouts = c brownouts;
    s_brownout_restores = c brownout_restores;
    s_corrupted_batches = c corrupted_batches;
    s_corrupted_delivered = c corrupted_delivered;
    s_audits = c audits;
    s_audit_mismatches = c audit_mismatches;
    s_quarantines = c quarantines;
    s_quarantine_restores = c quarantine_restores;
    s_net_sends = c net_sends;
    s_net_resends = c net_resends;
    s_net_dups = c net_dups;
    s_net_drops = c net_drops;
    s_net_partition_drops = c net_partition_drops;
    s_net_deliveries = c net_deliveries;
    s_net_fresh = c net_fresh;
    s_net_dedup_hits = c net_dedup_hits;
    s_net_acks = c net_acks;
    s_net_ack_drops = c net_ack_drops;
    s_net_gray_drops = c net_gray_drops;
    s_net_ack_deliveries = c net_ack_deliveries;
    s_net_timeouts = c net_timeouts;
    s_net_shed = c net_shed;
    s_net_link_downs = c net_link_downs;
    s_net_heals = c net_heals;
    s_net_probes = c net_probes;
  }

let drop_rate (s : summary) =
  if s.s_offered = 0 then 0.0 else float_of_int (dropped s) /. float_of_int s.s_offered

(** The conservation laws of a run fed [arrivals] requests, checked over
    [s]: ["conservation"] when offered differs from [arrivals] or from
    completed plus every outcome counter, and ["net_conservation"] for each
    {!laws} pair whose sides differ. Returns [(law, evidence)] per broken
    law; [[]] on every correct run. *)
let conservation (s : summary) ~arrivals : (string * string) list =
  let terms cs = String.concat " + " (List.map (fun c -> Fmt.str "%s %d" c.name (c.read s)) cs) in
  let outcomes = s.s_completed + dropped s in
  let requests =
    if s.s_offered = arrivals && outcomes = s.s_offered then []
    else
      [
        ( "conservation",
          Fmt.str "offered %d, %d requests arrived, outcomes sum to %d (completed %d + %s)"
            s.s_offered arrivals outcomes s.s_completed (terms terminals) );
      ]
  in
  requests
  @ List.filter_map
      (fun (lhs, rhs) ->
        if total s lhs = total s rhs then None
        else Some ("net_conservation", Fmt.str "%s <> %s" (terms lhs) (terms rhs)))
      laws

(** Under {!Event_loop.set_debug_checks}, raise [Invalid_argument] naming
    every conservation law [t] breaks for a run fed [arrivals] requests. *)
let assert_conserved (t : t) ~arrivals =
  if Event_loop.debug_checks_enabled () then
    match conservation (summarize t) ~arrivals with
    | [] -> ()
    | broken ->
      Fmt.invalid_arg "Stats: %s"
        (String.concat "; " (List.map (fun (law, ev) -> law ^ ": " ^ ev) broken))

(* Gated groups in JSON and pp order, and what each emits after its rows. *)
let emitted = [ Fault; Cluster; Tenancy; Resilience; Integrity; Net; Anomaly ]

let trailer = function
  | Fault -> [ "goodput", "goodput", goodput ]
  | Tenancy -> [ "slo_attainment", "slo attained", slo_attainment ]
  | _ -> []

let rows_of g = List.filter (fun c -> c.group = g) counters

let json_rows (s : summary) g =
  if not (active s g) then []
  else
    List.map (fun c -> c.name, Json.Int (c.read s)) (rows_of g)
    @ List.map (fun (key, _, f) -> key, Json.Float (f s)) (trailer g)

let summary_to_json (s : summary) : Json.t =
  let header =
    [ "offered", Json.Int s.s_offered; "completed", Json.Int s.s_completed ]
    @ json_rows s Core
    @ [
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
  Json.Obj (header @ List.concat_map (json_rows s) emitted)

let pp_rows ppf (s : summary) g =
  if active s g then begin
    List.iter
      (fun c ->
        Option.iter
          (fun label ->
            Fmt.pf ppf "@,%-19s%8d%s" label (c.read s)
              (if g = Anomaly then "  (scheduling bug?)" else ""))
          c.label)
      (rows_of g);
    List.iter
      (fun (_, label, f) -> Fmt.pf ppf "@,%-19s%8.1f %%" label (100.0 *. f s))
      (trailer g)
  end

let pp_summary ppf (s : summary) =
  Fmt.pf ppf "@[<v>offered            %8d@,completed          %8d" s.s_offered s.s_completed;
  pp_rows ppf s Core;
  Fmt.pf ppf
    "@,makespan           %8.2f ms@,throughput         %8.1f req/s@,\
     latency p50        %8.2f ms@,latency p95        %8.2f ms@,latency p99        %8.2f ms@,\
     latency mean       %8.2f ms@,queue wait (mean)  %8.2f ms@,compute (mean)     %8.2f ms@,\
     batches            %8d@,mean batch size    %8.2f"
    s.s_makespan_ms s.s_throughput_rps s.s_p50_ms s.s_p95_ms s.s_p99_ms s.s_mean_ms
    s.s_mean_queue_ms s.s_mean_compute_ms s.s_batches s.s_mean_batch;
  List.iter (pp_rows ppf s) emitted;
  Fmt.pf ppf "@]"

(* --- The metrics timeline ---

   A run's counters as flat [(key, value)] metrics: the limiter gauge
   [resilience.limit] when armed, then [serve.offered], [serve.completed],
   the [Core] rows, [serve.batches] and every other row (net rows placed by
   [net_keys]), then the merged profiler's [device.*] counters. Reading
   them touches only the count array, never {!summarize}, so periodic
   snapshots stay cheap on long runs. *)

let net_active t = List.exists (fun c -> c.group = Net && count t c > 0) counters

(* Fix where the net rows go the first time an export sees them active. *)
let place_net t =
  if t.net_keys = Net_hidden && net_active t then
    t.net_keys <- (if t.snapshots = [] then Net_before_device else Net_after_device)

let gauges t = if t.limit_armed then [ "resilience.limit", t.limit ] else []

let counter_metrics t =
  let serve c = "serve." ^ c.name, count t c in
  let net_rows keys = if t.net_keys = keys then List.map serve (rows_of Net) else [] in
  [
    "serve.offered", List.fold_left (fun n c -> n + count t c) t.n_records terminals;
    "serve.completed", t.n_records;
  ]
  @ List.map serve (rows_of Core)
  @ ("serve.batches", t.batches)
    :: List.filter_map
         (fun c -> if c.group = Core || c.group = Net then None else Some (serve c))
         counters
  @ net_rows Net_before_device
  @ List.map (fun (k, v) -> "device." ^ k, v) (Profiler.counters t.profiler)
  @ net_rows Net_after_device

(** Record every metric's current value at the loop's virtual time. *)
let snapshot (t : t) loop =
  set t clamped_schedules (Event_loop.clamped_count loop);
  place_net t;
  let values = gauges t @ List.map (fun (k, v) -> k, float_of_int v) (counter_metrics t) in
  t.snapshots <- (Event_loop.now loop, values) :: t.snapshots

(** Snapshots of [t] every [every_us] of virtual time; none without
    [every_us]. The chain rides [loop] as a daemon and stops rescheduling
    once no work is pending, so the loop still drains. *)
let snapshot_periodically ?every_us (t : t) loop =
  Option.iter
    (fun every_us ->
      let rec snap () =
        snapshot t loop;
        if Event_loop.pending_work loop > 0 then
          Event_loop.schedule_daemon loop ~delay:every_us snap
      in
      Event_loop.schedule_daemon loop ~delay:every_us snap)
    every_us

(** The snapshots taken so far, in capture order. *)
let snapshots (t : t) = List.rev t.snapshots

(** End-of-run bookkeeping once [loop] has drained: the run's end time and
    the loop's own counters. *)
let finish (t : t) loop =
  t.end_us <- Event_loop.now loop;
  set t clamped_schedules (Event_loop.clamped_count loop);
  t.loop_events <- Event_loop.dispatched loop;
  place_net t

(** The final metrics and the snapshot timeline, as
    [{"metrics": {...}, "snapshots": [{"ts_us": ..., ...}, ...]}]. *)
let metrics_json (t : t) : Json.t =
  let snap (ts, values) =
    Json.Obj (("ts_us", Json.Float ts) :: List.map (fun (k, v) -> k, Json.Float v) values)
  in
  let final =
    List.map (fun (k, v) -> k, Json.Float v) (gauges t)
    @ List.map (fun (k, v) -> k, Json.Int v) (counter_metrics t)
  in
  Json.Obj [ "metrics", Json.Obj final; "snapshots", Json.List (List.map snap (snapshots t)) ]
