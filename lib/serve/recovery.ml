(** The batch-recovery loop every serving engine shares.

    {!Server}, {!Replica} and the tenancy dispatcher all drive a launched
    batch to a resolution in which every request completes, is shed by the
    retry budget, or is provably poisonous:

    - {e retry}: transient failures re-execute after exponential backoff
      with seeded jitter, up to [max_retries] attempts;
    - {e retry budget}: when a token bucket is armed and cannot cover the
      retry, the batch is shed instead (bisection would be re-offered load
      too);
    - {e bisection}: a batch that keeps failing is split in half and each
      half resolved independently with a fresh retry budget, isolating a
      deterministic poison request in O(log n) extra launches.

    The loop is written once, here; each engine plugs in its own policy as
    an {!owner} record — how a success is delivered, how the device and the
    health or breaker state respond to a fault, what a budget shed and a
    poisoned request mean to it (DESIGN.md §8 tabulates the three).

    Determinism rules the loop keeps for every owner: the retry-budget check
    precedes the single jitter draw, so a run with no budget draws exactly
    what a budget-less one does and a denied retry draws nothing; attempts,
    backoff waits and bisection halves run serially on the owner's device;
    and every continuation is fenced by the owner's epoch, so events from a
    resolution the owner abandoned (failover) no-op. *)

module Profiler = Acrobat_device.Profiler
module Rng = Acrobat_tensor.Rng
module Trace = Acrobat_obs.Trace
module Json = Acrobat_obs.Json
module Budget = Acrobat_resilience.Budget

(** What an executor reports and the knobs that govern recovering from its
    faults; {!Server} re-exports these. *)
module Executor = struct
  (** Knobs of the recovery machinery. The defaults keep every behaviour
      that could alter a fault-free run disabled
      ([degrade_high_frac = infinity]), so a simulation that never sees a
      fault is bit-identical to one run without the fault layer. *)
  type tolerance = {
    max_retries : int;  (** Re-executions of a failed batch before bisecting. *)
    breaker_threshold : int;  (** Consecutive failures that open the breaker. *)
    breaker_cooldown_us : float;  (** Open time before the probe launch. *)
    degrade_high_frac : float;
        (** Queue occupancy (fraction of capacity) that enters degraded
            mode; [infinity] disables pressure-triggered degradation. *)
    degrade_low_frac : float;  (** Occupancy below which degradation lifts. *)
  }

  let default_tolerance =
    {
      max_retries = 2;
      breaker_threshold = 4;
      breaker_cooldown_us = 20_000.0;
      degrade_high_frac = infinity;
      degrade_low_frac = 0.25;
    }

  (* Fixed recovery constants: the first retry delay, its multiplier per
     subsequent retry, the uniform +/- fraction of jitter on each delay,
     the floor for OOM-driven batch shrinking, and the seed of the jitter
     streams (engine [i]'s is [ft_seed + i * 7919]). *)
  let backoff_base_us = 200.0
  let backoff_mult = 2.0
  let jitter_frac = 0.25
  let min_max_batch = 1
  let ft_seed = 0x5eed

  (** What one successful batch execution reports back. *)
  type exec_outcome = {
    ex_latency_us : float;  (** Simulated device busy time for the batch. *)
    ex_profiler : Profiler.t option;  (** Merged into the run's profile. *)
    ex_fingerprints : int64 array option;
        (** Per-request result fingerprints, in batch order (raw
            {!Acrobat_runtime.Fingerprint} words — the serve layer stays
            engine-agnostic). [None] when the executor does not compute
            values; the audit path then falls back to [ex_corrupted]. *)
    ex_corrupted : bool;
        (** Injector ground truth: this attempt's outputs were silently
            corrupted. Only a fault-injecting executor can set it. Feeds
            the delivered-corruption accounting the audit-shield oracle
            checks; detection itself uses fingerprints whenever they are
            present. *)
  }

  (** Verdict of one batch execution attempt. *)
  type exec_result =
    | Exec_ok of exec_outcome
    | Exec_fault of {
        ef_latency_us : float;  (** Device time the failed attempt burned. *)
        ef_reason : string;
        ef_transient : bool;
            (** A retry may succeed. [false] (a deterministic failure such
                as OOM or a poison request) skips straight to bisection. *)
        ef_oom : bool;  (** Out-of-memory: shrink the batch-size cap. *)
        ef_reset : bool;
            (** A full device reset. The single server treats it like any
                transient fault; the cluster's health monitor weighs
                consecutive resets as a stronger down signal. *)
      }
end

include Executor

(** The launch step every engine takes when a device is free: ask
    [batcher] about the (non-empty) [queue] and cap a flush at [cap]. A
    wait that is already due would re-fire at this same virtual instant
    forever, so it flushes whatever is queued instead. *)
let decide_launch batcher queue ~now_us ~cap : Batcher.decision =
  match
    Batcher.decide batcher ~now_us ~queue_len:(Admission.length queue)
      ~oldest_arrival_us:(Option.get (Admission.oldest_arrival_us queue))
  with
  | Batcher.Wait_until at when at > now_us -> Batcher.Wait_until at
  | Batcher.Wait_until _ -> Batcher.Flush (min (Admission.length queue) cap)
  | Batcher.Flush limit -> Batcher.Flush (min limit cap)

(** One engine's device and policy, as the loop sees it. ['r] is the
    engine's batch element (a request, or a tenant-tagged request) and ['a]
    the payload its executor consumes. *)
type ('r, 'a) owner = {
  loop : Event_loop.t;
  tracer : Trace.t;
  pid : int option;
      (** Trace process of the batch-level events; [None] keeps the
          tracer's ambient one (the single server). *)
  tol : tolerance;
  rng : Rng.t;  (** Backoff jitter; drawn once per granted retry, nowhere else. *)
  budget : Budget.t option;  (** Retry tokens; [None] grants every retry. *)
  counters : Stats.t list;
      (** Charged the batch-level counters: faulted attempts, retries,
          retried requests and bisections. *)
  epoch : unit -> int;
      (** Fence: a continuation scheduled under an older epoch no-ops. *)
  payload : 'r -> 'a;
  execute : 'a list -> exec_result;
  deliver : 'r list -> exec_outcome -> now_us:float -> done_us:float -> unit -> unit;
      (** A successful attempt launched at [now_us]: account and deliver
          the batch now, and return what to run at [done_us], just before
          the resolution's continuation. *)
  on_fault : oom:bool -> reset:bool -> freed_us:float -> unit;
      (** A failed attempt's immediate response (health counters, OOM
          shrink, the single server's breaker); runs before the fault is
          traced. *)
  escalate : freed_us:float -> (unit -> unit) option;
      (** The threshold response, after the fault is traced. [Some abort]
          abandons the resolution: [abort] runs at [freed_us] instead of a
          retry or bisection. *)
  retry_shed : 'r list -> freed_us:float -> unit -> unit;
      (** The retry budget ran dry: account the batch as shed now, and
          return what to run at [freed_us], before the continuation. *)
  poison : 'r -> unit;  (** Bisection isolated this element as the poison. *)
}

let charge ?(n = 1) o c = List.iter (fun s -> Stats.add s c n) o.counters

(** Drive [batch] to a resolution — every element completes, is shed by
    the retry budget, or is dropped as poison — then run [k] at the
    virtual time the last attempt finished. *)
let rec resolve (o : ('r, 'a) owner) (batch : 'r list) ~(k : unit -> unit) =
  let epoch = o.epoch () in
  let guard f () = if o.epoch () = epoch then f () in
  (* The batch is fixed for the whole retry/backoff cycle: extract payloads
     once per resolution, not per attempt. *)
  let payloads = List.map o.payload batch in
  let size = List.length batch in
  let rec attempt ~retries_left ~backoff_us () =
    let now_us = Event_loop.now o.loop in
    (* The executor builds a fresh device whose profiler clock starts at
       zero; anchor its trace spans at this attempt's launch time. *)
    Trace.set_context o.tracer ?pid:o.pid ~tid:0 ~base_us:now_us;
    match o.execute payloads with
    | Exec_ok outcome ->
      let done_us = now_us +. Float.max 0.0 outcome.ex_latency_us in
      let at_done = o.deliver batch outcome ~now_us ~done_us in
      Event_loop.schedule o.loop ~at:done_us
        (guard (fun () ->
             at_done ();
             k ()))
    | Exec_fault f -> (
      charge o Stats.fault_batches;
      let freed_us = now_us +. Float.max 0.0 f.ef_latency_us in
      o.on_fault ~oom:f.ef_oom ~reset:f.ef_reset ~freed_us;
      Trace.complete o.tracer ?pid:o.pid ~name:"batch_fault" ~cat:"fault" ~tid:0
        ~ts_us:now_us ~dur_us:f.ef_latency_us
        ~args:
          [
            "reason", Json.Str f.ef_reason;
            "transient", Json.Bool f.ef_transient;
            "size", Json.Int size;
          ];
      match o.escalate ~freed_us with
      | Some abort -> Event_loop.schedule o.loop ~at:freed_us (guard abort)
      | None when f.ef_transient && retries_left > 0 -> (
        (* The retry-budget check precedes the jitter draw: with no budget
           the RNG stream is untouched relative to a budget-less run, and a
           denied retry draws nothing. *)
        match o.budget with
        | Some b when not (Budget.try_spend b size) ->
          let at_freed = o.retry_shed batch ~freed_us in
          Event_loop.schedule o.loop ~at:freed_us
            (guard (fun () ->
                 at_freed ();
                 k ()))
        | budget ->
          if Option.is_some budget then charge o Stats.retried_requests ~n:size;
          charge o Stats.retries;
          let jitter = 1.0 +. (jitter_frac *. ((2.0 *. Rng.float o.rng) -. 1.0)) in
          let at = freed_us +. Float.max 0.0 (backoff_us *. jitter) in
          Trace.instant o.tracer ?pid:o.pid ~name:"retry" ~cat:"fault" ~tid:0 ~ts_us:at
            ~args:[ "attempt", Json.Int (o.tol.max_retries - retries_left + 1) ];
          Event_loop.schedule o.loop ~at
            (guard
               (attempt ~retries_left:(retries_left - 1)
                  ~backoff_us:(backoff_us *. backoff_mult))))
      | None ->
        (* Retries exhausted (or the failure is deterministic): isolate. *)
        Event_loop.schedule o.loop ~at:freed_us (guard (fun () -> bisect o batch ~k)))
  in
  attempt ~retries_left:o.tol.max_retries ~backoff_us:backoff_base_us ()

(* Binary fault isolation. A single survivor of repeated failure is the
   poison: drop it alone. Larger batches split in half; each half gets a
   fresh retry budget so transient noise during isolation does not condemn
   innocent requests. *)
and bisect o batch ~k =
  match batch with
  | [] -> k ()
  | [ r ] ->
    o.poison r;
    k ()
  | _ ->
    charge o Stats.bisections;
    Trace.instant o.tracer ?pid:o.pid ~name:"bisect" ~cat:"fault" ~tid:0
      ~ts_us:(Event_loop.now o.loop)
      ~args:[ "size", Json.Int (List.length batch) ];
    let half = List.length batch / 2 in
    let left = List.filteri (fun i _ -> i < half) batch in
    let right = List.filteri (fun i _ -> i >= half) batch in
    resolve o left ~k:(fun () -> resolve o right ~k)
