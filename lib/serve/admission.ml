(** Admission control: a bounded request queue with load shedding and
    deadline drops.

    Backpressure is the first line of defense of an online server: when the
    offered load exceeds device capacity, an unbounded queue turns every
    request's latency into the queue's age. We bound the queue and shed at
    the door instead (callers count the shed), and expire requests whose
    deadline has already passed when they are popped for execution — running
    them would waste device time on an answer nobody is waiting for.

    Queued requests are ordered earliest-deadline-first (EDF) with
    insertion order breaking ties, so near-deadline work is never starved
    behind requests that have more slack. Deadline-less requests sort
    last. When every queued request carries the same {e relative} deadline
    — one shared [--deadline-ms], one tenant's SLO, or no deadline at all,
    i.e. every configuration that predates per-queue deadline mixing —
    absolute deadlines are monotone in arrival order and EDF is
    order-identical to the old FIFO, pops and sweeps included.

    [eager_sweep] additionally purges expired requests on {e every} offer
    (the resilience layer arms it): under overload, dead requests stop
    holding queue slots that would otherwise shed live arrivals. Off by
    default — the legacy queue sweeps only when full.

    The queue itself is an {!Edf_queue}; admission owns capacity, the
    sweeps and expiry around it. Callers count what {!offer_swept} and
    {!take_with_expired} hand back: the queue keeps no counters. *)

type 'a request = {
  rq_id : int;
  rq_payload : 'a;
  rq_arrival_us : float;
  rq_deadline_us : float option;  (** Absolute; [None] = best effort. *)
}

type 'a t = {
  capacity : int;
  eager_sweep : bool;
  q : 'a request Edf_queue.t;  (** (deadline, seq) order. *)
}

let create ?(eager_sweep = false) ~capacity () =
  if capacity <= 0 then Fmt.invalid_arg "Admission.create: capacity must be positive";
  { capacity; eager_sweep; q = Edf_queue.create () }

let length t = Edf_queue.length t.q
let is_empty t = length t = 0

let deadline_key (r : 'a request) =
  match r.rq_deadline_us with Some d -> d | None -> infinity

(** Earliest queued arrival time, if any — the batcher's timeout anchor.
    Under EDF the head is the most urgent request, not necessarily the
    oldest. *)
let oldest_arrival_us t = Edf_queue.oldest_arrival t.q

(** Age of the oldest queued request at [now_us] (0 when empty): the
    queue-delay signal the limiter, brownout and autoscaler key on. *)
let queue_delay_us t ~now_us =
  match oldest_arrival_us t with Some t0 -> now_us -. t0 | None -> 0.0

let expired_at ~now_us (r : 'a request) =
  match r.rq_deadline_us with Some d -> now_us > d | None -> false

(* Drop every already-expired request, returning them. Called when the
   queue is full — a full queue of dead requests must not shed live ones —
   and on every offer under [eager_sweep]. Expired requests have strictly
   earlier deadlines than live ones, so under EDF they are exactly a
   prefix of the pop order. *)
let sweep_expired t ~now_us : 'a request list =
  let rec go acc =
    match Edf_queue.peek t.q with
    | Some r when expired_at ~now_us r ->
      ignore (Edf_queue.pop t.q);
      go (r :: acc)
    | _ -> List.rev acc
  in
  go []

(** Admit [r] (true), or shed it when the queue is at capacity (false).
    A full queue is first swept of requests whose deadline already passed
    — they were never going to execute, and they must not cause a live
    request to be shed; the swept requests are returned beside the
    verdict. *)
let offer_swept t ~now_us (r : 'a request) : bool * 'a request list =
  let swept =
    if t.eager_sweep || length t >= t.capacity then sweep_expired t ~now_us else []
  in
  if length t >= t.capacity then false, swept
  else begin
    Edf_queue.insert t.q ~deadline:(deadline_key r) ~arrival:r.rq_arrival_us r;
    true, swept
  end

(** Pop up to [limit] live requests in EDF order, plus the requests
    dropped on the way because their deadline passed while they waited. *)
let take_with_expired t ~now_us ~limit : 'a request list * 'a request list =
  let rec go k acc dropped =
    if k = 0 then List.rev acc, List.rev dropped
    else
      match Edf_queue.pop t.q with
      | None -> List.rev acc, List.rev dropped
      | Some r ->
        if expired_at ~now_us r then go k acc (r :: dropped)
        else go (k - 1) (r :: acc) dropped
  in
  go limit [] []

(** Drain the whole queue: live requests in EDF order plus the expired
    remainder. Used on replica failover. *)
let drain t ~now_us : 'a request list * 'a request list =
  take_with_expired t ~now_us ~limit:(length t)
