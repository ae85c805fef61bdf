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

    Two backends implement the same EDF contract:

    - [Edf_heap] (the default): a pairing heap on (deadline, seq) for pops
      plus a second pairing heap on (arrival, seq) — sharing the entries,
      with lazy deletion — caching the minimum arrival, and an O(1) length
      counter. Offers are O(1), pops amortized O(log n), and the batcher's
      per-tick [length]/[is_empty]/[oldest_arrival_us] probes are O(1)
      (amortized, for the arrival cache) instead of O(n) list walks.
    - [Sorted_list]: the original sorted-list queue, kept verbatim as an
      executable specification for the differential tests and the honest
      before/after comparison in [bench scale].

    Because the (deadline, seq) order is a strict total order, any correct
    heap pops in exactly the sorted list's order — the two backends are
    observationally identical, pops, sweeps, and counters included. *)

type 'a request = {
  rq_id : int;
  rq_payload : 'a;
  rq_arrival_us : float;
  rq_deadline_us : float option;  (** Absolute; [None] = best effort. *)
}

type backend = Edf_heap | Sorted_list

(* Queue entries carry the insertion sequence number for the stable EDF
   tie-break. [e_live] is the heap backend's lazy-deletion mark: entries
   leave the EDF heap eagerly but linger in the arrival heap until they
   surface at its top. *)
type 'a entry = { e_seq : int; e_req : 'a request; mutable e_live : bool }

(* Pairing heap: O(1) meld/insert, amortized O(log n) delete-min. *)
type 'a heap = E | N of 'a entry * 'a heap list

type 'a t = {
  capacity : int;
  eager_sweep : bool;
  backend : backend;
  mutable q : 'a entry list;  (** [Sorted_list]: sorted by (deadline, seq). *)
  mutable edf : 'a heap;  (** [Edf_heap]: live entries, (deadline, seq) order. *)
  mutable arr : 'a heap;  (** [Edf_heap]: live + stale, (arrival, seq) order. *)
  mutable len : int;  (** [Edf_heap]: live entry count. *)
  mutable next_seq : int;
  mutable shed : int;  (** Rejected at admission: queue full. *)
  mutable expired : int;  (** Dropped at dequeue (or swept): deadline passed. *)
}

(* Global default, mirroring [Event_loop.default_backend]: harnesses flip
   whole simulations onto the reference backend without touching call
   sites. *)
let default_backend = ref Edf_heap

let set_default_backend b = default_backend := b
let current_default_backend () = !default_backend

let create ?backend ?(eager_sweep = false) ~capacity () =
  if capacity <= 0 then Fmt.invalid_arg "Admission.create: capacity must be positive";
  let backend = match backend with Some b -> b | None -> !default_backend in
  {
    capacity;
    eager_sweep;
    backend;
    q = [];
    edf = E;
    arr = E;
    len = 0;
    next_seq = 0;
    shed = 0;
    expired = 0;
  }

let length t = match t.backend with Edf_heap -> t.len | Sorted_list -> List.length t.q
let is_empty t = match t.backend with Edf_heap -> t.len = 0 | Sorted_list -> t.q = []
let shed_count t = t.shed
let expired_count t = t.expired

let deadline_key (r : 'a request) =
  match r.rq_deadline_us with Some d -> d | None -> infinity

(* (deadline, seq) strict ordering: [a] pops before [b]. *)
let before a b =
  let da = deadline_key a.e_req and db = deadline_key b.e_req in
  if da < db then true else if da > db then false else a.e_seq < b.e_seq

(* (arrival, seq) strict ordering for the min-arrival cache. *)
let arrives_before a b =
  let aa = a.e_req.rq_arrival_us and ab = b.e_req.rq_arrival_us in
  if aa < ab then true else if aa > ab then false else a.e_seq < b.e_seq

(* --- pairing heap primitives, parameterized by the strict order --- *)

let meld lt a b =
  match a, b with
  | E, h | h, E -> h
  | N (ea, ca), N (eb, cb) -> if lt ea eb then N (ea, b :: ca) else N (eb, a :: cb)

let heap_insert lt h e = meld lt h (N (e, []))

(* Two-pass pairing melding of a popped root's children. *)
let rec meld_children lt = function
  | [] -> E
  | [ h ] -> h
  | a :: b :: rest -> meld lt (meld lt a b) (meld_children lt rest)

let heap_peek = function E -> None | N (e, _) -> Some e

let heap_pop lt = function
  | E -> None
  | N (e, children) -> Some (e, meld_children lt children)

(* --- Sorted_list reference implementation (unchanged semantics) --- *)

let list_insert t (r : 'a request) =
  let e = { e_seq = t.next_seq; e_req = r; e_live = true } in
  t.next_seq <- t.next_seq + 1;
  let rec go = function
    | [] -> [ e ]
    | x :: rest -> if before e x then e :: x :: rest else x :: go rest
  in
  t.q <- go t.q

(* --- Edf_heap implementation --- *)

let heap_insert_entry t (r : 'a request) =
  let e = { e_seq = t.next_seq; e_req = r; e_live = true } in
  t.next_seq <- t.next_seq + 1;
  t.edf <- heap_insert before t.edf e;
  t.arr <- heap_insert arrives_before t.arr e;
  t.len <- t.len + 1

(* Pop the EDF minimum, marking it dead for the arrival cache. *)
let heap_pop_min t =
  match heap_pop before t.edf with
  | None -> None
  | Some (e, rest) ->
    t.edf <- rest;
    t.len <- t.len - 1;
    e.e_live <- false;
    Some e

(** Earliest queued arrival time, if any — the batcher's timeout anchor.
    Under EDF the head is the most urgent request, not necessarily the
    oldest: the heap backend answers from the arrival-ordered twin heap
    (discarding stale tops left by lazy deletion, amortized O(log n));
    the list backend scans. *)
let oldest_arrival_us t =
  match t.backend with
  | Sorted_list -> (
    match t.q with
    | [] -> None
    | e :: rest ->
      Some
        (List.fold_left
           (fun acc x -> Float.min acc x.e_req.rq_arrival_us)
           e.e_req.rq_arrival_us rest))
  | Edf_heap ->
    if t.len = 0 then None
    else begin
      (* Shed dead tops until a live entry surfaces; [len > 0] guarantees
         one exists. *)
      let rec surface () =
        match heap_peek t.arr with
        | Some e when not e.e_live ->
          (match heap_pop arrives_before t.arr with
          | Some (_, rest) -> t.arr <- rest
          | None -> assert false);
          surface ()
        | Some e -> Some e.e_req.rq_arrival_us
        | None -> None
      in
      surface ()
    end

(** Age of the oldest queued request at [now_us] (0 when empty): the
    queue-delay signal the limiter, brownout and autoscaler key on. *)
let queue_delay_us t ~now_us =
  match oldest_arrival_us t with Some t0 -> now_us -. t0 | None -> 0.0

let expired_at ~now_us (r : 'a request) =
  match r.rq_deadline_us with Some d -> now_us > d | None -> false

(* Drop (and count) every already-expired request in place, returning the
   dropped requests. Called when the queue is full — a full queue of dead
   requests must not shed live ones — and on every offer under
   [eager_sweep]. Expired requests have strictly earlier deadlines than
   live ones, so under EDF they are exactly a prefix of the pop order:
   popping while the top is expired drops the same set, in the same
   order, as partitioning the sorted list. *)
let sweep_expired t ~now_us : 'a request list =
  match t.backend with
  | Sorted_list ->
    let dead, live = List.partition (fun e -> expired_at ~now_us e.e_req) t.q in
    t.q <- live;
    t.expired <- t.expired + List.length dead;
    List.map (fun e -> e.e_req) dead
  | Edf_heap ->
    let rec go acc =
      match heap_peek t.edf with
      | Some e when expired_at ~now_us e.e_req ->
        (match heap_pop_min t with Some _ -> () | None -> assert false);
        t.expired <- t.expired + 1;
        go (e.e_req :: acc)
      | _ -> List.rev acc
    in
    go []

(** Like {!offer}, but also returns the requests the sweep expired — the
    cluster layer needs per-request visibility to keep its request-id
    accounting exact, where the single server only needs the counters. *)
let offer_swept t ~now_us (r : 'a request) : bool * 'a request list =
  let swept =
    if t.eager_sweep || length t >= t.capacity then sweep_expired t ~now_us else []
  in
  if length t >= t.capacity then begin
    t.shed <- t.shed + 1;
    false, swept
  end
  else begin
    (match t.backend with
    | Sorted_list -> list_insert t r
    | Edf_heap -> heap_insert_entry t r);
    true, swept
  end

(** Admit [r], or shed it when the queue is at capacity. A full queue is
    first swept of requests whose deadline already passed (counted under
    [expired], same as a drop at dequeue) — they were never going to
    execute, and they must not cause a live request to be shed. *)
let offer t ~now_us (r : 'a request) : bool = fst (offer_swept t ~now_us r)

(** Like {!take}, but also returns the requests dropped as expired. *)
let take_with_expired t ~now_us ~limit : 'a request list * 'a request list =
  match t.backend with
  | Sorted_list ->
    let rec go k q acc dropped =
      if k = 0 then q, List.rev acc, List.rev dropped
      else
        match q with
        | [] -> q, List.rev acc, List.rev dropped
        | e :: rest ->
          if expired_at ~now_us e.e_req then begin
            t.expired <- t.expired + 1;
            go k rest acc (e.e_req :: dropped)
          end
          else go (k - 1) rest (e.e_req :: acc) dropped
    in
    let q, live, dropped = go limit t.q [] [] in
    t.q <- q;
    live, dropped
  | Edf_heap ->
    let rec go k acc dropped =
      if k = 0 then List.rev acc, List.rev dropped
      else
        match heap_pop_min t with
        | None -> List.rev acc, List.rev dropped
        | Some e ->
          if expired_at ~now_us e.e_req then begin
            t.expired <- t.expired + 1;
            go k acc (e.e_req :: dropped)
          end
          else go (k - 1) (e.e_req :: acc) dropped
    in
    go limit [] []

(** Pop up to [limit] live requests in EDF order, silently discarding (and
    counting) any whose deadline passed while they waited. *)
let take t ~now_us ~limit : 'a request list = fst (take_with_expired t ~now_us ~limit)

(** Drain the whole queue: live requests in EDF order plus the expired
    remainder (counted). Used on replica failover. *)
let drain t ~now_us : 'a request list * 'a request list =
  take_with_expired t ~now_us ~limit:(length t)
