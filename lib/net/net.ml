(** The network fault domain: a seeded, deterministic virtual transport
    between the dispatcher and its replicas.

    Every fault the stack could previously inject happened {e inside} a
    replica; the dispatcher↔replica hop was a perfect, instantaneous
    function call. This module makes that hop a real link: each message
    (a dispatched request, or a completion on its way back) traverses a
    per-direction fault pipeline — delay with jitter, random loss,
    duplication, reordering, a timed partition window, and {e gray}
    one-directional loss (sends arrive, completions vanish — the
    asymmetric failure that makes a healthy replica look dead).

    A {!plan} is pure data in the {!Acrobat_device.Faults} clause style
    ([delay=80:20,drop=0.1,dup=0.2,partition=4000:9000]); {!none} is the
    all-zero plan, and a disabled plan must never be consulted — the
    serving layer keeps the direct-call path when [enabled plan] is
    false, so zero-fault configurations stay byte-identical to the
    pre-net stack (no RNG draws, no event-loop schedules, no trace
    emissions).

    The module is deliberately mechanism-only: it draws fates and delays
    from one seeded {!Acrobat_tensor.Rng} stream and answers partition
    queries; the {e protocol} built on top — idempotency keys with the
    per-receiver {!Dedup} window, sender-side deadline shedding against
    the {!ewma_us} delay estimate, per-link timeout and epoch-fenced
    resend — lives with the dispatcher that owns request accounting
    ({!Acrobat_serve.Cluster}, [Acrobat_tenancy.Dispatcher]). *)

module Rng = Acrobat_tensor.Rng
module Clause = Acrobat_device.Clause

type plan = {
  np_seed : int;  (** Seeds the transport's RNG stream. *)
  np_delay_us : float;  (** Base one-way delay per message. *)
  np_jitter_us : float;  (** Uniform +/- jitter on each delay draw. *)
  np_drop : float;  (** P(message lost), each direction independently. *)
  np_dup : float;  (** P(a dispatched request is delivered twice). *)
  np_reorder : float;
      (** P(a message draws a large extra delay and overtakes later
          traffic) — the visible form of reordering on a virtual clock. *)
  np_gray : float;
      (** Gray link: additional P(loss) on the {e return} direction only.
          Requests arrive and execute; completions vanish — the
          asymmetric failure that makes a healthy replica look dead. *)
  np_partition : (float * float * int list) option;
      (** [(t0, t1, group)]: during virtual time [t0, t1) no message
          crosses between the dispatcher and the replicas in [group]
          (an empty group defaults to the highest-id replica). *)
  np_timeout_us : float;
      (** Sender-side per-attempt timeout arming the resend path;
          [0] disables timeouts (pure lossy transport). *)
  np_resends : int;  (** Resends per dispatch attempt before failover. *)
  np_dedup : bool;
      (** Receiver-side idempotency window (exactly-once execution per
          (id, epoch)); [false] is the naive-resend baseline that
          re-executes every duplicate. *)
  np_window : int;  (** Dedup window capacity (ids remembered per replica). *)
}

let default_timeout_us = 8_000.0
let default_resends = 2
let default_window = 512

(** The all-zero plan: a perfect link. [enabled none = false]. *)
let none =
  {
    np_seed = 0;
    np_delay_us = 0.0;
    np_jitter_us = 0.0;
    np_drop = 0.0;
    np_dup = 0.0;
    np_reorder = 0.0;
    np_gray = 0.0;
    np_partition = None;
    np_timeout_us = default_timeout_us;
    np_resends = default_resends;
    np_dedup = true;
    np_window = default_window;
  }

(** Does this plan perturb the transport at all? Protocol knobs (timeout,
    resends, dedup, window) alone do not arm the net layer: with a
    perfect link they would never fire. *)
let enabled p =
  p.np_delay_us > 0.0 || p.np_jitter_us > 0.0 || p.np_drop > 0.0 || p.np_dup > 0.0
  || p.np_reorder > 0.0 || p.np_gray > 0.0 || p.np_partition <> None

(** Can a message on this plan be lost (needing the timeout/resend path
    for conservation)? *)
let lossy p = p.np_drop > 0.0 || p.np_gray > 0.0 || p.np_partition <> None

let what = "net plan"

(** Validate a plan's numeric ranges, naming the offending key. Like
    {!Acrobat_device.Faults.validate}, this is the choke point shared by
    the parser and programmatically built plans (the chaos generator).

    @raise Invalid_argument naming the offending key(s). *)
let validate (p : plan) : unit =
  let fail fmt = Clause.fail ~what fmt in
  Clause.check_prob ~what "drop" p.np_drop;
  Clause.check_prob ~what "dup" p.np_dup;
  Clause.check_prob ~what "reorder" p.np_reorder;
  Clause.check_prob ~what "gray" p.np_gray;
  Clause.check_nonneg ~what "delay" p.np_delay_us;
  Clause.check_nonneg ~what "delay jitter" p.np_jitter_us;
  Clause.check_nonneg ~what "timeout" p.np_timeout_us;
  if p.np_resends < 0 then fail "resends=%d must be non-negative" p.np_resends;
  if p.np_window < 1 then fail "window=%d must be a positive integer" p.np_window;
  (match p.np_partition with
  | None -> ()
  | Some (t0, t1, group) ->
    Clause.check_nonneg ~what "partition start" t0;
    Clause.check_nonneg ~what "partition end" t1;
    if t1 < t0 then fail "partition window %g:%g ends before it starts" t0 t1;
    List.iter
      (fun r -> if r < 0 then fail "partition replica %d must be non-negative" r)
      group);
  if lossy p && p.np_timeout_us <= 0.0 then
    fail
      "a lossy plan (drop/gray/partition) requires timeout > 0, or lost requests would \
       never terminate"

let valid_keys =
  [
    "seed"; "delay"; "drop"; "dup"; "reorder"; "gray"; "partition"; "timeout"; "resends";
    "dedup"; "window";
  ]

(** Parse a plan from a CLI spec: comma-separated [key=value] clauses in
    the {!Acrobat_device.Faults} style.

    {v seed=7,delay=80:20,drop=0.1,dup=0.2,reorder=0.05,gray=0.02,partition=4000:9000:2,timeout=5000,resends=2,dedup=1 v}

    [delay=BASE[:JITTER]] is the one-way delay (uniform +/- JITTER);
    [drop], [dup], [reorder] and [gray] are per-message probabilities;
    [partition=T0:T1[:IDS]] cuts the replicas in [IDS] ([/]-separated
    ids; default the highest-id replica) off between virtual times [T0]
    and [T1]; [timeout], [resends], [dedup] (0/1) and [window] tune the
    delivery protocol. Unknown keys are rejected with the full valid
    list, exactly like fault plans. *)
let parse (spec : string) : plan =
  let fail fmt = Clause.fail ~what fmt in
  let field plan (key, v) =
    match key with
    | "seed" -> { plan with np_seed = Clause.int ~what key v }
    | "delay" -> (
      match String.index_opt v ':' with
      | None -> { plan with np_delay_us = Clause.nonneg ~what key v }
      | Some i ->
        let base = String.sub v 0 i in
        let jitter = String.sub v (i + 1) (String.length v - i - 1) in
        {
          plan with
          np_delay_us = Clause.nonneg ~what key base;
          np_jitter_us = Clause.nonneg ~what "delay jitter" jitter;
        })
    | "drop" -> { plan with np_drop = Clause.prob ~what key v }
    | "dup" -> { plan with np_dup = Clause.prob ~what key v }
    | "reorder" -> { plan with np_reorder = Clause.prob ~what key v }
    | "gray" -> { plan with np_gray = Clause.prob ~what key v }
    | "partition" -> (
      match String.split_on_char ':' v with
      | [ t0; t1 ] ->
        {
          plan with
          np_partition =
            Some (Clause.nonneg ~what "partition start" t0,
                  Clause.nonneg ~what "partition end" t1, []);
        }
      | [ t0; t1; ids ] ->
        let group =
          List.map
            (fun s ->
              match int_of_string_opt s with
              | Some r when r >= 0 -> r
              | _ -> fail "partition replica %S is not a non-negative integer" s)
            (String.split_on_char '/' ids)
        in
        {
          plan with
          np_partition =
            Some (Clause.nonneg ~what "partition start" t0,
                  Clause.nonneg ~what "partition end" t1, group);
        }
      | _ -> fail "partition=%s is not T0:T1[:IDS]" v)
    | "timeout" -> { plan with np_timeout_us = Clause.nonneg ~what key v }
    | "resends" -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> { plan with np_resends = n }
      | _ -> fail "resends=%s is not a non-negative integer" v)
    | "dedup" -> (
      match v with
      | "0" | "false" -> { plan with np_dedup = false }
      | "1" | "true" -> { plan with np_dedup = true }
      | _ -> fail "dedup=%s is not a boolean (0/1)" v)
    | "window" -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> { plan with np_window = n }
      | _ -> fail "window=%s is not a positive integer" v)
    | other -> Clause.unknown_key ~what ~valid:valid_keys other
  in
  let plan = List.fold_left field none (Clause.fields ~what spec) in
  validate plan;
  plan

(** Render [p] in the clause form {!parse} accepts;
    [parse (to_spec p) = p] for any valid plan (round-trip tested).
    Zero-rate transport clauses are still emitted (self-describing, like
    fault plans); protocol knobs are omitted at their defaults so legacy
    specs stay short. *)
let to_spec (p : plan) : string =
  let f = Clause.float_spec in
  let base =
    Fmt.str "seed=%d,delay=%s:%s,drop=%s,dup=%s,reorder=%s,gray=%s" p.np_seed
      (f p.np_delay_us) (f p.np_jitter_us) (f p.np_drop) (f p.np_dup) (f p.np_reorder)
      (f p.np_gray)
  in
  let partition =
    match p.np_partition with
    | None -> ""
    | Some (t0, t1, []) -> Fmt.str ",partition=%s:%s" (f t0) (f t1)
    | Some (t0, t1, group) ->
      Fmt.str ",partition=%s:%s:%a" (f t0) (f t1) Fmt.(list ~sep:(any "/") int) group
  in
  let timeout =
    if p.np_timeout_us = default_timeout_us then ""
    else Fmt.str ",timeout=%s" (f p.np_timeout_us)
  in
  let resends =
    if p.np_resends = default_resends then "" else Fmt.str ",resends=%d" p.np_resends
  in
  let dedup = if p.np_dedup then "" else ",dedup=0" in
  let window =
    if p.np_window = default_window then "" else Fmt.str ",window=%d" p.np_window
  in
  base ^ partition ^ timeout ^ resends ^ dedup ^ window

let pp_plan ppf p = if not (enabled p) then Fmt.pf ppf "none" else Fmt.pf ppf "%s" (to_spec p)

(* --- Partition queries --- *)

(** The partition group resolved against a concrete pool size: an empty
    configured group defaults to the highest-id replica. *)
let group (p : plan) ~n =
  match p.np_partition with
  | None -> []
  | Some (_, _, []) -> if n > 0 then [ n - 1 ] else []
  | Some (_, _, g) -> List.filter (fun r -> r >= 0 && r < n) g

let partition_window (p : plan) =
  match p.np_partition with None -> None | Some (t0, t1, _) -> Some (t0, t1)

let in_group (p : plan) ~replica ~n = List.mem replica (group p ~n)

(** Is the link to [replica] cut at [now_us]? The window is half-open:
    a message stamped exactly at the heal instant crosses. *)
let partitioned (p : plan) ~replica ~n ~now_us =
  match p.np_partition with
  | None -> false
  | Some (t0, t1, _) -> now_us >= t0 && now_us < t1 && in_group p ~replica ~n

(* --- Trace track convention --- *)

(** Link [i]'s trace pid: the dispatcher is pid 0 and replica [i] is pid
    [i + 1], so the [n] link tracks stack after the replicas. *)
let link_pid ~n ~replica = n + 1 + replica

(* --- The stateful transport --- *)

type t = {
  plan : plan;
  rng : Rng.t;
  mutable ewma_us : float;  (** Observed one-way delay estimate. *)
  mutable observed : int;  (** Delay samples folded into the EWMA. *)
}

(** Seed derivation keeps the stream disjoint from every injector and
    arrival stream (cf. [Faults.create]'s [(seed * 0x2545F) lxor 0x5eed]). *)
let create (plan : plan) : t =
  validate plan;
  { plan; rng = Rng.create ((plan.np_seed * 0x9E3B) lxor 0x4e457); ewma_us = 0.0; observed = 0 }

let plan t = t.plan

(** Fold one observed one-way delay into the sender's estimate. The
    first sample initializes the EWMA; later samples decay at 0.2 — fast
    enough to track a congested link, slow enough not to chase jitter. *)
let observe_delay t d =
  if t.observed = 0 then t.ewma_us <- d
  else t.ewma_us <- (0.8 *. t.ewma_us) +. (0.2 *. d);
  t.observed <- t.observed + 1

(** The current one-way delay estimate; 0 before any observation (a
    sender with no evidence sheds nothing). *)
let ewma_us t = if t.observed = 0 then 0.0 else t.ewma_us

(* One delay draw: base +/- jitter, plus the occasional reorder spike
   (an extra 1-2x of the nominal delay, enough to overtake any message
   sent up to one nominal delay later). *)
let draw_delay t =
  let p = t.plan in
  let nominal = p.np_delay_us +. p.np_jitter_us in
  let d =
    if p.np_jitter_us > 0.0 then
      p.np_delay_us +. (p.np_jitter_us *. ((2.0 *. Rng.float t.rng) -. 1.0))
    else p.np_delay_us
  in
  let d = Float.max 0.0 d in
  if p.np_reorder > 0.0 && nominal > 0.0 && Rng.float t.rng < p.np_reorder then
    d +. ((1.0 +. Rng.float t.rng) *. nominal)
  else d

(** Per-copy fate of one dispatched request entering the send link.
    Every copy the transport drew ends in exactly one bucket, so
    [List.length sn_delays + sn_dropped + sn_cut] is the copy count and
    the caller's conservation accounting closes from these three numbers
    alone (the chaos conservation oracle depends on this). *)
type sent = {
  sn_delays : float list;  (** Delivery delays, one per surviving copy. *)
  sn_dropped : int;  (** Copies lost to random loss. *)
  sn_cut : int;  (** Copies blocked by a partition (at send or landing time). *)
}

(** Route one dispatcher→replica message. Draw order is fixed (partition
    check, drop, delay, dup, dup-delay) so a given (seed, plan) replays
    identically. *)
let send t ~now_us ~replica ~n : sent =
  let p = t.plan in
  if partitioned p ~replica ~n ~now_us then { sn_delays = []; sn_dropped = 0; sn_cut = 1 }
  else if p.np_drop > 0.0 && Rng.float t.rng < p.np_drop then
    { sn_delays = []; sn_dropped = 1; sn_cut = 0 }
  else begin
    let d1 = draw_delay t in
    let delays =
      if p.np_dup > 0.0 && Rng.float t.rng < p.np_dup then [ d1; draw_delay t ] else [ d1 ]
    in
    (* A copy whose landing instant falls inside the partition window is
       cut mid-flight. *)
    let crossing =
      List.filter (fun d -> not (partitioned p ~replica ~n ~now_us:(now_us +. d))) delays
    in
    { sn_delays = crossing;
      sn_dropped = 0;
      sn_cut = List.length delays - List.length crossing }
  end

(** Verdict for one completion entering the return link. *)
type recv_verdict =
  | Recv_partitioned
  | Recv_dropped  (** Random loss. *)
  | Recv_gray  (** Gray-link loss (return direction only). *)
  | Recv_deliver of float

(** Route one replica→dispatcher completion. The gray draw follows the
    symmetric drop draw, so [gray] adds loss on top of [drop]. *)
let recv t ~now_us ~replica ~n : recv_verdict =
  let p = t.plan in
  if partitioned p ~replica ~n ~now_us then Recv_partitioned
  else if p.np_drop > 0.0 && Rng.float t.rng < p.np_drop then Recv_dropped
  else if p.np_gray > 0.0 && Rng.float t.rng < p.np_gray then Recv_gray
  else begin
    let d = draw_delay t in
    if partitioned p ~replica ~n ~now_us:(now_us +. d) then Recv_partitioned
    else Recv_deliver d
  end

(* --- Receiver-side idempotency window --- *)

(** A bounded per-receiver memory of recently seen message keys: the
    receiving half of exactly-once delivery. [note]-ing a fresh key may
    evict the oldest live key once [capacity] distinct keys are held —
    within capacity, a noted key is never forgotten (QCheck-tested). *)
module Dedup = struct
  (* Keys are ints hashed as themselves: no polymorphic hash and no boxed
     key per lookup. {!key} puts a request id in the low bits, where
     consecutive ids fill consecutive buckets. *)
  module Tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash k = k
  end)

  type 'v t = {
    tbl : 'v Tbl.t;
    gen : int Tbl.t;  (** Live keys' current insertion generation. *)
    order : (int * int) Queue.t;
        (** Insertion order, generation-stamped: a key removed out-of-band
            and later re-noted gets a fresh generation, so its old queue
            entry is recognizably stale. Without the stamp, eviction could
            pop the stale entry and delete the {e live} re-noted key early
            — exactly the remove-then-retransmit sequence the protocol
            produces (QCheck-tested). *)
    capacity : int;
    mutable tick : int;
  }

  let id_bits = 40

  (** The key of request [id] delivered in replica epoch [epoch]: the id
      in the low [id_bits] bits, the epoch above them. Distinct pairs get
      distinct keys.
      @raise Invalid_argument if either is negative or too large (ids
      from 2{^40}, epochs from 2{^22}). *)
  let key ~id ~epoch =
    if id < 0 || id lsr id_bits <> 0 || epoch < 0 || epoch lsr (Sys.int_size - 1 - id_bits) <> 0
    then Fmt.invalid_arg "Net.Dedup.key: id %d, epoch %d out of range" id epoch;
    id lor (epoch lsl id_bits)

  let create ~capacity : 'v t =
    if capacity < 1 then Fmt.invalid_arg "Net.Dedup.create: capacity %d < 1" capacity;
    {
      tbl = Tbl.create (min capacity 1024);
      gen = Tbl.create (min capacity 1024);
      order = Queue.create ();
      capacity;
      tick = 0;
    }

  let find t k = Tbl.find_opt t.tbl k
  let mem t k = Tbl.mem t.tbl k
  let length t = Tbl.length t.tbl

  (* Evict oldest live keys until within capacity, skipping queue entries
     whose generation no longer matches (removed, or removed-then-renoted). *)
  let rec evict t =
    if Tbl.length t.tbl > t.capacity then begin
      match Queue.take_opt t.order with
      | None -> ()
      | Some (k, g) ->
        (match Tbl.find_opt t.gen k with
        | Some g' when g' = g ->
          Tbl.remove t.tbl k;
          Tbl.remove t.gen k
        | _ -> ());
        evict t
    end

  (* Drop every stale queue entry, keeping the live ones in order. Eviction
     skips stale entries anyway, so which live key goes next is unchanged;
     this only bounds the queue when keys are removed out-of-band faster
     than eviction drains them (a shed-and-nack storm). *)
  let compact t =
    let live = Queue.create () in
    Queue.iter
      (fun ((k, g) as e) ->
        match Tbl.find_opt t.gen k with
        | Some g' when g' = g -> Queue.push e live
        | _ -> ())
      t.order;
    Queue.clear t.order;
    Queue.transfer live t.order

  (** Insert or update [k]. Updating an existing key refreshes its value
      without consuming a window slot. *)
  let note t k v =
    if Tbl.mem t.tbl k then Tbl.replace t.tbl k v
    else begin
      Tbl.replace t.tbl k v;
      t.tick <- t.tick + 1;
      Tbl.replace t.gen k t.tick;
      Queue.push (k, t.tick) t.order;
      evict t;
      (* Live entries number at most [capacity], so a queue past twice that
         is mostly stale: compacting costs O(capacity) at most once per
         [capacity] notes. *)
      if Queue.length t.order - t.capacity > t.capacity then compact t
    end

  (** Entries in the insertion-order queue, stale ones included; at most
      twice the capacity. *)
  let queued t = Queue.length t.order

  (** Forget [k] (e.g. a delivery the replica shed without executing —
      a later retransmission must be allowed to execute). *)
  let remove t k =
    Tbl.remove t.tbl k;
    Tbl.remove t.gen k
end
