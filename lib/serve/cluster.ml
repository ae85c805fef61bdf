(** A replicated serving cluster on one virtual timeline.

    N {!Replica}s — each with its own device, admission queue, batcher
    state and (via the caller-supplied executor array) its own fault plan —
    sit behind a dispatcher that owns per-request accounting. The cluster
    layer adds the three robustness mechanisms a single survivable server
    cannot provide:

    - {b Health-checked failover.} A replica whose recovery machinery gives
      up (consecutive-failure threshold, or the stricter consecutive-reset
      threshold, or a failed probe) goes down; its queued and in-flight
      requests drain back to the dispatcher and are re-dispatched to
      healthy peers — each request keeps its original arrival time and
      deadline, and a bounded requeue budget guarantees termination even if
      every replica is faulty. After the cooldown the replica accepts a
      single probe request; success re-admits it.
    - {b Dispatch policies.} Round-robin, join-shortest-queue, or
      least-expected-latency (remaining device busy time plus the replica's
      online latency-model estimate for the queue the request would join).
    - {b Hedged requests.} When enough completions have been observed, each
      arrival arms a timer at a percentile of recent end-to-end latency; if
      the request is still unresolved when the timer fires, a duplicate is
      issued on a different healthy replica. First completion wins; a
      duplicate still queued when its winner finishes is dropped unexecuted
      (a {e cancel}), one that was already executing is counted as
      {e wasted}.

    {b Accounting invariant} (checked by tests): every offered request
    terminates exactly once — completed, shed, expired, poisoned, or
    requeue-budget-exhausted — no matter how many copies hedging created or
    how many times failover moved it. The dispatcher keeps a per-request-id
    entry holding the request's {!Hedge.copies} ledger (the hedge copy is
    named by its replica id); replica callbacks funnel every copy-level
    event through it.

    Determinism: everything runs on the shared {!Event_loop}; the only RNG
    streams are the per-replica backoff jitter (seeded from the tolerance
    seed and replica id) and whatever the executors draw internally. Same
    seeds and fault plans ⇒ byte-identical stats. *)

module Trace = Acrobat_obs.Trace
module Json = Acrobat_obs.Json
module Net = Acrobat_net.Net
module Budget = Acrobat_resilience.Budget
module Resilience = Acrobat_resilience.Policy

type dispatch = Round_robin | Join_shortest_queue | Least_expected_latency

let dispatch_name = function
  | Round_robin -> "rr"
  | Join_shortest_queue -> "jsq"
  | Least_expected_latency -> "lel"

let dispatch_of_string = function
  | "rr" | "round-robin" -> Some Round_robin
  | "jsq" | "shortest-queue" -> Some Join_shortest_queue
  | "lel" | "least-latency" -> Some Least_expected_latency
  | _ -> None

type config = {
  c_server : Server.config;  (** Per-replica server knobs (shared). *)
  c_replicas : int;
  c_dispatch : dispatch;
  c_hedge_percentile : float option;
      (** Hedge delay as a percentile (e.g. 95.0) of recent end-to-end
          latency; [None] disables hedging. *)
  c_reset_threshold : int;
      (** Consecutive device resets that fail a replica over (stronger
          signal than generic faults, so it is tighter than the breaker
          threshold). *)
  c_requeue_budget : int;
      (** Re-dispatches per request before it is dropped; bounds work when
          every replica is faulty. *)
  c_net : Net.plan option;
      (** Network fault plan for the dispatcher↔replica links; [None] (or a
          plan with no armed clause) keeps the direct-call path — no RNG
          draws, no extra events, byte-identical output. *)
}

let default_config =
  {
    c_server = Server.default_config;
    c_replicas = 1;
    c_dispatch = Join_shortest_queue;
    c_hedge_percentile = None;
    c_reset_threshold = 2;
    c_requeue_budget = 8;
    c_net = None;
  }

(* Consecutive per-link timeouts before the link is declared unreachable
   and the dispatcher stops routing new work at it (the link-level analogue
   of the replica breaker threshold, but tighter: a partitioned-away
   replica should be indistinguishable from a dead one quickly). *)
let link_down_threshold = 2

(** Dispatcher-side life cycle of one offered request. *)
type 'a entry = {
  ent_req : 'a Admission.request;
  ent_copies : int Hedge.copies;  (** The hedge copy is named by its replica. *)
  mutable ent_home : int;  (** Replica holding the primary copy. *)
  mutable ent_requeues : int;
  mutable ent_deposited : bool;
      (** Retry-budget tokens credited (once per logical request). *)
  mutable ent_at_replica : int;
      (** Net path: target of the one {e tracked} in-flight attempt (hedge
          copies ride untracked — the primary's timeout is their
          recovery). *)
  mutable ent_at_no : int;
      (** Net path: sends this attempt cycle, [0] when no attempt is live.
          A stale timeout (bumped [ent_at_no]) no-ops, which is the
          sender-side fence. *)
}

(* --- Network fault-domain state (armed only when [c_net] is) --- *)

(** What a replica's idempotency window remembers about a request key. *)
type dedup_state =
  | Dd_pending  (** Delivered and queued/executing; result not yet known. *)
  | Dd_done of { di_size : int; di_start_us : float; di_done_us : float }
      (** Executed; a duplicate delivery re-acks this result instead of
          re-executing (exactly-once under dup+resend). *)

type netstate = {
  nt : Net.t;  (** The seeded transport (RNG + delay EWMA). *)
  n_plan : Net.plan;
  dedups : (int * int, dedup_state) Net.Dedup.t array;
      (** Per-replica idempotency windows keyed [(request id, replica
          epoch)] — the epoch fence lets a recovered replica re-execute
          requeued work without tripping exactly-once. *)
  mutable live_attempts : int;  (** Entries with a live tracked attempt. *)
  unreachable : bool array;  (** Links declared down on consecutive timeouts. *)
  consec_timeouts : int array;
  probing : bool array;  (** A link-probe loop is in flight. *)
  n_budget : Budget.t option;
      (** Dispatcher-side resend budget (PR 7's token bucket): armed iff
          the server's retry budget is, so net resends and device retries
          obey the same retries-per-fresh-admission bound. *)
}

type 'a t = {
  cfg : config;
  loop : Event_loop.t;
  mutable replicas : 'a Replica.t array;  (** Filled once during [simulate]. *)
  stats : Stats.t;  (** Cluster aggregate; terminal outcomes only. *)
  mutable entries : 'a entry array;
      (** Indexed by request id (ids are [0..n-1]); filled once during
          [simulate]. An entry is untouched until its arrival. *)
  pending : 'a Admission.request Queue.t;
      (** Requests with no healthy replica to go to; drained on probe
          windows and re-admissions. *)
  mutable rr_next : int;
  window : Hedge.window;  (** Recent winning latencies. *)
  tracer : Trace.t;  (** Dispatcher-level emissions land on pid 0. *)
  mutable net : netstate option;  (** [None] ⇒ the direct-call paths, untouched. *)
}

let entry st rq_id = st.entries.(rq_id)

(* Retire the entry's tracked attempt, if one is live. *)
let drop_attempt ns (ent : 'a entry) =
  if ent.ent_at_no > 0 then begin
    ent.ent_at_no <- 0;
    ns.live_attempts <- ns.live_attempts - 1
  end

(* A copy vanished without completing. When it was the last live copy of an
   unresolved request, that request's terminal outcome is [terminal]. *)
let copy_lost st (ent : 'a entry) ~(terminal : Stats.Outcome.t) =
  match Hedge.lose ent.ent_copies with
  | Hedge.Live | Hedge.Resolved -> ()
  | Hedge.Terminal ->
    Stats.incr st.stats terminal.Stats.Outcome.counter;
    if Trace.enabled st.tracer then begin
      let id = ent.ent_req.Admission.rq_id in
      Trace.instant st.tracer ~name:terminal.Stats.Outcome.name ~cat:"request" ~pid:0
        ~tid:(Server.req_tid id)
        ~ts_us:(Event_loop.now st.loop)
        ~args:[ "id", Json.Int id ]
    end

(* A still-queued copy of an already-resolved request was discarded — the
   cheap hedge "cancellation". *)
let copy_cancelled st (ent : 'a entry) =
  ignore (Hedge.lose ent.ent_copies);
  Stats.incr st.stats Stats.hedge_cancels

(* The tracked (primary) copy reached a terminal on the net path. A hedge
   copy rides the transport untracked — no timeout of its own — so its ack
   may already be lost with nothing left to recover it; waiting on it could
   leave the request with no terminal ever. The primary's terminal is
   therefore authoritative: any still-unresolved hedge copy is abandoned
   with it, and a hedge ack that does survive later just settles the copy
   count like any losing ack on a resolved request. *)
let primary_lost st (ent : 'a entry) ~terminal =
  if not ent.ent_copies.Hedge.resolved then ent.ent_copies.Hedge.live <- 1;
  copy_lost st ent ~terminal

(* The first completion of a request: record it, and credit the hedge when
   the winning copy ran on the hedge's replica. *)
let resolved_by st (ent : 'a entry) ~replica ~start_us ~done_us ~batch_size =
  let r = ent.ent_req in
  let id = r.Admission.rq_id in
  Stats.record_fields st.stats ~id ~arrival_us:r.Admission.rq_arrival_us ~start_us ~done_us
    ~batch_size;
  Hedge.observe st.window (done_us -. r.Admission.rq_arrival_us);
  if Trace.enabled st.tracer then
    Trace.instant st.tracer ~name:"done" ~cat:"request" ~pid:0 ~tid:(Server.req_tid id)
      ~ts_us:done_us
      ~args:[ "id", Json.Int id; "replica", Json.Int replica ];
  match ent.ent_copies.Hedge.hedge with
  | Some h when h = replica -> Stats.incr st.stats Stats.hedge_wins
  | _ -> ()

(* --- Dispatch --- *)

(* Is the link to replica [i] usable? Always true on the direct-call path;
   with a net plan armed, a link declared unreachable (consecutive
   timeouts — a partition is indistinguishable from a dead replica) is
   skipped until a probe round-trip heals it. *)
let link_up st i =
  match st.net with None -> true | Some ns -> not ns.unreachable.(i)

(* Pick a healthy replica per the configured policy; [exclude] bars one id
   (the hedge's primary home). Ties break toward the lowest id, which keeps
   selection deterministic. *)
let pick_up st ~exclude ~now_us =
  let n = Array.length st.replicas in
  let best = ref None in
  Array.iteri
    (fun i rep ->
      if i <> exclude && Replica.health rep = Replica.Up && link_up st i then begin
        let key =
          match st.cfg.c_dispatch with
          | Round_robin -> float_of_int ((i - st.rr_next + n) mod n)
          | Join_shortest_queue ->
            float_of_int (Replica.queue_length rep + if Replica.is_busy rep then 1 else 0)
          | Least_expected_latency -> Replica.expected_latency_us rep ~now_us
        in
        match !best with Some (_, bk) when bk <= key -> () | _ -> best := Some (i, key)
      end)
    st.replicas;
  match !best with
  | Some (i, _) ->
    if st.cfg.c_dispatch = Round_robin then st.rr_next <- (i + 1) mod n;
    Some i
  | None -> None

(* Probing replicas take priority for a single request at a time: routing
   one live request there is the price of re-admission, and a failed probe
   fails over and requeues it, so nothing is lost. *)
let select st ~now_us =
  let probe = ref (-1) in
  Array.iteri
    (fun i rep -> if !probe < 0 && Replica.wants_probe rep && link_up st i then probe := i)
    st.replicas;
  if !probe >= 0 then Some (!probe, true)
  else
    match pick_up st ~exclude:(-1) ~now_us with
    | Some i -> Some (i, false)
    | None -> None

(* --- The virtual transport (armed only when [c_net] is) --- *)

(* Per-request net event on the link's trace track. Guarded, like every
   per-request emission here, so a disabled tracer builds no arguments. *)
let net_trace st ~name ~replica ?(extra = []) id =
  if Trace.enabled st.tracer then
    Trace.instant st.tracer ~name ~cat:"net"
      ~pid:(Net.link_pid ~n:(Array.length st.replicas) ~replica)
      ~tid:(Server.req_tid id)
      ~ts_us:(Event_loop.now st.loop)
      ~args:(("id", Json.Int id) :: ("replica", Json.Int replica) :: extra)

(* Link-level net event (no request attached). *)
let link_trace st ~name i =
  if Trace.enabled st.tracer then
    Trace.instant st.tracer ~name ~cat:"net"
      ~pid:(Net.link_pid ~n:(Array.length st.replicas) ~replica:i)
      ~tid:0
      ~ts_us:(Event_loop.now st.loop)
      ~args:[ "replica", Json.Int i ]

(* Put one reply (an ack or a nack) for [ent] on replica [replica]'s return
   link. Loss here — random, gray, or a partition — is exactly what the
   sender's timeout+resend and the receiver's [Dd_done] re-ack exist to
   absorb; [deliver] settles a reply that lands. *)
let send_back st ns ~replica (ent : 'a entry) deliver =
  let id = ent.ent_req.Admission.rq_id in
  let now_us = Event_loop.now st.loop in
  let n = Array.length st.replicas in
  Stats.incr st.stats Stats.net_acks;
  match Net.recv ns.nt ~now_us ~replica ~n with
  | Net.Recv_partitioned ->
    Stats.incr st.stats Stats.net_ack_drops;
    net_trace st ~name:"net_cut" ~replica id
  | Net.Recv_dropped ->
    Stats.incr st.stats Stats.net_ack_drops;
    net_trace st ~name:"net_drop" ~replica id
  | Net.Recv_gray ->
    Stats.incr st.stats Stats.net_gray_drops;
    net_trace st ~name:"net_gray" ~replica id
  | Net.Recv_deliver d -> Event_loop.schedule_after st.loop ~delay:d deliver

(* A reply landed at the dispatcher: it clears the link's timeout streak. *)
let reply_landed st ns ~replica (ent : 'a entry) =
  Stats.incr st.stats Stats.net_ack_deliveries;
  net_trace st ~name:"net_recv" ~replica ent.ent_req.Admission.rq_id;
  ns.consec_timeouts.(replica) <- 0

(* A completion (ack). The first ack to land resolves the request — its
   done time is the ack's arrival, so latency honestly includes the return
   transit; later acks (re-acks for filtered duplicates, or the losing copy
   of a hedge pair) only settle accounting. The ack also carries the
   replica-side completion stamp, which is the sender's only evidence of
   the one-way delay it feeds the shedding EWMA. *)
let send_ack st ns ~replica (ent : 'a entry) ~di_size ~di_start_us ~di_done_us =
  send_back st ns ~replica ent (fun () ->
      reply_landed st ns ~replica ent;
      let now_us = Event_loop.now st.loop in
      Net.observe_delay ns.nt (now_us -. di_done_us);
      drop_attempt ns ent;
      if Hedge.complete ent.ent_copies then
        resolved_by st ent ~replica ~start_us:di_start_us ~done_us:now_us ~batch_size:di_size)

(* A replica-side refusal (queue full / limiter): the authoritative shed,
   same terminal the direct path applies. A lost nack is recovered by the
   sender's timeout like any other silence. *)
let send_nack st ns ~replica (ent : 'a entry) ~terminal =
  send_back st ns ~replica ent (fun () ->
      reply_landed st ns ~replica ent;
      let unresolved = not ent.ent_copies.Hedge.resolved in
      copy_lost st ent ~terminal;
      if unresolved && ent.ent_copies.Hedge.resolved then drop_attempt ns ent)

(* One request copy lands at replica [i]'s ingress. The idempotency window
   (keyed by request id and the replica's fencing epoch) decides: fresh ⇒
   execute, pending ⇒ filter, done ⇒ re-ack the remembered result. This is
   the receiving half of exactly-once: however many copies dup+resend
   create, at most one executes per (id, epoch). *)
let net_deliver st ns (ent : 'a entry) (r : 'a Admission.request) i =
  let rep = st.replicas.(i) in
  let id = r.Admission.rq_id in
  match Replica.health rep with
  | Replica.Down | Replica.Quarantined ->
    (* Delivered into a dead endpoint: indistinguishable from loss; the
       sender's timeout recovers. *)
    Stats.incr st.stats Stats.net_drops;
    net_trace st ~name:"net_drop" ~replica:i id
  | Replica.Up | Replica.Probing -> (
    Stats.incr st.stats Stats.net_deliveries;
    net_trace st ~name:"net_deliver" ~replica:i id;
    let ep = Replica.epoch rep in
    let key = (id, ep) in
    let window = ns.dedups.(i) in
    match (if ns.n_plan.Net.np_dedup then Net.Dedup.find window key else None) with
    | Some Dd_pending ->
      Stats.incr st.stats Stats.net_dedup_hits;
      net_trace st ~name:"net_dedup" ~replica:i id
    | Some (Dd_done { di_size; di_start_us; di_done_us }) ->
      Stats.incr st.stats Stats.net_dedup_hits;
      net_trace st ~name:"net_dedup" ~replica:i id;
      (* The result is already known: re-ack it instead of re-executing —
         how a lost ack is recovered without double execution. *)
      send_ack st ns ~replica:i ent ~di_size ~di_start_us ~di_done_us
    | None -> (
      Stats.incr st.stats Stats.net_fresh;
      if ns.n_plan.Net.np_dedup then Net.Dedup.note window key Dd_pending;
      match Replica.enqueue rep r with
      | Replica.Admitted ->
        if Trace.enabled st.tracer then
          net_trace st ~name:"net_exec" ~replica:i ~extra:[ "epoch", Json.Int ep ] id;
        if not ent.ent_deposited then begin
          ent.ent_deposited <- true;
          Replica.deposit_budget rep
        end
      | Replica.Shed_queue ->
        (* Never executed: forget the key so a later retransmission may
           execute, and nack the sender. *)
        if ns.n_plan.Net.np_dedup then Net.Dedup.remove window key;
        send_nack st ns ~replica:i ent ~terminal:Stats.Outcome.shed
      | Replica.Shed_limit ->
        if ns.n_plan.Net.np_dedup then Net.Dedup.remove window key;
        send_nack st ns ~replica:i ent ~terminal:Stats.Outcome.shed_limit))

(* Put one request copy on the send link: it may be cut by a partition,
   lost, duplicated, delayed, or reordered — each surviving copy becomes a
   scheduled delivery at the replica's ingress. *)
let net_transmit st ns (ent : 'a entry) (r : 'a Admission.request) i ~resend =
  let id = r.Admission.rq_id in
  let now_us = Event_loop.now st.loop in
  let n = Array.length st.replicas in
  Stats.incr st.stats Stats.net_sends;
  if resend then Stats.incr st.stats Stats.net_resends;
  net_trace st ~name:"net_send" ~replica:i id;
  let snt = Net.send ns.nt ~now_us ~replica:i ~n in
  let copies = List.length snt.Net.sn_delays + snt.Net.sn_dropped + snt.Net.sn_cut in
  Stats.add st.stats Stats.net_dups (copies - 1);
  Stats.add st.stats Stats.net_drops snt.Net.sn_dropped;
  Stats.add st.stats Stats.net_partition_drops snt.Net.sn_cut;
  if snt.Net.sn_dropped > 0 then net_trace st ~name:"net_drop" ~replica:i id;
  if snt.Net.sn_cut > 0 then net_trace st ~name:"net_cut" ~replica:i id;
  List.iter
    (fun d ->
      Event_loop.schedule_after st.loop ~delay:d (fun () -> net_deliver st ns ent r i))
    snt.Net.sn_delays

let rec dispatch st (r : 'a Admission.request) =
  let ent = entry st r.Admission.rq_id in
  let now_us = Event_loop.now st.loop in
  match select st ~now_us with
  | None ->
    Queue.push r st.pending;
    (* With every usable target gone, parked work needs link probes to
       ever drain again: rekick the probe loop of each downed link. *)
    (match st.net with
    | Some ns ->
      Array.iteri (fun i down -> if down then net_kick_probe st ns i) ns.unreachable
    | None -> ())
  | Some (i, is_probe) ->
    if is_probe then Stats.incr st.stats Stats.probes;
    ent.ent_home <- i;
    (match st.net with
    | None -> (
      match Replica.enqueue st.replicas.(i) r with
      | Replica.Admitted ->
        if not ent.ent_deposited then begin
          ent.ent_deposited <- true;
          Replica.deposit_budget st.replicas.(i)
        end
      | Replica.Shed_queue -> copy_lost st ent ~terminal:Stats.Outcome.shed
      | Replica.Shed_limit -> copy_lost st ent ~terminal:Stats.Outcome.shed_limit)
    | Some ns -> net_dispatch st ns ent r i)

(* Net-mode dispatch of the tracked (primary) copy to replica [i]:
   deadline propagation first, then transmit and arm the per-attempt
   timeout. Also the resend path — the entry's attempt fields persist
   across sends of one cycle, and each send re-checks the deadline. *)
and net_dispatch st ns (ent : 'a entry) (r : 'a Admission.request) i =
  let now_us = Event_loop.now st.loop in
  let ewma = Net.ewma_us ns.nt in
  match r.Admission.rq_deadline_us with
  | Some dl when ewma > 0.0 && now_us +. ewma > dl ->
    (* Sender-side deadline propagation: the remaining budget cannot cover
       even the observed one-way transit, so shed here instead of burning
       link and replica capacity on a result nobody can use. *)
    drop_attempt ns ent;
    primary_lost st ent ~terminal:Stats.Outcome.net_shed
  | _ ->
    if ent.ent_at_no = 0 then ns.live_attempts <- ns.live_attempts + 1;
    ent.ent_at_replica <- i;
    ent.ent_at_no <- ent.ent_at_no + 1;
    net_transmit st ns ent r i ~resend:(ent.ent_at_no > 1);
    if ns.n_plan.Net.np_timeout_us > 0.0 then begin
      let my_no = ent.ent_at_no in
      Event_loop.schedule_after st.loop ~delay:ns.n_plan.Net.np_timeout_us (fun () ->
          net_timeout st ns ent r my_no)
    end

(* One attempt cycle is spent: fall back to the cluster's requeue
   discipline (budgeted re-dispatch, parked when nowhere is healthy), so
   termination survives even a fully-lossy link. *)
and net_requeue st ns (ent : 'a entry) ~from =
  drop_attempt ns ent;
  requeue_entry st ent ~from ~lose:primary_lost

(* Spend one of the request's re-dispatches, taking it away from replica
   [from]: past the budget the request ends as budget-exhausted through
   [lose]; otherwise it is dispatched afresh ([from] is no longer a target,
   so it routes elsewhere or parks when nowhere is healthy). *)
and requeue_entry st (ent : 'a entry) ~from ~lose =
  let id = ent.ent_req.Admission.rq_id in
  ent.ent_requeues <- ent.ent_requeues + 1;
  if ent.ent_requeues > st.cfg.c_requeue_budget then
    lose st ent ~terminal:Stats.Outcome.budget_exhausted
  else begin
    Stats.incr st.stats Stats.requeued;
    if Trace.enabled st.tracer then
      Trace.instant st.tracer ~name:"requeue" ~cat:"cluster" ~pid:0 ~tid:(Server.req_tid id)
        ~ts_us:(Event_loop.now st.loop)
        ~args:[ "id", Json.Int id; "from", Json.Int from ];
    dispatch st ent.ent_req
  end

(* The per-attempt timeout fired. Stale if the request resolved or a later
   send already bumped the attempt number (the sender-side fence); live
   silence feeds the link-health counter and triggers an epoch-consistent
   resend — same replica while it looks reachable, else re-selection. *)
and net_timeout st ns (ent : 'a entry) (r : 'a Admission.request) my_no =
  if ent.ent_at_no = my_no && not ent.ent_copies.Hedge.resolved then begin
    let i = ent.ent_at_replica in
    Stats.incr st.stats Stats.net_timeouts;
    net_trace st ~name:"net_timeout" ~replica:i r.Admission.rq_id;
    ns.consec_timeouts.(i) <- ns.consec_timeouts.(i) + 1;
    if ns.consec_timeouts.(i) >= link_down_threshold && not ns.unreachable.(i) then
      net_link_down st ns i;
    if ent.ent_at_no > ns.n_plan.Net.np_resends then net_requeue st ns ent ~from:i
    else begin
      match ns.n_budget with
      | Some b when not (Budget.try_spend b 1) ->
        (* Resends compose with the retry budget: when the bucket is dry,
           the resend converts into a counted shed (DESIGN.md §13). *)
        drop_attempt ns ent;
        primary_lost st ent ~terminal:Stats.Outcome.retry_budget
      | _ ->
        if link_up st i && Replica.health st.replicas.(i) = Replica.Up then
          net_dispatch st ns ent r i
        else net_requeue st ns ent ~from:i
    end
  end

(* Consecutive timeouts declared the link dead (a partition is
   indistinguishable from a dead replica). Routing already skips it via
   [link_up]; a probe loop (ping across the faulty link, pong back) heals
   it, and a configured partition window gets one forced probe at its heal
   time so the link re-admits even with no request traffic outstanding. *)
and net_link_down st ns i =
  ns.unreachable.(i) <- true;
  Stats.incr st.stats Stats.net_link_downs;
  link_trace st ~name:"net_link_down" i;
  net_kick_probe st ns i;
  match Net.partition_window ns.n_plan with
  | Some (_, t1) when t1 > Event_loop.now st.loop ->
    Event_loop.schedule st.loop ~at:t1 (fun () -> net_force_probe st ns i)
  | _ -> ()

and net_kick_probe st ns i =
  if ns.unreachable.(i) && not ns.probing.(i) then begin
    ns.probing.(i) <- true;
    net_probe st ns i ~force:false
  end

and net_force_probe st ns i =
  if ns.unreachable.(i) then begin
    ns.probing.(i) <- true;
    net_probe st ns i ~force:true
  end

(* One probe round: a ping across the send link, a pong across the return
   link; both surviving heals the link. The loop parks itself when no
   request work is outstanding ([dispatch] rekicks it when parked work
   appears), so the event loop always drains. *)
and net_probe st ns i ~force =
  if not ns.unreachable.(i) then ns.probing.(i) <- false
  else if (not force) && Queue.is_empty st.pending && ns.live_attempts = 0
  then ns.probing.(i) <- false
  else begin
    let now_us = Event_loop.now st.loop in
    let n = Array.length st.replicas in
    Stats.incr st.stats Stats.net_probes;
    link_trace st ~name:"net_probe" i;
    let retry () =
      Event_loop.schedule_after st.loop ~delay:ns.n_plan.Net.np_timeout_us (fun () ->
          net_probe st ns i ~force:false)
    in
    let snt = Net.send ns.nt ~now_us ~replica:i ~n in
    match snt.Net.sn_delays with
    | [] -> retry ()
    | d :: _ ->
      Event_loop.schedule_after st.loop ~delay:d (fun () ->
          match Net.recv ns.nt ~now_us:(Event_loop.now st.loop) ~replica:i ~n with
          | Net.Recv_deliver d' ->
            Event_loop.schedule_after st.loop ~delay:d' (fun () -> net_heal st ns i)
          | _ -> retry ())
  end

(* A probe round-trip survived: the link is usable again. Parked work
   re-admits through [drain_pending] — the same path replica probes use —
   so nothing requeued is duplicated. *)
and net_heal st ns i =
  if ns.unreachable.(i) then begin
    ns.unreachable.(i) <- false;
    ns.consec_timeouts.(i) <- 0;
    ns.probing.(i) <- false;
    Stats.incr st.stats Stats.net_heals;
    link_trace st ~name:"net_heal" i;
    drain_pending st
  end

(* Drain the parked queue once a dispatch target (re)appeared. Taking a
   snapshot first keeps this loop-free: a re-parked request goes back to
   [pending] without being retried in the same pass. *)
and drain_pending st =
  let rec go k =
    if k > 0 then
      match Queue.take_opt st.pending with
      | None -> ()
      | Some r ->
        let ent = entry st r.Admission.rq_id in
        if ent.ent_copies.Hedge.resolved then copy_cancelled st ent else dispatch st r;
        go (k - 1)
  in
  go (Queue.length st.pending)

(* --- Hedging --- *)

let maybe_hedge st (ent : 'a entry) =
  let c = ent.ent_copies in
  if (not c.Hedge.resolved) && Option.is_none c.Hedge.hedge then begin
    let now_us = Event_loop.now st.loop in
    match pick_up st ~exclude:ent.ent_home ~now_us with
    | None -> () (* nowhere to hedge to; the primary copy stands alone *)
    | Some i ->
      Hedge.add_hedge c i;
      Stats.incr st.stats Stats.hedges;
      if Trace.enabled st.tracer then
        Trace.instant st.tracer ~name:"hedge" ~cat:"cluster" ~pid:0
          ~tid:(Server.req_tid ent.ent_req.Admission.rq_id)
          ~ts_us:now_us
          ~args:
            [ "id", Json.Int ent.ent_req.Admission.rq_id; "replica", Json.Int i ];
      (match st.net with
      | None -> (
        match Replica.enqueue st.replicas.(i) ent.ent_req with
        | Replica.Admitted -> ()
        (* The hedge target shed it; the primary copy is still live, so
           this never terminates the request. *)
        | Replica.Shed_queue -> copy_lost st ent ~terminal:Stats.Outcome.shed
        | Replica.Shed_limit -> copy_lost st ent ~terminal:Stats.Outcome.shed_limit)
      | Some ns ->
        (* Hedge copies ride the link untracked: the primary's timeout is
           their recovery path, and the receiver's idempotency window
           filters if both eventually land on one replica. *)
        net_transmit st ns ent ent.ent_req i ~resend:false)
  end

(* --- Replica callbacks: every copy-level event funnels through here --- *)

let on_live st (r : 'a Admission.request) =
  not (entry st r.Admission.rq_id).ent_copies.Hedge.resolved

let on_completed st ~replica (batch : 'a Admission.request list) ~size ~start_us ~done_us =
  List.iter
    (fun (r : 'a Admission.request) ->
      let ent = entry st r.Admission.rq_id in
      if Hedge.complete ent.ent_copies then
        resolved_by st ent ~replica ~start_us ~done_us ~batch_size:size
      else
        (* The other copy already won; this execution was duplicated work. *)
        Stats.incr st.stats Stats.hedge_wasted)
    batch

(* Net-mode completion: the replica finished a batch. Each result is
   remembered in the idempotency window (so duplicate deliveries re-ack it)
   and put on the return link; the request resolves only when its ack
   lands at the dispatcher — see [deliver_ack]. *)
let net_on_completed st ns ~replica (batch : 'a Admission.request list) ~size ~start_us
    ~done_us =
  let ep = Replica.epoch st.replicas.(replica) in
  List.iter
    (fun (r : 'a Admission.request) ->
      let ent = entry st r.Admission.rq_id in
      if ns.n_plan.Net.np_dedup then
        Net.Dedup.note ns.dedups.(replica)
          (r.Admission.rq_id, ep)
          (Dd_done { di_size = size; di_start_us = start_us; di_done_us = done_us });
      if ent.ent_copies.Hedge.resolved && Option.is_some ent.ent_copies.Hedge.hedge then
        Stats.incr st.stats Stats.hedge_wasted;
      send_ack st ns ~replica ent ~di_size:size ~di_start_us:start_us
        ~di_done_us:done_us)
    batch

let on_lost st ~replica:_ terminal (rs : 'a Admission.request list) =
  List.iter
    (fun (r : 'a Admission.request) -> copy_lost st (entry st r.Admission.rq_id) ~terminal)
    rs

(* A failed-over or quarantined replica hands its queued and in-flight
   copies back: budgeted re-dispatch, parked when nowhere is healthy. *)
let requeue st ~replica (rs : 'a Admission.request list) =
  List.iter
    (fun (r : 'a Admission.request) ->
      let ent = entry st r.Admission.rq_id in
      if ent.ent_copies.Hedge.resolved then copy_cancelled st ent
      else requeue_entry st ent ~from:replica ~lose:copy_lost)
    rs

(* Only a failover counts here; a quarantine is counted by the replica's
   integrity scoreboard. *)
let on_down st ~replica rs =
  Stats.incr st.stats Stats.failovers;
  requeue st ~replica rs

let on_up st ~replica:_ =
  Stats.incr st.stats Stats.readmitted;
  drain_pending st

(* --- Arrivals --- *)

let on_arrival st (ent : 'a entry) =
  let r = ent.ent_req in
  (* Fresh admission credits the dispatcher-side resend budget, mirroring
     the replica-side deposit discipline (once per logical request). *)
  (match st.net with
  | Some { n_budget = Some b; _ } -> Budget.deposit b
  | _ -> ());
  if Trace.enabled st.tracer then
    Trace.instant st.tracer ~name:"admit" ~cat:"request" ~pid:0
      ~tid:(Server.req_tid r.Admission.rq_id)
      ~ts_us:(Event_loop.now st.loop)
      ~args:[ "id", Json.Int r.Admission.rq_id ];
  (* Arm the hedge timer from the delay estimate at arrival time; when the
     request resolves first, the timer no-ops. *)
  (match
     Hedge.due st.window ~percentile:st.cfg.c_hedge_percentile
       ~arrival_us:r.Admission.rq_arrival_us
   with
  | Some at -> Event_loop.schedule st.loop ~at (fun () -> maybe_hedge st ent)
  | None -> ());
  dispatch st r

(** Final per-replica view of a cluster run. *)
type replica_view = {
  rv_id : int;
  rv_stats : Stats.t;  (** Everything this replica executed, hedges included. *)
  rv_health : Replica.health;  (** Health when the simulation drained. *)
}

type report = {
  cluster_stats : Stats.t;
      (** Aggregate: terminal per-request outcomes, merged profilers, and
          the cluster counters. *)
  replica_views : replica_view list;
}

(* Counters a replica charges to its own stats (recovery, brownout and
   integrity actions run where the batch ran); the aggregate is their sum,
   like batches. Every other counter is cluster-owned. *)
let replica_owned =
  Stats.
    [
      fault_batches; retries; bisections; breaker_opens; degraded_batches;
      retried_requests; brownouts; brownout_restores; corrupted_batches;
      corrupted_delivered; audits; audit_mismatches; quarantines; quarantine_restores;
    ]

(** Run the cluster simulation to completion. [executors.(i)] runs a batch
    on replica [i]'s device (wrap with a per-replica fault injector to make
    one replica flaky); its length must equal [cfg.c_replicas].
    [snapshot_every_us] turns on periodic snapshots of the aggregate
    counters, as in {!Server.simulate}. *)
let simulate ?(tracer = Trace.null) ?snapshot_every_us ?auditor (cfg : config)
    ~(arrivals : float array) ~(payload : int -> 'a)
    ~(executors : (degraded:bool -> 'a list -> Server.exec_result) array) : report =
  if Array.length executors <> cfg.c_replicas then
    Fmt.invalid_arg "Cluster.simulate: %d executors for %d replicas"
      (Array.length executors) cfg.c_replicas;
  if cfg.c_replicas <= 0 then
    Fmt.invalid_arg "Cluster.simulate: replicas must be positive";
  let loop = Event_loop.create (Clock.create ()) in
  let net_armed =
    match cfg.c_net with Some plan -> Net.enabled plan | None -> false
  in
  if Trace.enabled tracer then begin
    Trace.name_process tracer ~pid:0 ~name:"dispatcher";
    for i = 0 to cfg.c_replicas - 1 do
      Trace.name_process tracer ~pid:(i + 1) ~name:(Fmt.str "replica %d" i)
    done;
    if net_armed then
      for i = 0 to cfg.c_replicas - 1 do
        Trace.name_process tracer
          ~pid:(Net.link_pid ~n:cfg.c_replicas ~replica:i)
          ~name:(Fmt.str "link %d" i)
      done
  end;
  let net =
    match cfg.c_net with
    | Some plan when Net.enabled plan ->
      Some
        {
          nt = Net.create plan;
          n_plan = plan;
          dedups =
            Array.init cfg.c_replicas (fun _ ->
                Net.Dedup.create ~capacity:plan.Net.np_window);
          live_attempts = 0;
          unreachable = Array.make cfg.c_replicas false;
          consec_timeouts = Array.make cfg.c_replicas 0;
          probing = Array.make cfg.c_replicas false;
          n_budget =
            Option.map
              (fun frac -> Budget.create ~frac)
              cfg.c_server.Server.resilience.Resilience.rs_retry_budget;
        }
    | _ -> None
  in
  let st =
    {
      cfg;
      loop;
      replicas = [||];
      stats = Stats.create ();
      entries = [||];
      pending = Queue.create ();
      rr_next = 0;
      window = Hedge.window ();
      tracer;
      net;
    }
  in
  let cb =
    {
      Replica.cb_live = on_live st;
      cb_completed = (fun ~replica batch ~size ~start_us ~done_us ->
        match st.net with
        | None -> on_completed st ~replica batch ~size ~start_us ~done_us
        | Some ns -> net_on_completed st ns ~replica batch ~size ~start_us ~done_us);
      cb_cancelled = (fun ~replica:_ r -> copy_cancelled st (entry st r.Admission.rq_id));
      cb_lost = on_lost st;
      cb_down = on_down st;
      cb_quarantined = requeue st;
      cb_probe_ready = (fun ~replica:_ -> drain_pending st);
      cb_up = on_up st;
    }
  in
  st.replicas <-
    Array.init cfg.c_replicas (fun i ->
        Replica.create ~tracer ?auditor ~id:i ~loop ~config:cfg.c_server
          ~reset_threshold:cfg.c_reset_threshold ~execute:executors.(i) ~cb ());
  st.entries <-
    Array.mapi
      (fun i at ->
        {
          ent_req =
            {
              Admission.rq_id = i;
              rq_payload = payload i;
              rq_arrival_us = at;
              rq_deadline_us = Option.map (fun d -> at +. d) cfg.c_server.Server.deadline_us;
            };
          ent_copies = Hedge.single ();
          ent_home = -1;
          ent_requeues = 0;
          ent_deposited = false;
          ent_at_replica = -1;
          ent_at_no = 0;
        })
      arrivals;
  Event_loop.feed loop arrivals (fun i -> on_arrival st st.entries.(i));
  Stats.snapshot_periodically ?every_us:snapshot_every_us st.stats loop;
  Event_loop.run loop;
  (* Anything still parked when the event loop drained could not be placed
     before the end of the run; account it as dropped so the per-request
     conservation law (completed + dropped = offered) holds. *)
  Queue.iter
    (fun (r : 'a Admission.request) ->
      let ent = entry st r.Admission.rq_id in
      if ent.ent_copies.Hedge.resolved then copy_cancelled st ent
      else if st.net <> None then primary_lost st ent ~terminal:Stats.Outcome.budget_exhausted
      else copy_lost st ent ~terminal:Stats.Outcome.budget_exhausted)
    st.pending;
  Queue.clear st.pending;
  let end_us = Event_loop.now loop in
  (* Aggregate device-side activity: every batch any replica executed,
     every profiler sample, every [replica_owned] counter. Terminal
     per-request counters (shed/expired/poisoned/budget) are cluster-owned
     and already in [st.stats]; per-replica admission counters would
     double-count hedged and requeued copies. *)
  let views =
    Array.to_list
      (Array.map
         (fun rep ->
           let rs = Replica.stats rep in
           Stats.set rs Stats.shed (Admission.shed_count (Replica.admission rep));
           Stats.set rs Stats.expired (Admission.expired_count (Replica.admission rep));
           rs.Stats.end_us <- end_us;
           st.stats.Stats.batches <- st.stats.Stats.batches + rs.Stats.batches;
           st.stats.Stats.batched_requests <-
             st.stats.Stats.batched_requests + rs.Stats.batched_requests;
           Stats.Profiler.merge ~into:st.stats.Stats.profiler rs.Stats.profiler;
           List.iter (fun c -> Stats.add st.stats c (Stats.count rs c)) replica_owned;
           { rv_id = Replica.id rep; rv_stats = rs; rv_health = Replica.health rep })
         st.replicas)
  in
  Stats.finish st.stats loop;
  Stats.assert_conserved st.stats ~arrivals:(Array.length arrivals);
  { cluster_stats = st.stats; replica_views = views }
