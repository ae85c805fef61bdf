(** A deterministic discrete-event loop over the virtual {!Clock}.

    Events are thunks keyed by (time, sequence number): ties at the same
    virtual instant dispatch in scheduling order, so a burst of simultaneous
    arrivals enqueues before the wake-up that one of them scheduled — the
    property the batcher's cross-request invariants rely on. Handlers may
    schedule further events (at or after the current time); the loop runs
    until the queue drains.

    A simulation's arrivals are known before it starts, so they need not
    live in the queue: {!feed} hands the loop the whole arrival array as
    one sorted stream, and {!run} merges its head with the queue's top by
    (time, seq). The dispatch order is exactly the one scheduling every
    arrival upfront would give, but the queue only ever holds the live
    events handlers scheduled.

    The queue is an {!Agenda}, a binary min-heap on (time, seq); the
    loop owns clamping, sequence numbers, the fed stream, daemons and the
    debug checks around it. *)

type t = {
  clock : Clock.t;
  agenda : Agenda.t;  (** Events scheduled by handlers. *)
  (* The fed arrival stream ({!feed}): clamped fire times in dispatch
     order, the original index of each, the sequence number of index 0,
     and the next position to dispatch. It stays outside the agenda, so
     the agenda holds only events scheduled by handlers. *)
  mutable s_at : float array;
  mutable s_idx : int array;
  mutable s_base : int;
  mutable s_pos : int;
  mutable s_run : int -> unit;
  mutable next_seq : int;
  mutable dispatched : int;
  mutable clamped : int;
  mutable daemons : int;  (* Pending events scheduled by {!schedule_daemon}. *)
}

let create clock =
  {
    clock;
    agenda = Agenda.create ();
    s_at = [||];
    s_idx = [||];
    s_base = 0;
    s_pos = 0;
    s_run = ignore;
    next_seq = 0;
    dispatched = 0;
    clamped = 0;
    daemons = 0;
  }

(* Debug-only dispatch-order checking. The loop's correctness rests on
   events popping at non-decreasing fire times (the (time, seq) order);
   code that advances the clock behind the loop's back — or a future
   refactor that breaks the key ordering — would silently reorder
   causality. With the flag on, [run] raises the moment a popped event's
   fire time is behind the clock instead of letting [Clock.advance_to]
   swallow the regression. Global rather than per-loop so harnesses (the
   chaos campaign, tests) can arm it around whole simulations without
   threading a knob through every [create]. *)
let debug_checks = ref false

(** Enable/disable the monotonic-dispatch assertion in {!run}. *)
let set_debug_checks enabled = debug_checks := enabled

let debug_checks_enabled () = !debug_checks

let clock t = t.clock
let now t = Clock.now t.clock

let stream_left t = Array.length t.s_at - t.s_pos

(** Events not yet dispatched: the agenda plus the unfed rest of the
    arrival stream. *)
let pending t = stream_left t + Agenda.length t.agenda

(** Pending events other than daemons ({!schedule_daemon}): the work
    that keeps a simulation going. *)
let pending_work t = pending t - t.daemons

let dispatched t = t.dispatched

(** Number of schedules whose requested time was in the past. A correct
    simulation never asks for the past, so anything nonzero is a latent
    scheduling bug that clamping would otherwise hide. *)
let clamped_count t = t.clamped

(* The (time, seq) order, as in {!Agenda}: a local copy, since a call into
   another module boxes its float arguments. *)
let[@inline] before (at : float) (seq : int) at' seq' = at < at' || (at = at' && seq < seq')

(** Schedule [f] to run at virtual time [at] (clamped to the present: the
    past is immutable — but see {!clamped_count}; silently rewriting the
    request can mask bugs, so every clamp is counted). Non-finite times are
    rejected: a NaN key would silently corrupt the (time, seq) ordering
    (NaN compares unordered against everything), and an infinite one would
    park the event beyond any reachable instant. *)
let schedule t ~at f =
  if not (Float.is_finite at) then
    Fmt.invalid_arg "Event_loop.schedule: non-finite time %f" at;
  if at < now t then t.clamped <- t.clamped + 1;
  let at = Float.max at (now t) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Agenda.push t.agenda ~at ~seq f

(** Feed an arrival stream: event [i] runs [f i] at virtual time
    [times.(i)]. Exactly equivalent to [schedule t ~at:times.(i)
    (fun () -> f i)] for every [i] in index order — the stream reserves
    the next [Array.length times] sequence numbers, clamps (and counts)
    past times and rejects non-finite ones the same way — but the events
    stay in one sorted array beside the queue instead of in it, so the
    queue holds only live handler-scheduled events and a million-request
    run pays no per-arrival push or pop. [times] need not be sorted: a
    stable sort of the indices by time is the (time, seq) order, since
    seq follows the index. One stream at a time: feeding while an
    earlier stream still has undispatched events is an error. *)
let feed t (times : float array) (f : int -> unit) =
  if stream_left t > 0 then invalid_arg "Event_loop.feed: a fed stream is still pending";
  Array.iter
    (fun at ->
      if not (Float.is_finite at) then
        Fmt.invalid_arg "Event_loop.feed: non-finite time %f" at)
    times;
  let now = now t in
  let n = Array.length times in
  let at =
    Array.map
      (fun at ->
        if at < now then t.clamped <- t.clamped + 1;
        Float.max at now)
      times
  in
  let idx = Array.init n Fun.id in
  let rec sorted i = i >= n || (at.(i - 1) <= at.(i) && sorted (i + 1)) in
  if sorted 1 then t.s_at <- at
  else begin
    Array.stable_sort (fun a b -> Float.compare at.(a) at.(b)) idx;
    t.s_at <- Array.map (fun i -> at.(i)) idx
  end;
  t.s_idx <- idx;
  t.s_base <- t.next_seq;
  t.s_pos <- 0;
  t.s_run <- f;
  t.next_seq <- t.next_seq + n

(** Schedule [f] to run [delay] microseconds from now. A negative delay is
    a request for the past, exactly like a past [~at]: it is clamped to
    zero {e and counted} under {!clamped_count}, so the zero-clamp chaos
    invariant covers this path too. *)
let schedule_after t ~delay f =
  if not (Float.is_finite delay) then
    Fmt.invalid_arg "Event_loop.schedule_after: non-finite delay %f" delay;
  if delay < 0.0 then t.clamped <- t.clamped + 1;
  schedule t ~at:(now t +. Float.max 0.0 delay) f

(** {!schedule_after} for the next step of a periodic observer (metrics
    snapshots, the autoscaler tick) that continues only while
    {!pending_work} is nonzero. The event does not count as work, so two
    such chains cannot keep each other — and the loop — alive forever. *)
let schedule_daemon t ~delay f =
  t.daemons <- t.daemons + 1;
  schedule_after t ~delay (fun () ->
      t.daemons <- t.daemons - 1;
      f ())

(* Does the stream head dispatch before everything queued? Assumes a
   non-empty stream. *)
let stream_first t =
  let q = t.agenda in
  Agenda.length q = 0
  || before t.s_at.(t.s_pos) (t.s_base + t.s_idx.(t.s_pos)) (Agenda.top_at q) (Agenda.top_seq q)

(* Move the clock to a dispatching event's fire time. *)
let advance t at =
  if !debug_checks && at < now t then
    Fmt.invalid_arg
      "Event_loop.run: dispatch order regression (event due at %.3fus, clock already \
       at %.3fus)"
      at (now t);
  Clock.advance_to t.clock at;
  t.dispatched <- t.dispatched + 1

(** Dispatch events in (time, seq) order — the fed stream merged with the
    queue — until none remain. *)
let rec run t =
  if stream_left t > 0 && stream_first t then begin
    let k = t.s_pos in
    t.s_pos <- k + 1;
    let at = t.s_at.(k) and i = t.s_idx.(k) and f = t.s_run in
    if t.s_pos = Array.length t.s_at then begin
      (* Exhausted: let go of the arrays and the handler. *)
      t.s_at <- [||];
      t.s_idx <- [||];
      t.s_pos <- 0;
      t.s_run <- ignore
    end;
    advance t at;
    f i;
    run t
  end
  else if Agenda.length t.agenda > 0 then begin
    let at = Agenda.top_at t.agenda in
    let f = Agenda.pop t.agenda in
    advance t at;
    f ();
    run t
  end
