(** Adaptive concurrency limiter: AIMD on observed queue delay.

    The limiter gates admission {e ahead} of the bounded queue: a request
    is admitted only while the queue holds fewer than [limit] requests.
    The limit adapts to the delay the queue actually produces — every
    batch launch reports the age of its oldest request, and the limit
    climbs additively while delay stays under the target and backs off
    multiplicatively when it overshoots. Under sustained overload the
    queue is therefore kept short enough that admitted requests still
    have a chance of meeting their deadlines, and the excess is shed at
    the door where it is cheap (DESIGN.md §13).

    Deterministic: pure arithmetic on virtual-clock observations. *)

type t = {
  target_us : float;  (** Queue-delay setpoint. *)
  mutable limit : float;  (** Within [min_limit, max_limit]. *)
  mutable decreases : int;  (** Multiplicative backoffs taken (telemetry). *)
}

let initial_limit = 8.0
let min_limit = 1.0
let max_limit = 1024.0
let additive_step = 1.0
let backoff_factor = 0.7

let create ~target_us = { target_us; limit = initial_limit; decreases = 0 }

let limit t = t.limit
let target_us t = t.target_us
let decreases t = t.decreases

(** Would a request be admitted with [queued] requests already waiting? *)
let admits t ~queued = float_of_int queued < t.limit

(** Feed one queue-delay observation (age of the oldest request at batch
    launch) into the AIMD loop. *)
let observe t ~delay_us =
  if delay_us > t.target_us then begin
    t.limit <- Float.max min_limit (t.limit *. backoff_factor);
    t.decreases <- t.decreases + 1
  end
  else t.limit <- Float.min max_limit (t.limit +. additive_step)
