(** Weighted fair queueing over virtual work.

    Each tenant [i] accumulates virtual work [v(i) += work / weight(i)] for
    every unit of device time its batches consume; the scheduler always
    serves the eligible tenant with the least virtual work. Over any busy
    interval with uniform per-request cost this makes completed work track
    the weights — the property the QCheck suite asserts.

    The [vfloor] clamp is the standard start-time fix for intermittent
    backlogs: a tenant that went idle while others were served would
    otherwise return with an ancient (tiny) virtual time and starve everyone
    until it caught up. Clamping a newly-served tenant's clock up to the
    floor (the virtual time the scheduler has reached) means idle periods
    are forfeited, not banked.

    Ties break on the lowest tenant index, so identical inputs replay to
    identical schedules. *)

type t = {
  weights : float array;
  v : float array;  (** Accumulated virtual work per tenant. *)
  mutable vfloor : float;  (** Virtual time the scheduler has reached. *)
}

let create ~(weights : float array) : t =
  if Array.length weights = 0 then Fmt.invalid_arg "Fairshare.create: no tenants";
  Array.iteri
    (fun i w -> if w <= 0.0 then Fmt.invalid_arg "Fairshare.create: weight %d <= 0" i)
    weights;
  { weights = Array.copy weights; v = Array.make (Array.length weights) 0.0; vfloor = 0.0 }

let tenants t = Array.length t.weights

(* Effective key: an idle tenant's stale clock counts as the floor. *)
let key t i = Float.max t.v.(i) t.vfloor

(** Eligible tenants ordered by effective virtual work, least first, ties by
    index. The dispatcher walks this order offering the device to each
    tenant until one can launch. *)
let ranked t ~(eligible : int -> bool) : int list =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if eligible i then (key t i, i) :: acc else acc)
  in
  let xs = collect (Array.length t.weights - 1) [] in
  List.stable_sort (fun (ka, ia) (kb, ib) ->
      match Float.compare ka kb with 0 -> Int.compare ia ib | c -> c)
    xs
  |> List.map snd

(** Note that tenant [i] was just handed the device: clamp its clock up to
    the floor (forfeiting banked idle time) and advance the floor to it. *)
let serve t i =
  t.v.(i) <- key t i;
  t.vfloor <- t.v.(i)

(** Charge tenant [i] for [work] units of device time. *)
let charge t i ~work =
  if work > 0.0 then t.v.(i) <- t.v.(i) +. (work /. t.weights.(i))
