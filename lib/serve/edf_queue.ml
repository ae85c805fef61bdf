(** The earliest-deadline-first container behind {!Admission}: elements in
    (deadline, insertion) order, plus the earliest arrival on demand.

    A pairing heap on (deadline, seq) answers pops, and a second pairing
    heap on (arrival, seq) — sharing the entries, with lazy deletion —
    caches the minimum arrival; a counter answers [length]. Inserts are
    O(1), pops amortized O(log n), and the batcher's per-tick probes O(1)
    (amortized, for the arrival cache). Admission owns everything around
    the container — capacity, sweeps, expiry — so a different queue with
    this interface (the reference build's sorted list, under
    [test/reference/]) pops in the same order: (deadline, seq) is a strict
    total order. *)

(* [live] is the lazy-deletion mark: entries leave the EDF heap eagerly
   but linger in the arrival heap until they surface at its top. *)
type 'e entry = { seq : int; deadline : float; arrival : float; elt : 'e; mutable live : bool }

(* Pairing heap: O(1) meld/insert, amortized O(log n) delete-min. *)
type 'e heap = E | N of 'e entry * 'e heap list

type 'e t = {
  mutable edf : 'e heap;  (** Live entries, (deadline, seq) order. *)
  mutable arr : 'e heap;  (** Live + stale entries, (arrival, seq) order. *)
  mutable len : int;  (** Live entry count. *)
  mutable next_seq : int;
}

let create () = { edf = E; arr = E; len = 0; next_seq = 0 }
let length t = t.len

(* (deadline, seq) strict ordering: [a] pops before [b]. *)
let before a b =
  if a.deadline < b.deadline then true
  else if a.deadline > b.deadline then false
  else a.seq < b.seq

(* (arrival, seq) strict ordering for the min-arrival cache. *)
let arrives_before a b =
  if a.arrival < b.arrival then true
  else if a.arrival > b.arrival then false
  else a.seq < b.seq

let meld lt a b =
  match a, b with
  | E, h | h, E -> h
  | N (ea, ca), N (eb, cb) -> if lt ea eb then N (ea, b :: ca) else N (eb, a :: cb)

(* Two-pass pairing melding of a popped root's children. *)
let rec meld_children lt = function
  | [] -> E
  | [ h ] -> h
  | a :: b :: rest -> meld lt (meld lt a b) (meld_children lt rest)

(** Queue [x]; [deadline] is [infinity] for a best-effort element. *)
let insert t ~deadline ~arrival x =
  let e = { seq = t.next_seq; deadline; arrival; elt = x; live = true } in
  t.next_seq <- t.next_seq + 1;
  t.edf <- meld before t.edf (N (e, []));
  t.arr <- meld arrives_before t.arr (N (e, []));
  t.len <- t.len + 1

(** The most urgent element, if any. *)
let peek t = match t.edf with E -> None | N (e, _) -> Some e.elt

(** Remove and return the most urgent element, marking it dead for the
    arrival cache. *)
let pop t =
  match t.edf with
  | E -> None
  | N (e, children) ->
    t.edf <- meld_children before children;
    t.len <- t.len - 1;
    e.live <- false;
    Some e.elt

(** Earliest arrival among the queued elements, if any. Stale tops left by
    lazy deletion are discarded on the way (amortized O(log n)). *)
let rec oldest_arrival t =
  match t.arr with
  | E -> None
  | N (e, children) ->
    if e.live then Some e.arrival
    else begin
      t.arr <- meld_children arrives_before children;
      oldest_arrival t
    end
