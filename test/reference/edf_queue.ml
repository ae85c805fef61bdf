(** Reference EDF queue: the original sorted list on (deadline, seq), the
    executable specification the pairing heaps in [lib/serve/edf_queue.ml]
    are tested and raced against. Same interface; inserts, [length] and
    [oldest_arrival] walk the list. *)

type 'e entry = { seq : int; deadline : float; arrival : float; elt : 'e }
type 'e t = { mutable q : 'e entry list; mutable next_seq : int }

let create () = { q = []; next_seq = 0 }
let length t = List.length t.q

let before a b =
  if a.deadline < b.deadline then true
  else if a.deadline > b.deadline then false
  else a.seq < b.seq

let insert t ~deadline ~arrival x =
  let e = { seq = t.next_seq; deadline; arrival; elt = x } in
  t.next_seq <- t.next_seq + 1;
  let rec go = function
    | [] -> [ e ]
    | y :: rest -> if before e y then e :: y :: rest else y :: go rest
  in
  t.q <- go t.q

let peek t = match t.q with [] -> None | e :: _ -> Some e.elt

let pop t =
  match t.q with
  | [] -> None
  | e :: rest ->
    t.q <- rest;
    Some e.elt

let oldest_arrival t =
  match t.q with
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc x -> Float.min acc x.arrival) e.arrival rest)
