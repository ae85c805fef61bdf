(** Reference event agenda: the original [Map]-based queue on (time, seq),
    the executable specification the heap in [lib/serve/agenda.ml] is
    tested and raced against. Same interface; every operation is a [Map]
    lookup or rebuild. *)

module Key = struct
  type t = float * int  (* fire time (us), scheduling sequence *)

  let compare (ta, sa) (tb, sb) =
    match Float.compare ta tb with 0 -> Int.compare sa sb | c -> c
end

module Q = Map.Make (Key)

type t = { mutable q : (unit -> unit) Q.t }

let create () = { q = Q.empty }
let length t = Q.cardinal t.q
let top_at t = fst (fst (Q.min_binding t.q))
let top_seq t = snd (fst (Q.min_binding t.q))
let push t ~at ~seq f = t.q <- Q.add (at, seq) f t.q

let pop t =
  let key, f = Q.min_binding t.q in
  t.q <- Q.remove key t.q;
  f
