(** The event agenda behind {!Event_loop}: pending thunks in (time, seq)
    order, as an array-backed binary min-heap. Push and pop are O(log n)
    with no per-event allocation, and a million-entry agenda is three flat
    arrays. The loop owns everything around the container — clamping,
    sequence numbers, the fed arrival stream — so a different agenda with
    this interface (the reference build's [Map] queue, under
    [test/reference/]) yields the same dispatch order. *)

type t = {
  (* Parallel arrays so a push allocates nothing and comparisons read
     unboxed floats. Slots at and past [len] hold [ignore]. *)
  mutable at : float array;
  mutable seq : int array;
  mutable run : (unit -> unit) array;
  mutable len : int;
}

let create () =
  { at = Array.make 64 0.0; seq = Array.make 64 0; run = Array.make 64 ignore; len = 0 }

let length t = t.len

(** Fire time and sequence number of the next event; the agenda must be
    non-empty. *)
let top_at t = t.at.(0)

let top_seq t = t.seq.(0)

let[@inline] before (at : float) (seq : int) at' seq' = at < at' || (at = at' && seq < seq')

let grow t =
  let n = t.len in
  let grow a fill =
    let bigger = Array.make (2 * n) fill in
    Array.blit a 0 bigger 0 n;
    bigger
  in
  t.at <- grow t.at 0.0;
  t.seq <- grow t.seq 0;
  t.run <- grow t.run ignore

let push t ~at ~seq f =
  let n = t.len in
  if n = Array.length t.at then grow t;
  let ha = t.at and hs = t.seq and hr = t.run in
  (* Sift up. *)
  let i = ref n in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before at seq ha.(p) hs.(p)
    && begin
      ha.(!i) <- ha.(p);
      hs.(!i) <- hs.(p);
      hr.(!i) <- hr.(p);
      i := p;
      true
    end
  do
    ()
  done;
  ha.(!i) <- at;
  hs.(!i) <- seq;
  hr.(!i) <- f;
  t.len <- n + 1

(** Remove the next event and return its thunk; the agenda must be
    non-empty. *)
let pop t =
  let top = t.run.(0) in
  let n = t.len - 1 in
  t.len <- n;
  let ha = t.at and hs = t.seq and hr = t.run in
  let at = ha.(n) and seq = hs.(n) and f = hr.(n) in
  hr.(n) <- ignore;
  if n > 0 then begin
    (* Sift the last slot down from the root. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c = if r < n && before ha.(r) hs.(r) ha.(l) hs.(l) then r else l in
        if before ha.(c) hs.(c) at seq then begin
          ha.(!i) <- ha.(c);
          hs.(!i) <- hs.(c);
          hr.(!i) <- hr.(c);
          i := c
        end
        else continue := false
      end
    done;
    ha.(!i) <- at;
    hs.(!i) <- seq;
    hr.(!i) <- f
  end;
  top
