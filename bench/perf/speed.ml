(** The host's speed during a run, read by a fixed probe.

    A shared host's speed drifts. On a 2-vCPU Xeon VM at 2.1 GHz,
    identical TreeLSTM mini-batches took 100 to 130 ms of CPU time from
    one 15 s run to the next, and StackRNN ones 175 to 270 ms, as
    other tenants came and went on the cores and caches the VM shares with
    them. CPU time already leaves out the time the process was not running;
    what remains is the host running it slower. No statistic inside a run
    removes a slowdown that lasts the whole run, so the benchmark measures
    the host's speed alongside its work and reports host times at a
    reference speed.

    The probe is a fixed piece of work, written here and calling nothing in
    the library: it writes fresh 2 KB float blocks and reads them back,
    walking a 2 MB ring the way allocation walks the minor heap. A register
    loop kept its speed within 11% while the host's speed moved; caches
    did not, and this probe tracks the benchmark's work through them
    better than a smaller ring, a float matrix-vector product, a hash
    table or fresh OCaml arrays did.

    Probes are interleaved through a run, between its timed units, and cut
    it into stretches. The host's speed changes within a second, so each
    stretch is scaled by its own two probes, the one before and the one
    after it ({!scaled}). A change to the library moves the work and not
    the probe, so it moves the scaled time as much as the raw one. In one
    TreeLSTM run, the CPU time of five identical passes ranged over 38%
    raw, 30% with each pass scaled by its median probe, and 1.8% with each
    stretch scaled by its own probes; over the four passes of a fleet run,
    35%, 22% and 11%.

    The probe's buffers, its record included, are bigarrays outside the
    OCaml heap, so it allocates nothing: interleaving it leaves the run's
    allocation, collections and heap size exactly as they were. *)

open Bigarray

(** A probe's CPU time, in ms, on the VM above at a middling speed: its
    median over a run ranged from 0.9 to 1.9 ms. Scaled host times read
    as milliseconds on a host where the probe takes this long. Fixed, so
    that results of different commits compare. *)
let reference_ms = 1.2

type floats = (float, float64_elt, c_layout) Array1.t

let ring = 1 lsl 18
let block = 256
let capacity = 1 lsl 16

type t = {
  buf : floats;
  mutable pos : int;
  starts : floats;  (** When each probe began, in {!Spans.now} seconds; the first [n] slots. *)
  ends : floats;  (** When each ended. *)
  mutable n : int;
  created : float;
  interval : float;
}

let floats n v =
  let a = Array1.create float64 c_layout n in
  Array1.fill a v;
  a

(** A probe for one run. {!tick} runs one when [interval] seconds of CPU
    time have passed since the last. *)
let create ?(interval = 0.05) () =
  {
    buf = floats ring 0.0;
    pos = 0;
    starts = floats capacity 0.0;
    ends = floats capacity 0.0;
    n = 0;
    created = Spans.now ();
    interval;
  }

let work t =
  for _ = 1 to 1600 do
    let a = t.pos in
    let b = a + block in
    for i = 0 to block - 1 do
      Array1.unsafe_set t.buf (a + i) 1.5
    done;
    for i = 0 to block - 1 do
      Array1.unsafe_set t.buf (b + i) ((2.0 *. Array1.unsafe_get t.buf (a + i)) +. 1.0)
    done;
    t.pos <- (b + block) land (ring - 1)
  done

(** Run one probe now and record it. Past {!capacity} probes it records
    nothing. *)
let sample t =
  if t.n < capacity then begin
    let t0 = Spans.now () in
    work t;
    Array1.unsafe_set t.starts t.n t0;
    Array1.unsafe_set t.ends t.n (Spans.now ());
    t.n <- t.n + 1
  end

(** Run a probe if [interval] has passed since the last one. Called
    between timed units, never inside one. *)
let tick t =
  let last = if t.n = 0 then t.created else Array1.unsafe_get t.ends (t.n - 1) in
  if Spans.now () -. last >= t.interval then sample t

let duration t k = t.ends.{k} -. t.starts.{k}

(** Median probe of the run so far, in ms. *)
let ms t = Stat.median (List.init t.n (duration t)) *. 1000.0

(** The host seconds from [from] to [until], {!Spans.now} times, at the
    reference speed. Probes cut the run into stretches; the probes' own
    time counts for nothing, and each stretch's time is multiplied by
    {!reference_ms} over the mean of the probes before and after it (the
    one probe there is, before the first or after the last). Call it once
    the stretches it covers have their closing probe. *)
let scaled t ~from ~until =
  if t.n = 0 then invalid_arg "Speed.scaled: no probe has run";
  let n = t.n in
  (* Stretch [g] runs from the end of probe [g - 1] to the start of probe
     [g]; stretch 0 has no start, stretch [n] no end. *)
  let start g = if g = 0 then neg_infinity else t.ends.{g - 1} in
  let stop g = if g = n then infinity else t.starts.{g} in
  let probe g =
    if g = 0 then duration t 0
    else if g = n then duration t (n - 1)
    else (duration t (g - 1) +. duration t g) /. 2.0
  in
  (* The first stretch that ends after [from]. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if stop mid > from then search lo mid else search (mid + 1) hi
  in
  let rec sum g acc =
    if g > n || start g >= until then acc
    else
      let overlap = Float.min until (stop g) -. Float.max from (start g) in
      let acc =
        if overlap > 0.0 then acc +. (overlap *. reference_ms /. (probe g *. 1000.0)) else acc
      in
      sum (g + 1) acc
  in
  sum (search 0 n) 0.0
