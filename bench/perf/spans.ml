(** Host-time spans recorded from the benchmark's side of each layer
    boundary.

    Spans nest by call structure: a span opened while another is open is its
    child. Closing a span adds its duration to a per-name total and its
    {e self} time (duration minus the time its children cover) to a per-name
    self total, so layer costs can be read without post-processing. Spans of
    one item (a mini-batch or a serving executor call) share an item id; a
    child inherits its parent's unless it names its own.

    Totals are always kept. Individual spans are retained only while
    [recording] is set, and at most {!keep} of them, so a traced run holds
    a bounded Chrome trace in memory until it writes it at exit. *)

(** The host clock every timing in the benchmark reads: this process's CPU
    time, user plus system, in seconds. The benchmark is one thread, so
    this is the time its work ran. Unlike the wall clock it leaves out the
    time the process waited while other processes ran, or while the
    hypervisor ran other machines on its CPU (steal time, which the kernel
    keeps out of task time). How much slower a busy host runs the process
    is {!Speed}'s concern. Resolution 1 us. {!Sys.time}, declared again so
    that a call allocates nothing. *)
external now : unit -> (float[@unboxed]) = "caml_sys_time" "caml_sys_time_unboxed"
[@@noalloc]

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  item : int;
  t0 : float;
  t1 : float;
  self : float;
}

type frame = { f_id : int; f_name : string; f_item : int; f_t0 : float; mutable f_child : float }

type total = { mutable calls : int; mutable dur : float; mutable self_s : float }

type t = {
  mutable stack : frame list;
  mutable next_id : int;
  totals : (string, total) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable recording : bool;
  mutable kept : span list;  (** Reverse close order. *)
  mutable n_kept : int;
  origin : float;  (** Creation time: trace timestamps count from here. *)
}

let keep = 40_000

let create () =
  {
    stack = [];
    next_id = 0;
    totals = Hashtbl.create 32;
    counts = Hashtbl.create 32;
    recording = false;
    kept = [];
    n_kept = 0;
    origin = now ();
  }

let set_recording t on = t.recording <- on

let enter t ?item name =
  let item =
    match item, t.stack with
    | Some i, _ -> i
    | None, f :: _ -> f.f_item
    | None, [] -> -1
  in
  let f = { f_id = t.next_id; f_name = name; f_item = item; f_t0 = now (); f_child = 0.0 } in
  t.next_id <- t.next_id + 1;
  t.stack <- f :: t.stack

let leave t =
  match t.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | f :: rest ->
    let t1 = now () in
    let dur = t1 -. f.f_t0 in
    let self = dur -. f.f_child in
    t.stack <- rest;
    (match rest with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ());
    let tot =
      match Hashtbl.find_opt t.totals f.f_name with
      | Some tot -> tot
      | None ->
        let tot = { calls = 0; dur = 0.0; self_s = 0.0 } in
        Hashtbl.replace t.totals f.f_name tot;
        tot
    in
    tot.calls <- tot.calls + 1;
    tot.dur <- tot.dur +. dur;
    tot.self_s <- tot.self_s +. self;
    if t.recording && t.n_kept < keep then begin
      let parent = match rest with p :: _ -> p.f_id | [] -> -1 in
      t.kept <-
        { id = f.f_id; name = f.f_name; parent; item = f.f_item; t0 = f.f_t0; t1; self }
        :: t.kept;
      t.n_kept <- t.n_kept + 1
    end

(** [with_ t name f] runs [f] inside a span named [name]; the span closes
    even when [f] raises (an injected device fault, for instance). *)
let with_ t ?item name f =
  enter t ?item name;
  match f () with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

(** Add [n] to the counter [name], recorded at the same boundaries as the
    spans so ratios are measured where the work happens. *)
let add t name n =
  Hashtbl.replace t.counts name (n + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

let count t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)

let calls t name = match Hashtbl.find_opt t.totals name with Some x -> x.calls | None -> 0
let dur t name = match Hashtbl.find_opt t.totals name with Some x -> x.dur | None -> 0.0
let self t name = match Hashtbl.find_opt t.totals name with Some x -> x.self_s | None -> 0.0

(** Forget totals and counters (retained spans stay): each traced pass
    reads its own. *)
let reset_totals t =
  Hashtbl.reset t.totals;
  Hashtbl.reset t.counts

(** The retained spans as a Chrome trace: one [X] event per span on
    process [pid], timestamps in microseconds of {!now} since {!create},
    with the span id, parent id, item id and self time as arguments. *)
let to_trace t ~pid ~process : Acrobat.Trace.t =
  let module Trace = Acrobat.Trace in
  let module Json = Acrobat.Obs.Json in
  let tr = Trace.create () in
  Trace.name_process tr ~pid ~name:process;
  List.iter
    (fun s ->
      Trace.complete tr ~pid ~tid:0 ~cat:"host" ~name:s.name
        ~ts_us:((s.t0 -. t.origin) *. 1e6)
        ~dur_us:((s.t1 -. s.t0) *. 1e6)
        ~args:
          [
            "span", Json.Int s.id;
            "parent", Json.Int s.parent;
            "item", Json.Int s.item;
            "self_us", Json.Float (s.self *. 1e6);
          ])
    (List.rev t.kept);
  tr
