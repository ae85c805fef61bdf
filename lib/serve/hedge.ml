(** Hedged requests, decided in one place for every dispatcher.

    A hedge is a duplicate of a still-unresolved request, issued once a
    percentile of recent winning latency has passed since its arrival.
    {!Cluster} sends it to another replica; the multi-tenant dispatcher
    puts it back in the tenant's queue. Both keep the same two pieces of
    state, defined here:

    - a {!window} of recent winning latencies, which yields the hedge
      delay once it has seen {!min_obs} of them;
    - one {!copies} ledger per request, which counts its live copies and
      settles its outcome. The one resolution rule: the first completion
      resolves the request, and a copy that leaves without completing
      resolves it only when it was the last live copy of an unresolved
      request. Everything else a copy does (a later completion, a later
      loss) is waste or cancellation on an already-resolved request.

    Which copy is the hedge is the caller's business: the ledger stores
    whatever name ['h] the caller gives it (the cluster uses the hedge's
    replica id, the tenancy dispatcher the duplicate request record) and
    only hands it back for win attribution. *)

let window_size = 64

(* Too few observations => no hedging yet: an early wild guess would
   either never fire or duplicate everything. *)
let min_obs = 8

type window = {
  ring : float array;  (** Recent winning latencies (us), circular. *)
  mutable count : int;
  mutable next : int;
}

let window () = { ring = Array.make window_size 0.0; count = 0; next = 0 }

(** Record one winning end-to-end latency. *)
let observe w lat_us =
  w.ring.(w.next) <- lat_us;
  w.next <- (w.next + 1) mod window_size;
  if w.count < window_size then w.count <- w.count + 1

(** The hedge delay: the [percentile] of the observed latencies, or [None]
    during warm-up (fewer than {!min_obs} observations). *)
let delay w ~percentile =
  if w.count < min_obs then None
  else Some (Stats.percentile (Array.sub w.ring 0 w.count) percentile)

(** Reject a hedge [percentile] that is not finite or lies outside
    [0, 100], naming [who] and the value. *)
let check_percentile ~who = function
  | Some p when not (Float.is_finite p && p >= 0.0 && p <= 100.0) ->
    Fmt.invalid_arg "%s: hedge percentile must be finite and in [0, 100] (got %g)" who p
  | Some _ | None -> ()

(** When to hedge a request arriving now, at [arrival_us]: [None] with
    hedging off ([percentile] unset) or the window still warming up. *)
let due w ~percentile ~arrival_us =
  match percentile with
  | None -> None
  | Some percentile -> Option.map (fun d -> arrival_us +. d) (delay w ~percentile)

(** One request's copies. *)
type 'h copies = {
  mutable live : int;  (** Copies queued or in flight somewhere. *)
  mutable resolved : bool;  (** The request reached its terminal outcome. *)
  mutable hedge : 'h option;  (** The caller's name for the hedge copy. *)
}

(** A fresh request: one live copy, unresolved, not hedged. *)
let single () = { live = 1; resolved = false; hedge = None }

(** Issue the hedge copy, named [h]. *)
let add_hedge c h =
  c.hedge <- Some h;
  c.live <- c.live + 1

(** A copy completed. True on the first completion, which resolves the
    request; false for a copy that lost the race (wasted work). *)
let complete c =
  c.live <- c.live - 1;
  if c.resolved then false
  else begin
    c.resolved <- true;
    true
  end

(** What a copy's loss means for its request. *)
type loss =
  | Terminal  (** It was the last live copy: the request ends here. *)
  | Live  (** Another copy is still live; the request goes on. *)
  | Resolved  (** The request had already resolved; the copy was a leftover. *)

(** A copy left without completing: expired, shed, poisoned, dropped. *)
let lose c =
  c.live <- c.live - 1;
  if c.resolved then Resolved
  else if c.live > 0 then Live
  else begin
    c.resolved <- true;
    Terminal
  end
