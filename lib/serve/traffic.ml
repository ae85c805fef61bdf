(** Workload generators: request arrival processes over virtual time.

    Two open-loop processes (clients do not wait for responses, matching a
    front-end fed by millions of independent users) plus a closed burst:

    - {b Poisson}: memoryless arrivals at a fixed offered load.
    - {b Bursty}: a two-state Markov-modulated Poisson process — dwell times
      are exponential, each state has its own rate — the classic model for
      diurnal / flash-crowd traffic.
    - {b Burst}: everything at once; the worst case for admission control
      and the best case for cross-request batching.

    All randomness flows through {!Acrobat_tensor.Rng}, so a seed fully
    determines the trace. Rates are requests per second; times are
    simulated microseconds. *)

open Acrobat_tensor

type process =
  | Poisson of { rate_per_s : float }
  | Bursty of {
      rate_low_per_s : float;
      rate_high_per_s : float;
      mean_dwell_us : float;  (** Mean sojourn time in each state. *)
    }
  | Burst of { at_us : float }

let pp_process ppf = function
  | Poisson { rate_per_s } -> Fmt.pf ppf "poisson(%.0f req/s)" rate_per_s
  | Bursty { rate_low_per_s; rate_high_per_s; mean_dwell_us } ->
    Fmt.pf ppf "bursty(%.0f/%.0f req/s, dwell %.0fus)" rate_low_per_s rate_high_per_s
      mean_dwell_us
  | Burst { at_us } -> Fmt.pf ppf "burst(at %.0fus)" at_us

(* Exponential sample with the given mean; guards the log against u = 0. *)
let exp_sample rng ~mean_us = -.mean_us *. log (Float.max 1e-12 (1.0 -. Rng.float rng))

let mean_interarrival_us rate_per_s = 1.0e6 /. rate_per_s

(* Rates and dwells divide a mean out of them: zero, negative or
   non-finite values would yield infinite, negative or NaN arrival times. *)
let check_positive name v =
  if not (Float.is_finite v && v > 0.0) then
    Fmt.invalid_arg "Traffic.arrivals: %s must be finite and positive (got %g)" name v

(** [arrivals ~rng process ~n] draws [n] monotone arrival timestamps. *)
let arrivals ~(rng : Rng.t) (process : process) ~(n : int) : float array =
  (match process with
  | Burst _ -> ()
  | Poisson { rate_per_s } -> check_positive "rate_per_s" rate_per_s
  | Bursty { rate_low_per_s; rate_high_per_s; mean_dwell_us } ->
    check_positive "rate_low_per_s" rate_low_per_s;
    check_positive "rate_high_per_s" rate_high_per_s;
    check_positive "mean_dwell_us" mean_dwell_us);
  let times = Array.make n 0.0 in
  (match process with
  | Burst { at_us } -> Array.fill times 0 n at_us
  | Poisson { rate_per_s } ->
    let mean_us = mean_interarrival_us rate_per_s in
    let t = ref 0.0 in
    for i = 0 to n - 1 do
      t := !t +. exp_sample rng ~mean_us;
      times.(i) <- !t
    done
  | Bursty { rate_low_per_s; rate_high_per_s; mean_dwell_us } ->
    (* MMPP: candidate inter-arrivals at the current state's rate; a
       candidate past the next state switch restarts from the switch
       instant under the other rate (memorylessness makes this exact). *)
    let t = ref 0.0 in
    let high = ref false in
    let switch_at = ref (exp_sample rng ~mean_us:mean_dwell_us) in
    for i = 0 to n - 1 do
      let rec draw () =
        let rate = if !high then rate_high_per_s else rate_low_per_s in
        let candidate = !t +. exp_sample rng ~mean_us:(mean_interarrival_us rate) in
        if candidate <= !switch_at then candidate
        else begin
          t := !switch_at;
          high := not !high;
          switch_at := !switch_at +. exp_sample rng ~mean_us:mean_dwell_us;
          draw ()
        end
      in
      let a = draw () in
      t := a;
      times.(i) <- a
    done);
  times
