(** The benchmark's own arithmetic: which tail percentile a sample
    supports and shares of a count. Pure functions, unit-tested in
    [perfbench/test]. Medians come from [Emc_util.Stats.median]. *)

(* The nearest rank of percentile [p] in [n] samples: ceil(p/100 * n).
   The product is rounded first so that float error cannot push an exact
   rank (99.9% of 10000 is 9990.000000000002) up by one. *)
let rank ~n p = int_of_float (Float.ceil (Float.round (p *. float_of_int n *. 1e6) /. 1e8))

(** The percentiles a latency report may quote, highest first. *)
let reportable = [ 99.9; 99.0; 90.0; 50.0 ]

(** Samples that lie beyond the nearest-rank percentile [p] of [n]
    samples. *)
let beyond ~n p = n - rank ~n p

(** The highest reportable percentile with at least [min_beyond] (default
    10) samples beyond it, or [None] when even the median has fewer — a
    tail percentile resting on a handful of samples is noise. *)
let tail_percentile ?(min_beyond = 10) n =
  List.find_opt (fun p -> beyond ~n p >= min_beyond) reportable

(** [part] as a percentage of [total]: failed operations of those
    attempted, late open-loop arrivals of those sent. *)
let share_pct ~total part =
  if total <= 0 then invalid_arg "Stats.share_pct: empty total";
  100.0 *. float_of_int part /. float_of_int total

(** Relative change of [v] against [base], in percent. *)
let pct_change ~base v = 100.0 *. (v -. base) /. base
