(** Percentiles with a sample floor: a percentile is only reported when at
    least ten samples lie above its rank. *)

val min_samples : int -> int
(** [min_samples pct] is the smallest sample count for which the
    nearest-rank [pct]-th percentile keeps ten samples above it: 20 for
    p50, 100 for p90. Raises [Invalid_argument] outside [1..99]. *)

val quantile : int -> float list -> (float, int) result
(** Nearest-rank percentile [pct] of the samples, or [Error need] when
    fewer than [min_samples pct] samples were taken. *)

val median : float list -> float
(** Middle value (mean of the two middle values for an even count). Raises
    [Invalid_argument] on an empty list. *)
