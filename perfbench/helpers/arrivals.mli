(** The seeded open-loop send schedule of the service workload. *)

val schedule : seed:int -> rate:float -> count:int -> float array
(** [count] send offsets in seconds from the phase start, strictly
    increasing, a pure function of its arguments. Consecutive gaps are
    uniform in [(1 ± 0.25) / rate], so the mean rate is [rate]. Raises
    [Invalid_argument] on a non-positive rate or a negative count. *)
