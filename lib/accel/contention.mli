(** Slot-based contention model for shared, pipelined resources (cache
    ports, NoC router slices).

    A resource accepts [capacity] new operations per cycle. Claims arrive in
    arbitrary time order (the engine walks iterations whose absolute start
    times interleave), so the model keeps per-cycle occupancy counts rather
    than a single next-free clock: a claim takes the first cycle at or after
    its ready time with spare capacity, and a late claim never blocks an
    earlier idle slot.

    {b The floor contract.} The counts live in a ring over the live window
    [\[floor, frontier)]: [frontier] is one past the latest booked cycle and
    [floor] starts at 0. A caller that knows no later claim will start below
    some cycle says so with {!retire}; the ring then recycles the cycles
    behind it, so its size follows the span of claims in flight rather than
    the length of the execution. A claim below the floor raises
    [Invalid_argument]. A caller that never retires keeps every cycle from 0
    in the window. *)

type t

val create : capacity:int -> t
(** [capacity] operations may start per cycle; must be positive. *)

val claim_cycle : t -> int -> int
(** [claim_cycle t start] books the first cycle at or after [start] with
    spare capacity and returns it. Callers with a float ready time claim
    [int_of_float (Float.ceil ready)] and issue at the larger of [ready] and
    the result. Raises [Invalid_argument] if [start] is below the floor. *)

val retire : t -> int -> unit
(** [retire t floor] promises that no later claim starts below [floor]:
    the cycles behind it leave the window. The floor only moves forward; a
    lower [floor] is ignored. Retiring never changes where a claim at or
    above the floor lands. *)

val last_slot : t -> int
(** Sub-slot taken by the most recent claim (0-based occupancy order within
    its cycle; 0 before any claim) — the profiler's deterministic port
    index for timeline lanes. *)

val claimed : t -> int
(** Total operations booked. *)

val busy_cycles : t -> int
(** Number of distinct cycles with at least one booked operation — the
    numerator of the resource's utilization. Retired cycles still count. *)

val reset : ?capacity:int -> t -> unit
(** Forget every booked slot and move the floor back to 0 (and optionally
    change the capacity), restoring the table to its freshly-created state
    in O(1): the ring keeps its size, and slots are cleared as later claims
    reach them. The engines recycle tables across executions through
    this. *)
