(** Analytical cycle estimator over a placed DFG — the model side of
    model-guided mapping and search.

    The estimator replays the engine's timing equations without executing
    anything: Equation-2 arrival folds over the placement's transfer
    latencies, capacity-1 router-slice occupancy for NoC injections,
    cache-port occupancy for memory issues, and the pipelined initiation
    interval bounded by loop-carried recurrences, memory-port throughput and
    iterative functional units. Iterations are timing-simulated until every
    tiled instance reaches a cycle-exact fixed point, then the remaining
    trip count is extrapolated at the steady II (falling back to simulating
    every iteration when no fixed point appears).

    The model is a pure function of its arguments: same inputs, same
    estimate — it touches no {!Stats} registry, no {!Sim_meter}, and no
    engine state. It deliberately assumes the value-independent fragment of
    the engine's semantics: every guard enabled, no dynamic store-to-load
    aliasing, and memory service latency from the [mem_latency] oracle
    instead of a live cache. On loops where those assumptions hold exactly
    (straight-line bodies without memory traffic) the estimate equals the
    event engine's measured cycles bit for bit; elsewhere the divergence is
    bounded and the property suite pins the bound.

    Cost: a search pass prices placements through a {!pricer}, which
    builds the placement-independent tables once and simulates each
    distinct edge table once, in a workspace reused across calls. The
    fixed-point check compares live-booking counts before it builds any
    pending multiset. On kmeans at M-64 over the 128-iteration refine
    horizon a simulated estimate costs 0.15-0.22 ms on a 2-core Xeon
    host, one engine confirmation 16-23 ms. *)

type t = {
  cycles : int;          (** modeled makespan over [iterations] *)
  iter_latency : float;  (** steady-state latency of one iteration *)
  ii : float;            (** steady-state initiation interval *)
  ii_rec : float;        (** loop-carried recurrence bound on the II *)
  ii_mem : float;        (** memory-port throughput bound *)
  ii_fu : float;         (** iterative div/sqrt unit bound *)
  critical : int list;   (** node chain realizing [iter_latency], in
                             execution order *)
  simulated : int;       (** iterations timing-simulated before the fixed
                             point (= [iterations] when none was found) *)
  steady : bool;         (** a per-instance fixed point was found and the
                             tail extrapolated *)
}

val estimate :
  ?op_latency:(int -> float) ->
  ?mem_latency:(int -> float) ->
  ?iterations:int ->
  ?extrapolate:bool ->
  config:Accel_config.t ->
  dfg:Dfg.t ->
  unit ->
  t
(** Model [iterations] (default 1, clamped to at least 1) loop iterations of
    [dfg] under [config]'s placement and optimization flags.

    [op_latency] prices a non-memory node's firing (default: the static
    {!Latency.accel} table by op class — the same seed the {!Perf_model}
    starts from). [mem_latency] prices a memory node's cache service time,
    excluding the modeled port queueing (default: the L1 hit latency of
    {!Hierarchy.default_config}); feed measured AMATs through
    {!mem_oracle_of_measured} to tighten the estimate after a profiling
    window. [extrapolate:false] forces every iteration to be simulated —
    the fixed-point fast path must be observationally identical, and the
    property suite checks it. *)

(** {2 Pricing many placements of one loop}

    A search pass prices hundreds of placements of the same DFG under the
    same flags, oracles and horizon. A pricer builds everything that does
    not depend on the placement once — the node table (one oracle call per
    node), the dependency structure in fold order and the II bounds — and
    memoizes estimates by edge table: an estimate reads a placement only
    through each dependency's static transfer latency and router slice, so
    two placements with equal edge tables get the same [t]. *)

type pricer

val pricer :
  ?op_latency:(int -> float) ->
  ?mem_latency:(int -> float) ->
  ?iterations:int ->
  ?extrapolate:bool ->
  config:Accel_config.t ->
  dfg:Dfg.t ->
  unit ->
  pricer
(** A pricer for placements of [dfg] under [config]'s flags (everything
    but its placement, whose grid fixes the fabric), with {!estimate}'s
    optional arguments. The memo lives as long as the pricer: build one per
    search pass and drop it with the pass. A pricer belongs to one thread;
    the tables a simulation runs in come from a per-domain pool that is
    safe across the threads of a domain. *)

val price : pricer -> Placement.t -> t
(** [price p placement] equals [estimate] of [placement] with [p]'s
    arguments, bit for bit; an edge table priced before costs one lookup.
    Raises [Invalid_argument] when [placement]'s grid has a different
    memory-port count or number of router slices than the pricer's. *)

val predicted_activity :
  config:Accel_config.t -> dfg:Dfg.t -> iterations:int -> cycles:int ->
  Activity.t
(** The activity counters the modeled run would accumulate (every guard
    assumed enabled): per-class op counts, local/NoC transfer counts and the
    given [iterations]/[cycles] — enough for {!Energy_model.accel_energy} to
    price a candidate point without executing it. *)

val op_oracle_of_measured : Stats.snapshot -> (int -> float)
(** An [op_latency] oracle reading ["node.<i>.latency"] means out of an
    engine window's measured snapshot, falling back to the static table for
    unmeasured (or memory) nodes. *)

val mem_oracle_of_measured : Stats.snapshot -> (int -> float)
(** A [mem_latency] oracle reading ["node.<i>.amat"] means with the window's
    mean port-queue delay deducted (the model re-applies its own queueing),
    clamped to at least one cycle; unmeasured nodes fall back to the default
    L1-hit service time. *)
