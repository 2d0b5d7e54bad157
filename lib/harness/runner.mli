(** Unified kernel execution across every substrate the evaluation
    compares, each returning the same measurement record (cycles, energy,
    output validation). *)

type measurement = {
  label : string;
  cycles : int;
  energy_nj : float;
  checked : (unit, string) result;  (** output validated against the OCaml
                                        reference *)
  stats : Stats.snapshot;           (** end-of-run counter readout — full
                                        controller tree for MESA runs, the
                                        CPU summary group for baselines *)
}

val speedup : baseline:measurement -> measurement -> float
val efficiency : baseline:measurement -> measurement -> float

val single_core : Kernel.t -> measurement
(** One OoO core (the Figure 14 baseline). *)

val multicore : ?cores:int -> Kernel.t -> measurement
(** The 16-core baseline (Figure 11). *)

val mesa :
  ?grid:Grid.t ->
  ?optimize:bool ->
  ?iterative:bool ->
  ?mem_ports:int ->
  ?inject:Fault.spec ->
  ?profile:bool ->
  Kernel.t ->
  measurement * Controller.report
(** Full MESA run (CPU + transparent offload). [mem_ports] overrides the
    accelerator's cache ports (Figure 15's ideal-memory variant); [inject]
    arms a fault schedule for the run (the output check still validates
    bit-exact results after recovery); [profile] arms the cycle-attribution
    collector, returned in [report.attribution] (timing stays
    bit-identical — see {!Profile.of_report}). *)

val dfg_of_kernel : Kernel.t -> Dfg.t
(** The kernel's hot-loop LDFG, for the analytic baselines (OpenCGRA /
    DynaSpAM) and inspection. Raises [Failure] on kernels whose loop cannot
    be translated.

    Memoized on (kernel name, iteration count): translation is pure, the
    returned graph is immutable and shared, and the memo table is
    mutex-protected so pool workers can race on it safely. Failures are not
    cached. *)

val placement_of :
  ?kind:Interconnect.kind ->
  grid:Grid.t ->
  Kernel.t ->
  (Placement.t, string) result
(** The kernel's Algorithm-1 placement on [grid] (default backend
    [Mesh_noc]), computed from a fresh performance model — the
    translation the engine-level experiments (fig12, table2) repeat per
    figure. Memoized like {!dfg_of_kernel}, keyed additionally by the grid
    geometry and interconnect kind; mapping errors are cached too (they are
    equally deterministic). *)

val optimized_config :
  k:Kernel.t -> dfg:Dfg.t -> grid:Grid.t -> Placement.t -> Accel_config.t
(** [placement] with the kernel's optimization flags: the {!Mem_opt}
    forwarding pairs, vector groups and prefetches, the {!Loop_opt} tiling
    factor for [grid], and pipelining on — the configuration refinement,
    the DSE and the optimized fig12 column execute and model. The flags
    do not depend on the placement: [optimized_config ~k ~dfg ~grid]
    analyzes once and returns a function that only attaches them. *)

val swap_placement :
  ?kind:Interconnect.kind -> grid:Grid.t -> Kernel.t -> Placement.t -> unit
(** Atomically replace the memoized placement for (kernel, grid, [kind]) —
    how an accepted background refinement is installed into the warm
    translation memo. Readers racing the swap see either the old or the
    new placement, never a torn entry. The caller is responsible for the
    placement's validity (the refinement path only installs
    engine-confirmed, output-validated placements). *)

val translation_cache_stats : unit -> int * int * int
(** [(hits, misses, evictions)] over both memo tables since start (or the
    last {!clear_translation_cache}). An eviction is a wholesale reset of
    both tables on reaching the capacity bound. *)

val translation_cache_capacity : unit -> int
(** The combined entry bound across both memo tables (default 512). *)

val set_translation_cache_capacity : int -> unit
(** Change the bound. When an insert would reach it, both tables reset and
    the eviction counter increments — a sweep over hundreds of placements
    stays bounded while single-figure workloads never evict. Raises
    [Invalid_argument] on a capacity below 1. *)

val clear_translation_cache : unit -> unit
(** Drop every memoized LDFG and placement (tests use this to measure cold
    paths). *)

val dynaspam : ?config:Dynaspam.config -> Kernel.t -> measurement
(** DynaSpAM analytic model over the same dynamic iteration count; the
    non-loop remainder is charged at single-core cost. Unqualified kernels
    return the single-core measurement. *)
