(** Trace-driven out-of-order core timing model — the stand-in for the
    paper's gem5 BOOM-like baseline (§6.1: quad-issue OoO RISC-V).

    The model consumes the dynamic instruction stream produced by
    {!Interp.run} and computes a cycle count under the classic analytic OoO
    approximation: an instruction issues as soon as (a) it has been fetched,
    (b) its source operands are ready, (c) a functional unit of its class is
    free, and (d) ROB space exists; it commits in order at a bounded width.
    Branch mispredictions (from a bimodal predictor) stall fetch; loads take
    their measured cache-hierarchy latency and compete for memory ports.

    This family of models tracks real OoO cores closely for loop-dominated
    codes, which is all the evaluation requires: the paper's results are
    relative speedups over the same dynamic instruction stream. *)

type config = {
  width : int;               (** fetch/issue/commit width *)
  rob_size : int;
  mispredict_penalty : int;  (** frontend refill cycles *)
  alu_units : int;
  mul_units : int;
  div_units : int;
  fp_units : int;            (** shared FP add/mul/div pool *)
  mem_ports : int;           (** cache ports = LSU issue slots per cycle *)
  latencies : Latency.table;
}

val default_config : config
(** Quad-issue, 192-entry ROB, 12-cycle mispredict penalty, 4 ALUs, 2
    multipliers, 1 divider, 2 FP units, 2 memory ports — a BOOM-class
    configuration. *)

type t

val create : config -> Hierarchy.t -> t

val feed : t -> Interp.event -> unit
(** Account one retired instruction. Call in program order. Allocates
    nothing. *)

val cycles : t -> int
(** The live commit cycle of the last instruction fed ([summary]'s
    [cycles], without building the summary). *)

type summary = {
  cycles : int;           (** commit cycle of the last instruction *)
  instructions : int;
  mispredicts : int;
  loads : int;
  stores : int;
  int_ops : int;
  fp_ops : int;
  branches : int;
  load_latency_sum : int; (** for AMAT reporting *)
  rob_stalls : int;       (** instructions whose issue waited on ROB space *)
  fetch_refills : int;    (** frontend restarts after a mispredict *)
}

val summary : t -> summary

val ipc : summary -> float
(** Instructions per cycle; 0 for an empty run. *)

val register_stats : t -> Stats.group -> unit
(** Expose the live model's counters (cycles, instructions, per-class op
    counts, stalls, IPC, AMAT) as probes under [grp]. Snapshot-time reads
    only — the timing hot path is untouched. *)

val register_summary_stats : summary -> Stats.group -> unit
(** Same stat names over a frozen {!summary}, for runs that only keep the
    summary around (baseline measurements). *)
