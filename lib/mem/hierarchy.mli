(** The two-level cache hierarchy used across the evaluation: per-core 64 KB
    L1D, shared 8 MB unified L2, then DRAM (matching §6.1's simulated
    system).

    The hierarchy is a pure latency oracle: given an address and direction it
    updates cache state and returns the access latency in cycles. Port
    serialization (how many accesses can start per cycle) is the caller's
    concern — the CPU timing model and the accelerator's load-store unit each
    schedule their own ports, which is exactly how Figure 15's "ideal memory
    (infinite ports)" variant is expressed. *)

type config = {
  l1 : Cache.config;
  l2 : Cache.config;
  dram_latency : int;
  l2_shared_penalty : int;
    (** extra cycles per L2 access per additional sharer beyond the first,
        a simple contention model for the 16-core baseline *)
}

val default_config : config
(** 64 KB / 4-way / 64 B / 2-cycle L1; 8 MB / 8-way / 64 B / 20-cycle L2;
    100-cycle DRAM. *)

type t

val create : ?sharers:int -> config -> t
(** A hierarchy with a private L1 and its own L2. [sharers] scales the L2
    latency penalty (default 1 = no sharing). Costs the allocation of both
    caches' arrays, proportional to their line counts (about 1 ms for the
    default 8 MB L2). *)

val release : t -> unit
(** Does nothing. Hierarchies are plain GC values; this stays only for the
    benchmark harness's callers and goes with their next change. *)

val create_shared : config -> cores:int -> t array
(** [cores] hierarchies with private L1s over one shared L2 (and shared L2
    statistics). *)

val load_latency : t -> int -> int
(** Cycles to satisfy a load at the given byte address, updating cache
    state. *)

val store_latency : t -> int -> int
(** Cycles for a store (write-allocate; dirty evictions cost a DRAM
    write). *)

val min_latency : t -> int
(** The L1 hit latency: lower bound of any access. *)

val max_latency : t -> int
(** Worst-case latency (L1 miss + L2 miss + dirty eviction). *)

val l1 : t -> Cache.t
val l2 : t -> Cache.t

val reset_stats : t -> unit
val invalidate_all : t -> unit

val level_counts : t -> (string * int) list
(** Direct readout of the per-level access mix
    ([l1_hits]/[l1_misses]/[l2_hits]/[l2_misses]/[writebacks]) — the
    profiler's memory-side summary, available without a stats snapshot. *)

val register_stats : t -> Stats.group -> unit
(** Register [l1] and [l2] subgroups (per-level hit/miss/writeback probes)
    plus the hierarchy's fixed parameters under [grp]. *)
