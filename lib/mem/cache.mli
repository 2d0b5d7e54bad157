(** Set-associative cache timing model (tags only; data lives in
    {!Main_memory}).

    Write-back, write-allocate, LRU replacement. The model answers one
    question per access — hit or miss (and whether a dirty line was evicted) —
    and keeps the counters the evaluation needs (hit rate, AMAT inputs,
    writeback traffic). *)

type config = {
  size_bytes : int;   (** total capacity *)
  ways : int;         (** associativity *)
  line_bytes : int;   (** line size, a power of two *)
  hit_latency : int;  (** cycles for a hit in this level *)
}

val config :
  size_bytes:int -> ways:int -> line_bytes:int -> hit_latency:int -> config
(** Validating constructor. Raises [Invalid_argument] on non-power-of-two
    geometry or a capacity not divisible by [ways * line_bytes]. *)

type outcome = Hit | Miss of { dirty_eviction : bool }

type t

val create : config -> t
val geometry : t -> config

val access : t -> int -> write:bool -> outcome
(** Look up the line containing the byte address; allocate on miss; mark
    dirty on writes. *)

val probe : t -> int -> bool
(** Non-destructive lookup: would this address hit? Does not update LRU or
    counters. *)

val invalidate_all : t -> unit
(** Drop every line (e.g. at region boundaries in tests); statistics are
    kept. *)

(** {1 Statistics} *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int
val accesses : t -> int
val hit_rate : t -> float
(** 0 when no access has been made. *)

val reset_stats : t -> unit

val register_stats : t -> Stats.group -> unit
(** Expose hits/misses/writebacks/accesses/hit_rate as snapshot-time probes
    under [grp]. *)
