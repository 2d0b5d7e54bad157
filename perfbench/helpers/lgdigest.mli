(** The load generator's request digest (FNV-1a over every probe, latency
    excluded), rebuilt so the benchmark's own client can report it. *)

type probe = {
  index : int;
  outcome : string;
  cycles : int;
  mem_checksum : int;
  site : string;
  shard : int;
  retries : int;
  quarantines : int;
}

val digest : probe list -> int
(** Fold in list order; callers sort by [index] first. *)
