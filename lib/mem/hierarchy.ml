type config = {
  l1 : Cache.config;
  l2 : Cache.config;
  dram_latency : int;
  l2_shared_penalty : int;
}

let default_config =
  {
    l1 = Cache.config ~size_bytes:(64 * 1024) ~ways:4 ~line_bytes:64 ~hit_latency:2;
    l2 = Cache.config ~size_bytes:(8 * 1024 * 1024) ~ways:8 ~line_bytes:64 ~hit_latency:20;
    dram_latency = 100;
    l2_shared_penalty = 1;
  }

type t = { cfg : config; l1 : Cache.t; l2 : Cache.t; sharers : int }

let create ?(sharers = 1) (cfg : config) =
  { cfg; l1 = Cache.create cfg.l1; l2 = Cache.create cfg.l2; sharers }

let release _ = ()

let create_shared (cfg : config) ~cores =
  let l2 = Cache.create cfg.l2 in
  Array.init cores (fun _ -> { cfg; l1 = Cache.create cfg.l1; l2; sharers = cores })

let l2_latency t =
  (Cache.geometry t.l2).hit_latency + (t.cfg.l2_shared_penalty * (t.sharers - 1))

let access t addr ~write =
  let l1_lat = (Cache.geometry t.l1).hit_latency in
  match Cache.access t.l1 addr ~write with
  | Cache.Hit -> l1_lat
  | Cache.Miss { dirty_eviction = l1_dirty } ->
    let below =
      match Cache.access t.l2 addr ~write:false with
      | Cache.Hit -> l2_latency t
      | Cache.Miss { dirty_eviction = l2_dirty } ->
        l2_latency t + t.cfg.dram_latency + (if l2_dirty then t.cfg.dram_latency / 2 else 0)
    in
    (* A dirty L1 eviction writes through to L2; charge its hit latency. *)
    l1_lat + below + (if l1_dirty then l2_latency t / 2 else 0)

let load_latency t addr = access t addr ~write:false
let store_latency t addr = access t addr ~write:true
let min_latency t = (Cache.geometry t.l1).hit_latency

let max_latency t =
  (Cache.geometry t.l1).hit_latency + l2_latency t + t.cfg.dram_latency
  + (t.cfg.dram_latency / 2) + (l2_latency t / 2)

let l1 t = t.l1
let l2 t = t.l2

let reset_stats t =
  Cache.reset_stats t.l1;
  Cache.reset_stats t.l2

let level_counts t =
  [
    ("l1_hits", Cache.hits t.l1);
    ("l1_misses", Cache.misses t.l1);
    ("l2_hits", Cache.hits t.l2);
    ("l2_misses", Cache.misses t.l2);
    ("writebacks", Cache.writebacks t.l1 + Cache.writebacks t.l2);
  ]

let register_stats t grp =
  Cache.register_stats t.l1 (Stats.subgroup grp "l1");
  Cache.register_stats t.l2 (Stats.subgroup grp "l2");
  Stats.int_probe grp "dram_latency" (fun () -> t.cfg.dram_latency);
  Stats.int_probe grp "sharers" (fun () -> t.sharers)

let invalidate_all t =
  Cache.invalidate_all t.l1;
  Cache.invalidate_all t.l2
