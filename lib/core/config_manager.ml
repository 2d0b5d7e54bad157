type cached = {
  region : Region.t;
  dfg : Dfg.t;
  model : Perf_model.t;
  mutable config : Accel_config.t;
  mutable reconfigurations : int;
  mutable offloads : int;
  mutable translation_cycles : int;
  mutable accel_iterations : int;
  mutable accel_cycles : int;
  (* Fault-recovery bookkeeping (all zero on a clean run). *)
  mutable faults_detected : int;
  mutable fault_retries : int;
  mutable fault_remaps : int;
  mutable quarantines : int;
  mutable quarantined_until : int;   (* offload ordinal; 0 = not quarantined *)
  mutable quarantine_backoff : int;
  mutable abort_reason : string option;
}

(* Keyed by entry address and probed once per retired instruction, so keys
   compare as ints rather than through the polymorphic compare. The hash is
   the generic one the polymorphic table used: same buckets, so {!entries}
   (and with it the controller's region report order) is unchanged. *)
module Entry_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = { table : cached Entry_tbl.t }

let create () = { table = Entry_tbl.create 8 }
let find t entry = Entry_tbl.find_opt t.table entry
let add t cached = Entry_tbl.replace t.table cached.region.Region.entry cached
let entries t = Entry_tbl.fold (fun _ c acc -> c :: acc) t.table []

let ldfg_build_cycles dfg = 8 + Dfg.node_count dfg

let translation_cycles mapper_cfg dfg config =
  ldfg_build_cycles dfg
  + Mapper.map_cycles mapper_cfg dfg
  + Accel_config.config_cycles config dfg

let cache_hit_cycles config dfg = 4 + Accel_config.config_cycles config dfg
