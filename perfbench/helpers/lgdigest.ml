(* The load generator's per-request digest, rebuilt over the fields the
   benchmark observes: FNV-1a over every probe, latency excluded. Must stay
   byte-compatible with Loadgen's so a closed-loop digest reads the same in
   both tools. *)

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

let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv_int h i =
  let x = Int64.of_int i in
  let h = ref h in
  for k = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * k)))
  done;
  !h

let fnv_string h s = String.fold_left (fun h c -> fnv_byte h (Char.code c)) h s

let digest probes =
  let h =
    List.fold_left
      (fun h p ->
        let h = fnv_int h p.index in
        let h = fnv_string h p.outcome in
        let h = fnv_int h p.cycles in
        let h = fnv_int h p.mem_checksum in
        let h = fnv_string h p.site in
        let h = fnv_int h p.shard in
        let h = fnv_int h p.retries in
        fnv_int h p.quarantines)
      fnv_basis probes
  in
  Int64.to_int h land max_int
