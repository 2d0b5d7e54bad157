type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ~size_bytes ~ways ~line_bytes ~hit_latency =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.config: line size must be a power of two";
  if ways <= 0 then invalid_arg "Cache.config: ways must be positive";
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.config: capacity not divisible by ways * line size";
  let sets = size_bytes / (ways * line_bytes) in
  if not (is_pow2 sets) then invalid_arg "Cache.config: set count must be a power of two";
  if hit_latency < 0 then invalid_arg "Cache.config: negative hit latency";
  { size_bytes; ways; line_bytes; hit_latency }

type outcome = Hit | Miss of { dirty_eviction : bool }

(* Lines live in flat structure-of-arrays storage indexed by
   [set * ways + way] — a large L2 is three int arrays instead of hundreds
   of thousands of little heap records, so creating a
   hierarchy per measurement is cheap and lookups walk contiguous memory.
   [meta] packs the valid (bit 0) and dirty (bit 1) flags, which makes
   {!invalidate_all} a single fill. *)
type t = {
  cfg : config;
  tags : int array;
  meta : int array;
  lru : int array;
  set_mask : int;
  line_shift : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let create cfg =
  let nsets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  let nlines = nsets * cfg.ways in
  let line_shift =
    let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
    go cfg.line_bytes 0
  in
  {
    cfg;
    tags = Array.make nlines 0;
    meta = Array.make nlines 0;
    lru = Array.make nlines 0;
    set_mask = nsets - 1;
    line_shift;
    clock = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let geometry t = t.cfg

(* First way holding a valid line with this tag, or -1. [base] is the
   set's first line index. *)
let find_way t base tag =
  let ways = t.cfg.ways in
  let rec go i =
    if i = ways then -1
    else if t.meta.(base + i) land 1 <> 0 && t.tags.(base + i) = tag then base + i
    else go (i + 1)
  in
  go 0

let access t addr ~write =
  t.clock <- t.clock + 1;
  let line_addr = addr lsr t.line_shift in
  let set = line_addr land t.set_mask in
  let tag = line_addr in
  let base = set * t.cfg.ways in
  let i = find_way t base tag in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    t.lru.(i) <- t.clock;
    if write then t.meta.(i) <- t.meta.(i) lor 2;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Choose an invalid way if any, else the LRU way (first strict minimum
       in way order — the same victim the line-record implementation
       picked). *)
    let best = ref base in
    for k = base to base + t.cfg.ways - 1 do
      if t.meta.(k) land 1 = 0 then begin
        if t.meta.(!best) land 1 <> 0 then best := k
      end
      else if t.meta.(!best) land 1 <> 0 && t.lru.(k) < t.lru.(!best) then best := k
    done;
    let v = !best in
    let dirty_eviction = t.meta.(v) land 3 = 3 in
    if dirty_eviction then t.writebacks <- t.writebacks + 1;
    t.tags.(v) <- tag;
    t.meta.(v) <- (if write then 3 else 1);
    t.lru.(v) <- t.clock;
    Miss { dirty_eviction }
  end

let probe t addr =
  let line_addr = addr lsr t.line_shift in
  let set = line_addr land t.set_mask in
  find_way t (set * t.cfg.ways) line_addr >= 0

let invalidate_all t = Array.fill t.meta 0 (Array.length t.meta) 0

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let accesses t = t.hits + t.misses

let hit_rate t =
  let n = accesses t in
  if n = 0 then 0.0 else float_of_int t.hits /. float_of_int n

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0

let register_stats t grp =
  Stats.int_probe grp "hits" (fun () -> t.hits);
  Stats.int_probe grp "misses" (fun () -> t.misses);
  Stats.int_probe grp "writebacks" (fun () -> t.writebacks);
  Stats.int_probe grp "accesses" (fun () -> accesses t);
  Stats.derived grp "hit_rate" (fun () -> hit_rate t)
