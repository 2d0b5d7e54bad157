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

(* Lines are stored in chunks of 2^[chunk_shift] consecutive sets (at most
   64), one int array per chunk holding three words per line at
   [3 * (set_in_chunk * ways + way)]: the tag, the flags and the LRU stamp.
   The flags pack valid (bit 0) and dirty (bit 1). Every chunk starts out
   aliasing [empty], an all-invalid chunk that is never written; the first
   miss into a chunk gives it a private copy. A hierarchy's caches
   therefore cost their chunk tables until a kernel touches them, and only
   the touched chunks after: a chunk of 64-byte lines spans 4 KiB of
   addresses, so a kernel touching 14 pages materialises at most 14 of the
   default 8 MB L2's 256 chunks (131,072 lines). {!invalidate_all} points
   every chunk back at [empty]. *)
type t = {
  cfg : config;
  chunks : int array array;
  empty : int array;
  chunk_words : int;
  set_mask : int;
  line_shift : int;
  chunk_shift : int;
  chunk_mask : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let chunk_shift_max = 6

(* Shared by every cache whose chunks fit in it (up to 16 ways); wider
   caches get their own. *)
let shared_empty = Array.make (3 * 16 lsl chunk_shift_max) 0

let log2 n =
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create cfg =
  let nsets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  let chunk_shift = min chunk_shift_max (log2 nsets) in
  let chunk_words = 3 * cfg.ways lsl chunk_shift in
  let empty =
    if chunk_words <= Array.length shared_empty then shared_empty
    else Array.make chunk_words 0
  in
  {
    cfg;
    chunks = Array.make (nsets lsr chunk_shift) empty;
    empty;
    chunk_words;
    set_mask = nsets - 1;
    line_shift = log2 cfg.line_bytes;
    chunk_shift;
    chunk_mask = (1 lsl chunk_shift) - 1;
    clock = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let geometry t = t.cfg

(* Offset in chunk [c] of the first valid line with this tag among the
   lines at offsets [o], [o + 3], ... below [last], or -1. A top-level
   loop: a local one would allocate its closure on every lookup. *)
let rec find_line c tag o last =
  if o >= last then -1
  else if c.(o + 1) land 1 <> 0 && c.(o) = tag then o
  else find_line c tag (o + 3) last

let miss_clean = Miss { dirty_eviction = false }
let miss_dirty = Miss { dirty_eviction = true }

let access t addr ~write =
  t.clock <- t.clock + 1;
  let line_addr = addr lsr t.line_shift in
  let set = line_addr land t.set_mask in
  let tag = line_addr in
  let ways = t.cfg.ways in
  let ci = set lsr t.chunk_shift in
  let base = 3 * ways * (set land t.chunk_mask) in
  let c = t.chunks.(ci) in
  let o = find_line c tag base (base + (3 * ways)) in
  if o >= 0 then begin
    t.hits <- t.hits + 1;
    c.(o + 2) <- t.clock;
    if write then c.(o + 1) <- c.(o + 1) lor 2;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let c =
      if c != t.empty then c
      else begin
        let c = Array.make t.chunk_words 0 in
        t.chunks.(ci) <- c;
        c
      end
    in
    (* Choose an invalid way if any, else the LRU way (first strict minimum
       in way order — the same victim the line-record implementation
       picked). *)
    let best = ref base in
    for k = 0 to ways - 1 do
      let o = base + (3 * k) in
      if c.(o + 1) land 1 = 0 then begin
        if c.(!best + 1) land 1 <> 0 then best := o
      end
      else if c.(!best + 1) land 1 <> 0 && c.(o + 2) < c.(!best + 2) then best := o
    done;
    let v = !best in
    let dirty_eviction = c.(v + 1) land 3 = 3 in
    if dirty_eviction then t.writebacks <- t.writebacks + 1;
    c.(v) <- tag;
    c.(v + 1) <- (if write then 3 else 1);
    c.(v + 2) <- t.clock;
    if dirty_eviction then miss_dirty else miss_clean
  end

let probe t addr =
  let line_addr = addr lsr t.line_shift in
  let set = line_addr land t.set_mask in
  let base = 3 * t.cfg.ways * (set land t.chunk_mask) in
  find_line t.chunks.(set lsr t.chunk_shift) line_addr base (base + (3 * t.cfg.ways)) >= 0

let invalidate_all t = Array.fill t.chunks 0 (Array.length t.chunks) t.empty

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
