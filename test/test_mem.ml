let check = Alcotest.check

(* -------------------- main memory -------------------- *)

let mem_endianness () =
  let m = Main_memory.create ~size:4096 () in
  Main_memory.store_word m 0 0x12345678;
  check Alcotest.int "little-endian byte 0" 0x78 (Main_memory.load_byte_u m 0);
  check Alcotest.int "little-endian byte 3" 0x12 (Main_memory.load_byte_u m 3);
  check Alcotest.int "half" 0x5678 (Main_memory.load_half_u m 0)

let mem_sign_extension () =
  let m = Main_memory.create ~size:4096 () in
  Main_memory.store_word m 0 (-1);
  check Alcotest.int "signed byte" (-1) (Main_memory.load_byte m 0);
  check Alcotest.int "unsigned byte" 0xFF (Main_memory.load_byte_u m 0);
  check Alcotest.int "signed half" (-1) (Main_memory.load_half m 0);
  check Alcotest.int "signed word" (-1) (Main_memory.load_word m 0)

let mem_bounds () =
  let m = Main_memory.create ~size:64 () in
  Alcotest.check_raises "oob word"
    (Invalid_argument "Main_memory: access at 0x3d width 4 out of bounds") (fun () ->
      ignore (Main_memory.load_word m 61));
  (match Main_memory.store_word m (-4) 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative address accepted")

let mem_float_roundtrip () =
  let m = Main_memory.create ~size:64 () in
  Main_memory.store_float32 m 0 1.5;
  check (Alcotest.float 0.0) "exact" 1.5 (Main_memory.load_float32 m 0);
  Main_memory.store_float32 m 4 0.1;
  check (Alcotest.float 0.0) "rounded consistently" (Machine.round32 0.1)
    (Main_memory.load_float32 m 4)

let mem_copy_equal () =
  let m = Main_memory.create ~size:64 () in
  Main_memory.store_word m 8 42;
  let c = Main_memory.copy m in
  check Alcotest.bool "equal" true (Main_memory.equal m c);
  Main_memory.store_word c 8 43;
  check Alcotest.bool "diverged" false (Main_memory.equal m c);
  check Alcotest.int "original untouched" 42 (Main_memory.load_word m 8)

let mem_blit_read () =
  let m = Main_memory.create ~size:256 () in
  Main_memory.blit_words m 16 [| 1; -2; 3 |];
  check (Alcotest.array Alcotest.int) "words" [| 1; -2; 3 |] (Main_memory.read_words m 16 3);
  Main_memory.blit_floats m 64 [| 1.0; 2.5 |];
  check (Alcotest.array (Alcotest.float 0.0)) "floats" [| 1.0; 2.5 |]
    (Main_memory.read_floats m 64 2)

(* Differential check of the paged memory against a flat [Bytes] model:
   random op sequences over every access width, with addresses biased onto
   page boundaries and the memory's end, plus copy/restore/equal and a
   byte-loop FNV-1a reference for [checksum]. *)

let fnv_reference b =
  let h = ref 0x3bf29ce484222325 in
  Bytes.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) b;
  !h land max_int

type width = W8 | W16 | W32 | F32

type op =
  | Store of width * int * int
  | Store_f of int * float
  | Load of width * bool * int  (** width, signed, address *)
  | Snapshot  (** copy both sides *)
  | Restore  (** roll both sides back to the last snapshot *)
  | Compare  (** equal against the snapshot, checksum against the model *)

let width_name = function W8 -> "8" | W16 -> "16" | W32 -> "32" | F32 -> "f32"

let print_op = function
  | Store (w, a, v) -> Printf.sprintf "store%s 0x%x %d" (width_name w) a v
  | Store_f (a, f) -> Printf.sprintf "storef 0x%x %h" a f
  | Load (w, s, a) -> Printf.sprintf "load%s%s 0x%x" (width_name w) (if s then "" else "u") a
  | Snapshot -> "snapshot"
  | Restore -> "restore"
  | Compare -> "compare"

let print_case (size, ops) =
  Printf.sprintf "size %d: %s" size (String.concat "; " (List.map print_op ops))

let gen_case =
  let open QCheck2.Gen in
  let* size = oneofl [ 64; 4096; 9000; (3 * 4096) + 100; 5 * 4096 ] in
  let addr =
    frequency
      [
        (3, int_range 0 (size - 1));
        (* straddling or touching a page boundary *)
        ( 4,
          let* page = int_range 1 ((size - 1) / 4096 + 1) in
          let+ d = int_range (-4) 3 in
          (page * 4096) + d );
        (* the top of memory, partly out of bounds *)
        (1, int_range (size - 6) (size + 2));
      ]
  in
  let op =
    frequency
      [
        ( 6,
          let* w = oneofl [ W8; W16; W32 ] in
          let* a = addr in
          let+ v = int in
          Store (w, a, v) );
        (2, map2 (fun a f -> Store_f (a, f)) addr float);
        (6, map3 (fun w s a -> Load (w, s, a)) (oneofl [ W8; W16; W32; F32 ]) bool addr);
        (1, return Snapshot);
        (1, return Restore);
        (1, return Compare);
      ]
  in
  let+ ops = list_size (int_range 1 80) op in
  (size, ops)

let store_mem m w a v =
  match w with
  | W8 -> Main_memory.store_byte m a v
  | W16 -> Main_memory.store_half m a v
  | W32 | F32 -> Main_memory.store_word m a v

let store_model b w a v =
  match w with
  | W8 -> Bytes.set_uint8 b a (v land 0xFF)
  | W16 -> Bytes.set_uint16_le b a (v land 0xFFFF)
  | W32 | F32 -> Bytes.set_int32_le b a (Int32.of_int v)

let load_mem m w signed a =
  match (w, signed) with
  | W8, true -> Main_memory.load_byte m a
  | W8, false -> Main_memory.load_byte_u m a
  | W16, true -> Main_memory.load_half m a
  | W16, false -> Main_memory.load_half_u m a
  | W32, _ -> Main_memory.load_word m a
  | F32, _ -> Int64.to_int (Int64.bits_of_float (Main_memory.load_float32 m a))

let load_model b w signed a =
  match (w, signed) with
  | W8, true -> Bytes.get_int8 b a
  | W8, false -> Bytes.get_uint8 b a
  | W16, true -> Bytes.get_int16_le b a
  | W16, false -> Bytes.get_uint16_le b a
  | W32, _ -> Int32.to_int (Bytes.get_int32_le b a)
  | F32, _ -> Int64.to_int (Int64.bits_of_float (Int32.float_of_bits (Bytes.get_int32_le b a)))

(* Both sides return the same value, or both reject the access. *)
let agree f g =
  let run h = match h () with v -> Some v | exception Invalid_argument _ -> None in
  run f = run g

let mem_matches_flat_model =
  QCheck2.Test.make ~name:"paged memory matches a flat byte model" ~count:300
    ~print:print_case gen_case (fun (size, ops) ->
      let m = Main_memory.create ~size () and b = Bytes.make size '\000' in
      let untouched = Main_memory.create ~size () in
      let saved = ref (Main_memory.copy m, Bytes.copy b) in
      let step = function
        | Store (w, a, v) -> agree (fun () -> store_mem m w a v) (fun () -> store_model b w a v)
        | Store_f (a, f) ->
          agree
            (fun () -> Main_memory.store_float32 m a f)
            (fun () -> Bytes.set_int32_le b a (Int32.bits_of_float f))
        | Load (w, s, a) -> agree (fun () -> load_mem m w s a) (fun () -> load_model b w s a)
        | Snapshot ->
          saved := (Main_memory.copy m, Bytes.copy b);
          true
        | Restore ->
          let sm, sb = !saved in
          Main_memory.restore m ~from:sm;
          Bytes.blit sb 0 b 0 size;
          true
        | Compare ->
          let sm, sb = !saved in
          Main_memory.equal m sm = Bytes.equal b sb
          && Main_memory.checksum m = fnv_reference b
          && Main_memory.checksum sm = fnv_reference sb
      in
      let zero = fnv_reference (Bytes.make size '\000') in
      List.for_all step ops
      && Main_memory.checksum m = fnv_reference b
      && Main_memory.equal (Main_memory.copy m) m
      (* no store ever lands in the page every fresh memory shares *)
      && Main_memory.checksum untouched = zero
      && Main_memory.checksum (Main_memory.create ~size ()) = zero
      && Main_memory.equal untouched (Main_memory.create ~size ()))

let mem_checksum_default_size () =
  let m = Main_memory.create () in
  let b = Bytes.make (Main_memory.size m) '\000' in
  List.iter
    (fun (a, v) ->
      Main_memory.store_word m a v;
      Bytes.set_int32_le b a (Int32.of_int v))
    [ (0, 0x1234); (4094, -7); (0x80000, 99); (Main_memory.size m - 4, 0x5a5a5a5a) ];
  check Alcotest.int "16 MiB checksum = byte loop" (fnv_reference b) (Main_memory.checksum m)

(* -------------------- cache -------------------- *)

let small_cache () =
  Cache.create (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:64 ~hit_latency:2)

let cache_hit_after_miss () =
  let c = small_cache () in
  check Alcotest.bool "first is miss" true (Cache.access c 0 ~write:false <> Cache.Hit);
  check Alcotest.bool "second hits" true (Cache.access c 0 ~write:false = Cache.Hit);
  check Alcotest.bool "same line hits" true (Cache.access c 63 ~write:false = Cache.Hit);
  check Alcotest.bool "next line misses" true (Cache.access c 64 ~write:false <> Cache.Hit)

let cache_lru_eviction () =
  let c = small_cache () in
  (* 8 sets x 2 ways; addresses 0, 8*64, 16*64 map to set 0. *)
  let a0 = 0 and a1 = 8 * 64 and a2 = 16 * 64 in
  ignore (Cache.access c a0 ~write:false);
  ignore (Cache.access c a1 ~write:false);
  ignore (Cache.access c a0 ~write:false); (* a0 freshly used; a1 is LRU *)
  ignore (Cache.access c a2 ~write:false); (* evicts a1 *)
  check Alcotest.bool "a0 survived" true (Cache.probe c a0);
  check Alcotest.bool "a1 evicted" false (Cache.probe c a1);
  check Alcotest.bool "a2 present" true (Cache.probe c a2)

let cache_dirty_writeback () =
  let c = small_cache () in
  ignore (Cache.access c 0 ~write:true);
  ignore (Cache.access c (8 * 64) ~write:false);
  (match Cache.access c (16 * 64) ~write:false with
  | Cache.Miss { dirty_eviction = true } -> ()
  | _ -> Alcotest.fail "expected a dirty eviction");
  check Alcotest.int "writeback counted" 1 (Cache.writebacks c)

let cache_stats_conservation () =
  let c = small_cache () in
  let rng = Prng.create 5 in
  for _ = 1 to 500 do
    ignore (Cache.access c (Prng.int rng 8192) ~write:(Prng.bool rng))
  done;
  check Alcotest.int "hits + misses = accesses" 500 (Cache.accesses c);
  check Alcotest.bool "hit rate in [0,1]" true
    (Cache.hit_rate c >= 0.0 && Cache.hit_rate c <= 1.0);
  Cache.reset_stats c;
  check Alcotest.int "stats reset" 0 (Cache.accesses c)

let cache_probe_no_side_effect () =
  let c = small_cache () in
  check Alcotest.bool "cold probe" false (Cache.probe c 0);
  check Alcotest.int "probe counts nothing" 0 (Cache.accesses c)

let cache_invalidate () =
  let c = small_cache () in
  ignore (Cache.access c 0 ~write:false);
  Cache.invalidate_all c;
  check Alcotest.bool "gone" false (Cache.probe c 0)

let cache_config_validation () =
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.config: line size must be a power of two") (fun () ->
      ignore (Cache.config ~size_bytes:1024 ~ways:2 ~line_bytes:48 ~hit_latency:1))

(* Differential property: the chunked, lazily built [Cache] against a flat
   reference model — the structure-of-arrays cache it replaced, kept here
   verbatim (tags, flags and LRU stamps in three arrays indexed by
   [set * ways + way]). Geometries span the default L1 and L2, the fuzzer's
   L1/L2 sizes, caches with fewer sets than one chunk, wide caches whose
   chunks outgrow the shared empty chunk, and random ones. Address streams
   mix same-set conflict runs (so LRU victims and dirty evictions happen even
   in an 8 MB L2), sequential walks and far jumps, with interleaved probes
   and [invalidate_all]. Every outcome and every counter must match after
   every operation. *)
module Flat_cache = struct
  type t = {
    cfg : Cache.config;
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

  let create (cfg : Cache.config) =
    let nsets = cfg.Cache.size_bytes / (cfg.Cache.ways * cfg.Cache.line_bytes) in
    let nlines = nsets * cfg.Cache.ways in
    let line_shift =
      let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
      go cfg.Cache.line_bytes 0
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

  let find_way t base tag =
    let ways = t.cfg.Cache.ways in
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
    let base = set * t.cfg.Cache.ways in
    let i = find_way t base tag in
    if i >= 0 then begin
      t.hits <- t.hits + 1;
      t.lru.(i) <- t.clock;
      if write then t.meta.(i) <- t.meta.(i) lor 2;
      Cache.Hit
    end
    else begin
      t.misses <- t.misses + 1;
      let best = ref base in
      for k = base to base + t.cfg.Cache.ways - 1 do
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
      Cache.Miss { dirty_eviction }
    end

  let probe t addr =
    let line_addr = addr lsr t.line_shift in
    let set = line_addr land t.set_mask in
    find_way t (set * t.cfg.Cache.ways) line_addr >= 0

  let invalidate_all t = Array.fill t.meta 0 (Array.length t.meta) 0
end

type cache_op = Access of int * bool | Probe of int | Invalidate

let print_cache_op = function
  | Access (a, w) -> Printf.sprintf "%s 0x%x" (if w then "st" else "ld") a
  | Probe a -> Printf.sprintf "probe 0x%x" a
  | Invalidate -> "invalidate"

let print_geometry (c : Cache.config) =
  Printf.sprintf "%d B / %d ways / %d B lines" c.Cache.size_bytes c.Cache.ways
    c.Cache.line_bytes

let dc = Hierarchy.default_config

let gen_geometry =
  let open QCheck2.Gen in
  let sized ~kb (c : Cache.config) =
    Cache.config ~size_bytes:(kb * 1024) ~ways:c.Cache.ways
      ~line_bytes:c.Cache.line_bytes ~hit_latency:c.Cache.hit_latency
  in
  let geom ~sets ~ways ~line =
    Cache.config ~size_bytes:(sets * ways * line) ~ways ~line_bytes:line ~hit_latency:1
  in
  frequency
    [
      (2, return dc.Hierarchy.l1);
      (2, return dc.Hierarchy.l2);
      (2, map (fun kb -> sized ~kb dc.Hierarchy.l1) (oneofl [ 16; 32 ]));
      (2, map (fun kb -> sized ~kb dc.Hierarchy.l2) (oneofl [ 1024; 4096 ]));
      (* fewer sets than one chunk, down to a single set *)
      ( 2,
        let* sets = oneofl [ 1; 2; 8; 32 ] in
        let+ ways = oneofl [ 1; 2; 4 ] in
        geom ~sets ~ways ~line:64 );
      (* chunks wider than the shared empty chunk *)
      (1, return (geom ~sets:512 ~ways:32 ~line:64));
      ( 3,
        let* sets = map (fun k -> 1 lsl k) (int_range 0 12) in
        let* ways = oneofl [ 1; 2; 3; 4; 8; 16 ] in
        let+ line = oneofl [ 16; 32; 64; 128 ] in
        geom ~sets ~ways ~line );
    ]

let gen_cache_ops (g : Cache.config) =
  let open QCheck2.Gen in
  let line = g.Cache.line_bytes in
  let set_span = g.Cache.size_bytes / g.Cache.ways in
  let* bases = list_repeat 4 (int_range 0 (1 lsl 24)) in
  let bases = Array.of_list bases in
  let addr =
    frequency
      [
        (* same-set conflicts: more distinct tags than ways *)
        ( 4,
          let* b = int_range 0 3 in
          let* k = int_range 0 (g.Cache.ways + 1) in
          let+ o = int_range 0 (2 * line) in
          bases.(b) + (k * set_span) + o );
        (* a sequential walk from a base *)
        ( 3,
          let* b = int_range 0 3 in
          let+ i = int_range 0 64 in
          bases.(b) + (i * (line / 2)) );
        (2, int_range 0 (1 lsl 28));
      ]
  in
  let op =
    frequency
      [
        (12, map2 (fun a w -> Access (a, w)) addr bool);
        (3, map (fun a -> Probe a) addr);
        (1, return Invalidate);
      ]
  in
  list_size (int_range 1 400) op

let cache_counters_agree c r =
  Cache.hits c = r.Flat_cache.hits
  && Cache.misses c = r.Flat_cache.misses
  && Cache.writebacks c = r.Flat_cache.writebacks

let cache_matches_flat_model =
  QCheck2.Test.make ~name:"chunked cache matches the flat reference" ~count:300
    ~print:(fun (g, ops) ->
      print_geometry g ^ ": " ^ String.concat "; " (List.map print_cache_op ops))
    QCheck2.Gen.(gen_geometry >>= fun g -> map (fun ops -> (g, ops)) (gen_cache_ops g))
    (fun (g, ops) ->
      let c = Cache.create g and r = Flat_cache.create g in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Access (a, write) -> Cache.access c a ~write = Flat_cache.access r a ~write
            | Probe a -> Cache.probe c a = Flat_cache.probe r a
            | Invalidate ->
              Cache.invalidate_all c;
              Flat_cache.invalidate_all r;
              true
          in
          same && cache_counters_agree c r)
        ops)

(* The shared-L2 hierarchy against the same reference: per-core flat L1s
   over one flat L2, with {!Hierarchy}'s latency rule restated. Cores take
   turns on the stream, so one core's fills and dirty evictions reach the
   others through the shared L2. *)
let flat_latency (cfg : Hierarchy.config) ~sharers l1 l2 addr ~write =
  let l2_lat =
    cfg.Hierarchy.l2.Cache.hit_latency + (cfg.Hierarchy.l2_shared_penalty * (sharers - 1))
  in
  let l1_lat = cfg.Hierarchy.l1.Cache.hit_latency in
  match Flat_cache.access l1 addr ~write with
  | Cache.Hit -> l1_lat
  | Cache.Miss { dirty_eviction = l1_dirty } ->
    let below =
      match Flat_cache.access l2 addr ~write:false with
      | Cache.Hit -> l2_lat
      | Cache.Miss { dirty_eviction = l2_dirty } ->
        l2_lat + cfg.Hierarchy.dram_latency
        + if l2_dirty then cfg.Hierarchy.dram_latency / 2 else 0
    in
    l1_lat + below + if l1_dirty then l2_lat / 2 else 0

let shared_l2_matches_flat_model =
  let gen =
    let open QCheck2.Gen in
    let* l1_kb = oneofl [ 16; 32; 64 ] in
    let* l2_kb = oneofl [ 1024; 4096; 8192 ] in
    let cfg = Hierarchy.sized ~l1_kb ~l2_kb in
    let* cores = int_range 1 4 in
    let* level = oneofl [ cfg.Hierarchy.l1; cfg.Hierarchy.l2 ] in
    let+ ops = gen_cache_ops level in
    (l1_kb, l2_kb, cores, ops)
  in
  QCheck2.Test.make ~name:"shared-L2 hierarchy matches the flat reference"
    ~count:100
    ~print:(fun (l1_kb, l2_kb, cores, ops) ->
      Printf.sprintf "L1 %d KB, L2 %d KB, %d cores: %s" l1_kb l2_kb cores
        (String.concat "; " (List.map print_cache_op ops)))
    gen
    (fun (l1_kb, l2_kb, cores, ops) ->
      let cfg = Hierarchy.sized ~l1_kb ~l2_kb in
      let hs = Hierarchy.create_shared cfg ~cores in
      let l1s = Array.init cores (fun _ -> Flat_cache.create cfg.Hierarchy.l1) in
      let l2 = Flat_cache.create cfg.Hierarchy.l2 in
      let core = ref 0 in
      List.for_all
        (fun op ->
          let i = !core in
          core := (i + 1) mod cores;
          let same =
            match op with
            | Access (a, write) ->
              let got =
                if write then Hierarchy.store_latency hs.(i) a
                else Hierarchy.load_latency hs.(i) a
              in
              got = flat_latency cfg ~sharers:cores l1s.(i) l2 a ~write
            | Probe a -> Cache.probe (Hierarchy.l2 hs.(i)) a = Flat_cache.probe l2 a
            | Invalidate ->
              Hierarchy.invalidate_all hs.(i);
              Flat_cache.invalidate_all l1s.(i);
              Flat_cache.invalidate_all l2;
              true
          in
          same
          && cache_counters_agree (Hierarchy.l1 hs.(i)) l1s.(i)
          && cache_counters_agree (Hierarchy.l2 hs.(i)) l2)
        ops)

(* -------------------- hierarchy -------------------- *)

let hierarchy_latency_bounds () =
  let h = Hierarchy.create Hierarchy.default_config in
  let rng = Prng.create 13 in
  for _ = 1 to 300 do
    let lat = Hierarchy.load_latency h (Prng.int rng (1 lsl 20)) in
    check Alcotest.bool "within bounds" true
      (lat >= Hierarchy.min_latency h && lat <= Hierarchy.max_latency h)
  done

let hierarchy_warm_hits () =
  let h = Hierarchy.create Hierarchy.default_config in
  let cold = Hierarchy.load_latency h 4096 in
  let warm = Hierarchy.load_latency h 4096 in
  check Alcotest.bool "cold slower than warm" true (cold > warm);
  check Alcotest.int "warm is an L1 hit" (Hierarchy.min_latency h) warm

let hierarchy_shared_l2 () =
  let hs = Hierarchy.create_shared Hierarchy.default_config ~cores:2 in
  (* Core 0 warms the L2; core 1 misses L1 but hits the shared L2. *)
  let cold = Hierarchy.load_latency hs.(0) 8192 in
  let sibling = Hierarchy.load_latency hs.(1) 8192 in
  check Alcotest.bool "sibling faster than DRAM" true (sibling < cold);
  check Alcotest.bool "sibling slower than its own L1" true
    (sibling > Hierarchy.min_latency hs.(1))

let hierarchy_sharing_penalty () =
  let solo = Hierarchy.create Hierarchy.default_config in
  let crowd = Hierarchy.create ~sharers:16 Hierarchy.default_config in
  (* First access misses everywhere: the 16-sharer L2 must cost more. *)
  let a = Hierarchy.load_latency solo 0 and b = Hierarchy.load_latency crowd 0 in
  check Alcotest.bool "shared L2 slower" true (b > a)

(* -------------------- contention -------------------- *)

let contention_respects_ready () =
  let c = Contention.create ~capacity:2 in
  let t = Contention.claim_cycle c 10 in
  check Alcotest.bool "not before ready" true (t >= 10)

let contention_serializes_at_capacity () =
  let c = Contention.create ~capacity:1 in
  let t1 = Contention.claim_cycle c 5 in
  let t2 = Contention.claim_cycle c 5 in
  let t3 = Contention.claim_cycle c 5 in
  check Alcotest.bool "distinct cycles" true (t1 < t2 && t2 < t3);
  check Alcotest.int "claim count" 3 (Contention.claimed c)

let contention_late_claim_no_blocking () =
  (* The bug that motivated this module: a claim far in the future must not
     consume earlier idle slots. *)
  let c = Contention.create ~capacity:1 in
  let late = Contention.claim_cycle c 100 in
  let early = Contention.claim_cycle c 0 in
  check Alcotest.bool "late claim unaffected" true (late >= 100);
  check Alcotest.bool "early slot still free" true (early < 2)

let contention_capacity_per_cycle () =
  let c = Contention.create ~capacity:3 in
  let ts = List.init 7 (fun _ -> Contention.claim_cycle c 0) in
  let at0 = List.length (List.filter (fun t -> t < 1) ts) in
  check Alcotest.int "three per cycle" 3 at0

let contention_reset () =
  let c = Contention.create ~capacity:1 in
  ignore (Contention.claim_cycle c 0);
  Contention.reset c;
  check Alcotest.int "cleared" 0 (Contention.claimed c);
  check Alcotest.bool "slot free again" true (Contention.claim_cycle c 0 < 1)

let contention_below_floor_raises () =
  let c = Contention.create ~capacity:2 in
  ignore (Contention.claim_cycle c 30);
  Contention.retire c 20;
  ignore (Contention.claim_cycle c 20);
  (* The floor never moves back. *)
  Contention.retire c 10;
  check Alcotest.bool "claim below the floor" true
    (match Contention.claim_cycle c 19 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Contention.reset c;
  check Alcotest.int "reset lowers the floor" 0 (Contention.claim_cycle c 0)

(* The contention table against a naive slot map: one count per cycle in a
   hashtable, and a claim scanning forward a cycle at a time. Claims start
   at random offsets above a floor that only rises, some far enough out to
   double the ring several times; retirements sometimes pass every booked
   cycle, and resets reuse the table, sometimes at a new capacity. *)
type contention_op = Claim of int | Retire of int | Reset of int option

let print_contention_case (capacity, ops) =
  let op = function
    | Claim d -> Printf.sprintf "claim +%d" d
    | Retire d -> Printf.sprintf "retire +%d" d
    | Reset None -> "reset"
    | Reset (Some c) -> Printf.sprintf "reset cap %d" c
  in
  Printf.sprintf "capacity %d: %s" capacity (String.concat "; " (List.map op ops))

let gen_contention_case =
  let open QCheck2.Gen in
  let* capacity = int_range 1 8 in
  let op =
    frequency
      [
        (12, map (fun d -> Claim d) (int_range 0 12));
        (2, map (fun d -> Claim d) (int_range 0 1500));
        (3, map (fun d -> Retire d) (int_range 0 16));
        (1, map (fun d -> Retire d) (int_range 0 3000));
        (1, map (fun c -> Reset c) (opt (int_range 1 8)));
      ]
  in
  let+ ops = list_size (int_range 1 400) op in
  (capacity, ops)

let contention_matches_naive_map =
  QCheck2.Test.make ~name:"ring matches a naive slot map" ~count:300
    ~print:print_contention_case gen_contention_case (fun (capacity, ops) ->
      let t = Contention.create ~capacity in
      let cap = ref capacity in
      let counts = Hashtbl.create 64 in
      let count c = Option.value (Hashtbl.find_opt counts c) ~default:0 in
      let floor = ref 0 and claimed = ref 0 and slot = ref 0 in
      let step = function
        | Claim d ->
          let c = ref (!floor + d) in
          while count !c >= !cap do
            incr c
          done;
          slot := count !c;
          Hashtbl.replace counts !c (!slot + 1);
          incr claimed;
          Contention.claim_cycle t (!floor + d) = !c
        | Retire d ->
          floor := !floor + d;
          Contention.retire t !floor;
          true
        | Reset c ->
          Option.iter (fun c -> cap := c) c;
          Hashtbl.reset counts;
          floor := 0;
          claimed := 0;
          slot := 0;
          Contention.reset ?capacity:c t;
          true
      in
      List.for_all
        (fun o ->
          step o
          && Contention.last_slot t = !slot
          && Contention.claimed t = !claimed
          && Contention.busy_cycles t = Hashtbl.length counts)
        ops)

let suites =
  [
    ( "main_memory",
      [
        Alcotest.test_case "endianness" `Quick mem_endianness;
        Alcotest.test_case "sign extension" `Quick mem_sign_extension;
        Alcotest.test_case "bounds" `Quick mem_bounds;
        Alcotest.test_case "float roundtrip" `Quick mem_float_roundtrip;
        Alcotest.test_case "copy/equal" `Quick mem_copy_equal;
        Alcotest.test_case "blit/read" `Quick mem_blit_read;
        Alcotest.test_case "default-size checksum" `Quick mem_checksum_default_size;
        QCheck_alcotest.to_alcotest mem_matches_flat_model;
      ] );
    ( "cache",
      [
        Alcotest.test_case "hit after miss" `Quick cache_hit_after_miss;
        Alcotest.test_case "LRU eviction" `Quick cache_lru_eviction;
        Alcotest.test_case "dirty writeback" `Quick cache_dirty_writeback;
        Alcotest.test_case "stats conservation" `Quick cache_stats_conservation;
        Alcotest.test_case "probe side-effect-free" `Quick cache_probe_no_side_effect;
        Alcotest.test_case "invalidate" `Quick cache_invalidate;
        Alcotest.test_case "config validation" `Quick cache_config_validation;
        QCheck_alcotest.to_alcotest cache_matches_flat_model;
        QCheck_alcotest.to_alcotest shared_l2_matches_flat_model;
      ] );
    ( "hierarchy",
      [
        Alcotest.test_case "latency bounds" `Quick hierarchy_latency_bounds;
        Alcotest.test_case "warm hits" `Quick hierarchy_warm_hits;
        Alcotest.test_case "shared L2" `Quick hierarchy_shared_l2;
        Alcotest.test_case "sharing penalty" `Quick hierarchy_sharing_penalty;
      ] );
    ( "contention",
      [
        Alcotest.test_case "respects ready" `Quick contention_respects_ready;
        Alcotest.test_case "serializes at capacity" `Quick contention_serializes_at_capacity;
        Alcotest.test_case "late claim no blocking" `Quick contention_late_claim_no_blocking;
        Alcotest.test_case "capacity per cycle" `Quick contention_capacity_per_cycle;
        Alcotest.test_case "reset" `Quick contention_reset;
        Alcotest.test_case "claim below the floor raises" `Quick
          contention_below_floor_raises;
        QCheck_alcotest.to_alcotest contention_matches_naive_map;
      ] );
  ]
