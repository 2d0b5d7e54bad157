(* fuzz: Fuzz.run at jobs 2 on a recorded master seed. Every case draws a
   fresh program and fabric, so translation is always cold and the
   interpreter oracle runs on every case; each case creates, copies,
   compares and checksums a 16 MiB memory. *)

module Spans = Pbh.Spans

let cases = 48

(* The campaign runs at one fixed master seed, whatever the workload seed:
   throughput differs by up to 12% between master seeds (their cases differ
   in size), more than run-to-run noise, so a seed-dependent campaign would
   blur every comparison. The held-out seed 15 runs a second master seed,
   so a claim can be re-checked on cases it was not tuned on. Digests are
   recorded for 48 cases. *)
let fixed = (0x5EED00, 0x8623531b906670e)
let held_out = (0x5EED0F, 0x1423d6b8d983746e)
let held_out_seed = 15
let entry seed = if seed = held_out_seed then held_out else fixed

(* Compute share for host normalization (see Pb_sys.factor): a case is
   mostly 16 MiB create / copy / equal / checksum. *)
let share = 0.45

(* One checked campaign; returns its simulated cycles and normalized
   seconds, or raw ones with [~raw:true]. *)
let campaign ?(raw = false) out ~jobs ~master ~digest =
  let run () = Fuzz.run ~jobs ~seed:master ~count:cases () in
  let c0 = Sim_meter.read () in
  let s, dt = if raw then Pb_sys.time run else Pb_sys.timed ~domains:jobs ~share run in
  let cycles = Sim_meter.read () - c0 in
  Pb_out.attempt out cases;
  List.iter
    (fun (f : Fuzz.failure) ->
      Pb_out.fail out "case %d (kernel seed %d, %s): %s" f.Fuzz.index f.Fuzz.kernel_seed
        (Fuzz.fabric_to_string f.Fuzz.fabric) f.Fuzz.detail)
    s.Fuzz.failures;
  let want = Pb_out.expect "fuzz.digest" digest in
  Pb_out.check out (s.Fuzz.digest = want) "digest %016x, recorded %016x for master seed %d"
    s.Fuzz.digest want master;
  (cycles, dt)

(* The same per-case seeds Fuzz.run draws, in order. *)
let case_inputs master =
  let rng = Prng.create master in
  List.init cases (fun i ->
      let kernel_seed = Int64.to_int (Prng.bits64 rng) land max_int in
      let fabric_seed = Int64.to_int (Prng.bits64 rng) land max_int in
      (i, Tile_gen.generate ~seed:kernel_seed, Fuzz.draw_fabric (Prng.create fabric_seed)))

(* Fuzz's per-fabric cache geometry. *)
let hier_config (f : Fuzz.fabric) =
  let dc = Hierarchy.default_config in
  let cache (c : Cache.config) kb =
    Cache.config ~size_bytes:(kb * 1024) ~ways:c.Cache.ways ~line_bytes:c.Cache.line_bytes
      ~hit_latency:c.Cache.hit_latency
  in
  { dc with Hierarchy.l1 = cache dc.Hierarchy.l1 f.Fuzz.l1_kb; l2 = cache dc.Hierarchy.l2 f.Fuzz.l2_kb }

let kernel_of (b : Tile_lower.built) =
  {
    Kernel.name = b.Tile_lower.spec.Tile_dsl.sname;
    description = "fuzz case";
    parallel = b.Tile_lower.parallel;
    fp = b.Tile_lower.fp;
    n = b.Tile_lower.n;
    program = b.Tile_lower.program;
    setup = b.Tile_lower.setup;
    args = b.Tile_lower.args;
    fargs = b.Tile_lower.fargs;
    check = b.Tile_lower.check;
  }

let replay out inputs sp =
  List.map
    (fun (i, spec, (f : Fuzz.fabric)) ->
      Spans.with_span sp ~req:i "case" (fun () ->
          let b =
            Spans.with_span sp ~req:i "gen.lower" (fun () -> Tile_lower.lower_exn spec)
          in
          let grid = Grid.make ~rows:f.Fuzz.rows ~cols:f.Fuzz.cols ~mem_ports:f.Fuzz.ports () in
          let options =
            { (Controller.default_options ~grid ~profile:f.Fuzz.profile ()) with
              Controller.kind = f.Fuzz.kind }
          in
          let k = kernel_of b in
          Pb_replay.translate_cold sp ~req:i ~grid k;
          let engine = Pb_replay.engine_config ~grid k in
          let o =
            Pb_replay.kernel_unit out sp ~req:i ~options ~hier_config:(hier_config f) ?engine k
          in
          Pb_out.attempt out 1;
          Pb_out.check out (o.Pb_replay.verdict = Ok ()) "replay case %d: DSL reference" i;
          Pb_out.check out o.Pb_replay.matches_interp "replay case %d: memory differs" i;
          o))
    inputs

(* Set-up: a campaign's fixed cost — pool spawn and first-touch of the
   case buffers — as a four-case campaign on the same master seed, seven
   times (it is short, so the median needs more of them). *)
let setup out ~master =
  Pb_out.setup out
    (List.init 7 (fun _ ->
         let s, dt = Pb_sys.timed ~domains:2 ~share (fun () -> Fuzz.run ~jobs:2 ~seed:master ~count:4 ()) in
         Pb_out.attempt out 4;
         Pb_out.check out (s.Fuzz.failures = []) "set-up campaign failed";
         dt))

let run out ~seed ~seconds ~trace ~trace_out =
  let master, digest = entry seed in
  Pb_out.note out "fuzz master seed" (Printf.sprintf "%d (%d cases)" master cases);
  setup out ~master;
  if not trace then begin
    let runs =
      Pb_sys.repeat ~seconds ~min:3 (fun _ -> campaign out ~jobs:2 ~master ~digest)
    in
    Pb_sys.report_runs out ~what:"campaigns" runs;
    Pb_out.metric out ~samples:(List.length runs) "fuzz_cases_per_s" "cases/s"
      (Pbh.Pctl.median (List.map (fun (_, dt) -> float_of_int cases /. dt) runs));
    Pb_sys.report_rss out ()
  end
  else begin
    (* Raw times, back to back: the two campaigns would otherwise be
       rescaled by calibrations on different domain counts. *)
    let g0 = Pb_sys.gc_now () in
    let _, t1 = campaign ~raw:true out ~jobs:1 ~master ~digest in
    let gc = Pb_sys.gc_diff g0 (Pb_sys.gc_now ()) in
    let _, t2 = campaign ~raw:true out ~jobs:2 ~master ~digest in
    let inputs = case_inputs master in
    let obs, spans, traced_s, untraced_s =
      Pb_layers.traced_replay (replay out inputs)
    in
    Pb_layers.write_trace ~path:trace_out spans;
    Pb_layers.emit out ~samples:cases
      (Pb_replay.unit_layers spans obs ~gc ~gc_per:cases
      @ [
          ("fuzz.case_ms", "ms", Some (t1 *. 1e3 /. float_of_int cases));
          ("gen.lower_ms", "ms", Pb_replay.mean_ms spans "gen.lower");
          ("pool.efficiency", "ratio", Some (t1 /. (2.0 *. t2)));
        ]
      @ Pb_layers.span_report ~traced_s ~untraced_s spans)
  end

