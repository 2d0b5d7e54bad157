(* Property pinning of the analytical {!Cost_model} against the event
   engine.

   The model deliberately prices every memory access at the L1 hit latency
   (the calibration scale absorbs a kernel's average miss penalty), so its
   cycle estimate is near-optimistic: on random fabric x kernel x tiling
   draws the divergence from the engine is bounded — measured tails over
   thousands of draws are -85%/+19%, pinned here with margin at -95%/+30% —
   and on loops where the model's assumptions hold exactly (straight-line
   compute-only bodies, no memory traffic) the estimate must equal the
   engine's measured cycles bit for bit. The model is also a pure function:
   same inputs, same estimate, no {!Sim_meter} writes, and the fixed-point
   extrapolation fast path is observationally identical to simulating every
   iteration. *)

let check = Alcotest.check

(* Pinned divergence bounds for random draws (see header). *)
let max_underestimate = 0.95
let max_overestimate = 0.30

(* The same draw space as the event-vs-reference differential property. *)
type draw = { arch : Gen.arch_case; tiling : int; pipelined : bool }

let gen_draw =
  let open QCheck2.Gen in
  Gen.arch_case () >>= fun arch ->
  oneofl [ 1; 2; 4 ] >>= fun tiling ->
  bool >>= fun pipelined -> return { arch; tiling; pipelined }

let print_draw d =
  Printf.sprintf "%s tiling=%d pipelined=%b" (Gen.arch_case_print d.arch) d.tiling
    d.pipelined

(* Run a draw on the event engine and estimate the same configuration with
   the model; [None] when the mapper rejects the draw. *)
let engine_and_model (d : draw) =
  let k = Gen.arch_case_kernel d.arch in
  let grid =
    Grid.make ~rows:d.arch.Gen.rows ~cols:d.arch.Gen.cols ~mem_ports:d.arch.Gen.ports ()
  in
  let dfg = Runner.dfg_of_kernel k in
  match Mapper.map ~grid ~kind:d.arch.Gen.kind (Perf_model.create dfg) with
  | Error _ -> None
  | Ok placement ->
    let config =
      Accel_config.with_opts ~tiling:d.tiling ~pipelined:d.pipelined placement
    in
    let mem = Main_memory.create () in
    let machine = Kernel.prepare k mem in
    let hier = Hierarchy.create Hierarchy.default_config in
    match Engine.execute ~config ~dfg ~machine ~hier () with
    | Error e -> Alcotest.failf "%s: %s" k.Kernel.name e
    | Ok res -> Some (res, config, dfg)

(* {2 Property: bounded relative error on random draws, and the
   extrapolation fast path is observationally identical.} *)

let model_error_bounded =
  QCheck2.Test.make
    ~name:"random configs: model within [-95%, +30%] of engine cycles" ~count:10
    ~print:print_draw gen_draw
    (fun d ->
      match engine_and_model d with
      | None -> true (* unmappable draw: nothing to model *)
      | Some (res, config, dfg) ->
        let iterations = res.Engine.iterations in
        let est = Cost_model.estimate ~config ~dfg ~iterations () in
        let full = Cost_model.estimate ~config ~dfg ~iterations ~extrapolate:false () in
        check Alcotest.int
          (print_draw d ^ ": extrapolated cycles = fully simulated cycles")
          full.Cost_model.cycles est.Cost_model.cycles;
        let engine = float_of_int res.Engine.cycles in
        let err = (float_of_int est.Cost_model.cycles -. engine) /. engine in
        if err > max_overestimate then
          Alcotest.failf "%s: model overestimates by %+.1f%% (engine %d, model %d)"
            (print_draw d) (100.0 *. err) res.Engine.cycles est.Cost_model.cycles;
        if err < -.max_underestimate then
          Alcotest.failf "%s: model underestimates by %+.1f%% (engine %d, model %d)"
            (print_draw d) (100.0 *. err) res.Engine.cycles est.Cost_model.cycles;
        true)

(* {2 Property: cycle-exact on compute-only loops.}

   A straight-line body with no memory traffic satisfies every model
   assumption (no guards, no aliasing, no cache), so the estimate must be
   exact — this pins the arrival folds, the II computation and the
   extrapolation itself, with no memory-latency noise to hide behind. *)

type compute_loop = {
  body : Isa.t list;
  iterations : int;
  rows : int;
  cols : int;
  ports : int;
  cl_tiling : int;
  cl_pipelined : bool;
}

let int_temps = [ 6; 7; 28; 29; 30 ] (* t1 t2 t3 t4 t5 *)

let compute_instr : Isa.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let int_temp = oneofl int_temps in
  let fp_temp = int_range 0 7 in
  oneof
    [
      map4
        (fun op rd rs1 rs2 -> Isa.Rtype (op, rd, rs1, rs2))
        (oneofl [ Isa.ADD; Isa.SUB; Isa.XOR; Isa.OR; Isa.AND; Isa.SLT; Isa.MUL ])
        int_temp int_temp int_temp;
      map3
        (fun rd rs1 imm -> Isa.Itype (Isa.ADDI, rd, rs1, imm))
        int_temp int_temp (int_range (-64) 64);
      map3
        (fun rd rs1 sh -> Isa.Itype (Isa.SLLI, rd, rs1, sh))
        int_temp int_temp (int_range 0 4);
      map4
        (fun op fd fs1 fs2 -> Isa.Ftype (op, fd, fs1, fs2))
        (oneofl [ Isa.FADD; Isa.FSUB; Isa.FMUL; Isa.FMIN; Isa.FMAX ])
        fp_temp fp_temp fp_temp;
      map2 (fun fd rs -> Isa.Fcvt_s_w (fd, rs)) fp_temp int_temp;
    ]

let gen_compute_loop : compute_loop QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* len = int_range 3 18 in
  let* body = list_size (return len) compute_instr in
  let* iterations = int_range 40 200 in
  let* rows = oneofl [ 4; 6; 8; 16 ] in
  let* cols = oneofl [ 4; 8 ] in
  let* ports = oneofl [ 1; 2; 4; 8 ] in
  let* cl_tiling = oneofl [ 1; 2; 4 ] in
  let* cl_pipelined = bool in
  return { body; iterations; rows; cols; ports; cl_tiling; cl_pipelined }

let print_compute_loop c =
  Printf.sprintf "%dx%d ports=%d tiling=%d pipelined=%b iterations=%d body=[%s]"
    c.rows c.cols c.ports c.cl_tiling c.cl_pipelined c.iterations
    (String.concat "; " (List.map (fun i -> Format.asprintf "%a" Isa.pp i) c.body))

(* The hot-region extraction recipe {!Runner} uses for kernels, applied to a
   bare assembled program. *)
let dfg_of_program prog =
  let code = Program.code prog in
  let backward =
    let rec find i =
      if i = Array.length code then Alcotest.fail "no backward branch"
      else
        match code.(i) with
        | Isa.Branch (_, _, _, off) when off < 0 -> i
        | _ -> find (i + 1)
    in
    find 0
  in
  let last_addr = Program.addr_of_index prog backward in
  let off = Option.get (Isa.branch_offset code.(backward)) in
  let entry = last_addr + off in
  let first = Program.index_of_addr prog entry in
  Ldfg.build
    {
      Region.entry;
      back_branch_addr = last_addr;
      instrs = Array.sub code first (backward - first + 1);
      pragma = Program.pragma_at prog entry;
      observed_iterations = 0;
    }

let build_compute_loop (c : compute_loop) =
  let b = Asm.create () in
  let open Reg in
  Asm.label b "loop";
  List.iter (Asm.emit b) c.body;
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let model_exact_on_compute_only =
  QCheck2.Test.make
    ~name:"compute-only loops: model cycle-exact against the engine" ~count:25
    ~print:print_compute_loop gen_compute_loop
    (fun c ->
      let prog = build_compute_loop c in
      let dfg =
        match dfg_of_program prog with
        | Ok dfg -> dfg
        | Error e -> Alcotest.failf "compute-only loop rejected by LDFG: %s" e
      in
      let grid = Grid.make ~rows:c.rows ~cols:c.cols ~mem_ports:c.ports () in
      match Mapper.map ~grid ~kind:Interconnect.Mesh_noc (Perf_model.create dfg) with
      | Error _ -> true (* body too wide for the drawn grid: nothing to compare *)
      | Ok placement ->
        let config =
          Accel_config.with_opts ~tiling:c.cl_tiling ~pipelined:c.cl_pipelined placement
        in
        let mem = Main_memory.create () in
        let machine = Machine.create ~pc:(Program.entry prog) mem in
        Machine.set_args machine [ (Reg.t0, 0); (Reg.a3, c.iterations) ];
        Machine.set_fargs machine [ (Reg.ft0, 1.5); (Reg.ft1, -0.25); (Reg.ft2, 3.0) ];
        let hier = Hierarchy.create Hierarchy.default_config in
        (match Engine.execute ~config ~dfg ~machine ~hier () with
        | Error e -> Alcotest.failf "engine rejected compute-only loop: %s" e
        | Ok res ->
          let est =
            Cost_model.estimate ~config ~dfg ~iterations:res.Engine.iterations ()
          in
          check Alcotest.int
            (print_compute_loop c ^ ": model cycles = engine cycles")
            res.Engine.cycles est.Cost_model.cycles);
        true)

(* {2 Purity: same input, same estimate, and no simulation-meter writes.}

   The engine charges every run to {!Sim_meter}; the model must not — that
   is what makes it safe to call thousands of times inside the guided
   search's pricing loop without skewing the harness accounting. *)

let model_is_pure () =
  List.iter
    (fun (k : Kernel.t) ->
      let grid = Grid.m64 in
      let dfg = Runner.dfg_of_kernel k in
      match Runner.placement_of ~grid k with
      | Error _ -> ()
      | Ok placement ->
        let config = Accel_config.with_opts ~pipelined:true placement in
        let meter_before = Sim_meter.read () in
        let a = Cost_model.estimate ~config ~dfg ~iterations:k.Kernel.n () in
        let b = Cost_model.estimate ~config ~dfg ~iterations:k.Kernel.n () in
        check Alcotest.int
          (k.Kernel.name ^ ": sim meter untouched by the model")
          meter_before (Sim_meter.read ());
        check Alcotest.bool (k.Kernel.name ^ ": estimate is deterministic") true (a = b))
    (Workloads.all ())

(* {2 Accuracy anchor: the reference kernels at the default geometry.}

   At M-64 defaults the reference kernels' working sets sit mostly in L1,
   so the model's L1-hit pricing is nearly right: measured divergence is
   within -1.7%..0% across the ten Rodinia reference kernels. Pinned at 5%
   so a timing-equation regression (not a cache-pricing nuance) trips it.
   (The wider workload list is covered by the random-draw bound above —
   e.g. nw's port traffic is modeled pessimistically at +14%.) *)

let reference_kernels =
  [ "nn"; "kmeans"; "bfs"; "cfd"; "hotspot"; "gaussian"; "pathfinder"; "srad";
    "lud"; "backprop" ]

let model_tight_on_reference_kernels () =
  List.iter
    (fun (k : Kernel.t) ->
      let grid = Grid.m64 in
      let dfg = Runner.dfg_of_kernel k in
      match Runner.placement_of ~grid k with
      | Error _ -> ()
      | Ok placement ->
        let mo = Mem_opt.analyze dfg in
        let ld =
          Loop_opt.decide ~grid ~dfg
            ~pragma:(Program.pragma_at k.Kernel.program dfg.Dfg.entry_addr)
        in
        let config =
          Accel_config.with_opts ~forwarding:mo.Mem_opt.forwarding
            ~vector_groups:mo.Mem_opt.vector_groups ~prefetched:mo.Mem_opt.prefetched
            ~tiling:ld.Loop_opt.tiling ~pipelined:true placement
        in
        let mem = Main_memory.create () in
        let machine = Kernel.prepare k mem in
        let hier = Hierarchy.create Hierarchy.default_config in
        (match Engine.execute ~config ~dfg ~machine ~hier () with
        | Error e -> Alcotest.failf "%s: %s" k.Kernel.name e
        | Ok res ->
          let est =
            Cost_model.estimate ~config ~dfg ~iterations:res.Engine.iterations ()
          in
          let engine = float_of_int res.Engine.cycles in
          let err = Float.abs (float_of_int est.Cost_model.cycles -. engine) /. engine in
          if err > 0.05 then
            Alcotest.failf "%s: model %d vs engine %d (%.1f%% off, limit 5%%)"
              k.Kernel.name est.Cost_model.cycles res.Engine.cycles (100.0 *. err)))
    (List.map Workloads.find reference_kernels)

let suites =
  [
    ( "cost-model",
      [
        QCheck_alcotest.to_alcotest model_error_bounded;
        QCheck_alcotest.to_alcotest model_exact_on_compute_only;
        Alcotest.test_case "model is pure (deterministic, no meter writes)" `Quick
          model_is_pure;
        Alcotest.test_case "model within 5% on reference kernels at M-64" `Slow
          model_tight_on_reference_kernels;
      ] );
  ]
