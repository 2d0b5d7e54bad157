(* Layer-by-layer replay of one kernel unit for the traced run.
   [Controller.run] is monolithic, so the per-layer costs come from
   re-issuing a unit's calls one layer at a time, each under its own span:
   memory create, kernel prepare, the controller, check / checksum, then
   the interpreter, the coupled CPU model and (optionally) the engine
   alone on copies of the prepared state, followed by the cost model's
   estimate of the same placement. *)

module Spans = Pbh.Spans

type obs = {
  cycles : int;           (* controller total cycles *)
  checksum : int;         (* final memory *)
  verdict : (unit, string) result;
  matches_interp : bool;  (* controller memory = interpreter memory *)
  interp_instrs : int;
  cpu_instrs : int;
  engine_cycles : int;    (* 0 when the engine was not replayed *)
  engine_windows : int;   (* Engine.execute calls inside Controller.run *)
}

(* The kernel's optimization flags around its memoized placement: the
   configuration fig12 and Refine execute (their helpers are not exported). *)
let engine_config ~grid (k : Kernel.t) =
  match Runner.placement_of ~grid k with
  | Error _ -> None
  | Ok placement ->
    let dfg = Runner.dfg_of_kernel k in
    let mo = Mem_opt.analyze dfg in
    let ld =
      Loop_opt.decide ~grid ~dfg
        ~pragma:(Program.pragma_at k.Kernel.program dfg.Dfg.entry_addr)
    in
    Some
      ( Accel_config.with_opts ~forwarding:mo.Mem_opt.forwarding
          ~vector_groups:mo.Mem_opt.vector_groups
          ~prefetched:mo.Mem_opt.prefetched ~tiling:ld.Loop_opt.tiling
          ~pipelined:true placement,
        dfg )

(* Cold translation of [k] for [grid]: the memo is cleared first, so the
   LDFG build and the Algorithm-1 mapping both run. *)
let translate_cold sp ~req ~grid (k : Kernel.t) =
  Runner.clear_translation_cache ();
  (match Spans.with_span sp ~req "translate.ldfg" (fun () -> Runner.dfg_of_kernel k) with
  | _ -> ()
  | exception Failure _ -> ());
  ignore (Spans.with_span sp ~req "translate.map" (fun () -> Runner.placement_of ~grid k))

(* Cost-model estimates per engine replay: one call is short, so a few
   give its mean more samples. *)
let estimates = 4

let kernel_unit out sp ~req ~options ?(hier_config = Hierarchy.default_config)
    ?engine (k : Kernel.t) =
  let span name f = Spans.with_span sp ~req name f in
  span "unit" (fun () ->
      let mem = span "mem.create" (fun () -> Main_memory.create ()) in
      let machine = span "kernel.prepare" (fun () -> Kernel.prepare k mem) in
      (* One deep copy of the prepared image; the standalone replays start
         from pooled memories restored from it, so the copy is the only
         fresh 16 MiB allocation of the unit. *)
      let pristine = span "mem.copy" (fun () -> Main_memory.copy mem) in
      let snapshot () =
        let m = span "mem.create" (fun () -> Main_memory.create ()) in
        span "mem.restore" (fun () -> Main_memory.restore m ~from:pristine);
        Machine.copy machine ~mem:m ()
      in
      let m_interp = snapshot () in
      let m_cpu = snapshot () in
      let m_engine = Option.map (fun _ -> snapshot ()) engine in
      let hier = span "mem.hier_create" (fun () -> Hierarchy.create hier_config) in
      let report =
        span "controller.run" (fun () ->
            Controller.run ~options ~hier k.Kernel.program machine)
      in
      let verdict = span "kernel.check" (fun () -> k.Kernel.check mem) in
      let checksum = span "mem.checksum" (fun () -> Main_memory.checksum mem) in
      let _, interp_instrs =
        span "cpu.interp" (fun () -> Interp.run k.Kernel.program m_interp)
      in
      let matches_interp =
        span "mem.equal" (fun () -> Main_memory.equal mem m_interp.Machine.mem)
      in
      let cpu_hier =
        span "mem.hier_create" (fun () -> Hierarchy.create Hierarchy.default_config)
      in
      let cpu =
        span "cpu.model" (fun () ->
            Cpu_run.run ~hierarchy:cpu_hier k.Kernel.program m_cpu)
      in
      let engine_cycles =
        match (engine, m_engine) with
        | Some (config, dfg), Some m ->
          let h =
            span "mem.hier_create" (fun () -> Hierarchy.create Hierarchy.default_config)
          in
          let r =
            span "engine.execute" (fun () ->
                Engine.execute ~config ~dfg ~machine:m ~hier:h ())
          in
          Hierarchy.release h;
          Main_memory.release m.Machine.mem;
          (match r with
          | Ok r ->
            let iterations = min r.Engine.iterations 128 in
            for _ = 1 to estimates do
              ignore
                (span "cost_model.estimate" (fun () ->
                     Cost_model.estimate ~config ~dfg ~iterations ()))
            done;
            r.Engine.cycles
          | Error msg ->
            Pb_out.fail out "engine replay %s: %s" k.Kernel.name msg;
            0)
        | _ -> 0
      in
      Hierarchy.release hier;
      Hierarchy.release cpu_hier;
      List.iter Main_memory.release [ mem; m_interp.Machine.mem; m_cpu.Machine.mem ];
      {
        cycles = report.Controller.total_cycles;
        checksum;
        verdict;
        matches_interp;
        interp_instrs;
        cpu_instrs = cpu.Cpu_run.summary.Ooo_model.instructions;
        engine_cycles;
        engine_windows =
          Option.value (Stats.find_int report.Controller.stats "engine.windows")
            ~default:0;
      })

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let self_total spans name =
  List.fold_left
    (fun acc s -> if s.Spans.name = name then acc +. Spans.self_time spans s else acc)
    0.0 spans

let mean_ms spans name = Option.map (fun s -> s *. 1e3) (Spans.mean_self spans name)

let per ~num ~den = if den <= 0 then None else Some (num /. float_of_int den)

(* Every per-layer metric Pb_out.per_layer names except the span report's,
   over the replayed units [obs]; the gc deltas are divided by [gc_per]. *)
let unit_layers spans (obs : obs list) ~gc ~gc_per : Pb_layers.layer list =
  let ns_per name den = per ~num:(self_total spans name *. 1e9) ~den:(sum den obs) in
  [
    ("mem.create_ms", "ms", mean_ms spans "mem.create");
    ("mem.copy_ms", "ms", mean_ms spans "mem.copy");
    ("mem.equal_ms", "ms", mean_ms spans "mem.equal");
    ("mem.checksum_ms", "ms", mean_ms spans "mem.checksum");
    ("mem.hier_create_ms", "ms", mean_ms spans "mem.hier_create");
    ("kernel.prepare_ms", "ms", mean_ms spans "kernel.prepare");
    ("kernel.check_ms", "ms", mean_ms spans "kernel.check");
    ("cpu.interp_ns_per_instr", "ns/instr", ns_per "cpu.interp" (fun o -> o.interp_instrs));
    ("cpu.model_ns_per_instr", "ns/instr", ns_per "cpu.model" (fun o -> o.cpu_instrs));
    ("controller.ns_per_cycle", "ns/cycle", ns_per "controller.run" (fun o -> o.cycles));
    ("translate.ldfg_ms", "ms", mean_ms spans "translate.ldfg");
    ("translate.map_ms", "ms", mean_ms spans "translate.map");
    ("engine.ns_per_cycle", "ns/cycle", ns_per "engine.execute" (fun o -> o.engine_cycles));
    ( "engine.calls", "count",
      per ~num:(float_of_int (sum (fun o -> o.engine_windows) obs)) ~den:(List.length obs) );
    ( "cost_model.estimate_us", "us",
      Option.map (fun ms -> ms *. 1e3) (mean_ms spans "cost_model.estimate") );
  ]
  @ Pb_layers.gc_layers ~per:gc_per gc
