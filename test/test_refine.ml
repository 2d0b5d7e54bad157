(* Differential pinning of model-guided placement refinement.

   {!Refine.run} lets the cost model propose swap moves and the event
   engine confirm them. Three things must hold for the pass to be safe to
   trust: it never regresses a kernel (engine-confirmed acceptance), the
   refined placement is an ordinary placement — re-running it through both
   the event engine and the reference oracle stays bit-identical in every
   observable — and the whole search is deterministic for a fixed seed. *)

let check = Alcotest.check

let kernels = [ "nn"; "kmeans"; "bfs"; "cfd"; "hotspot" ]

let run_exn name =
  match Refine.run ~seed:0 (Workloads.find name) with
  | Ok r -> r
  | Error e -> Alcotest.failf "refine %s: %s" name e

(* {2 Refinement never regresses, and its report is internally consistent.} *)

let refine_never_regresses () =
  List.iter
    (fun name ->
      let r = run_exn name in
      if r.Refine.refined_cycles > r.Refine.baseline_cycles then
        Alcotest.failf "%s: refined %d cycles > baseline %d" name
          r.Refine.refined_cycles r.Refine.baseline_cycles;
      check Alcotest.bool
        (name ^ ": confirmations within proposals")
        true
        (r.Refine.confirmed <= r.Refine.proposed);
      check Alcotest.bool
        (name ^ ": acceptances within confirmations")
        true
        (r.Refine.accepted <= r.Refine.confirmed);
      if r.Refine.accepted = 0 then
        check Alcotest.int
          (name ^ ": no accepted move, cycles unchanged")
          r.Refine.baseline_cycles r.Refine.refined_cycles)
    kernels

(* {2 The refined placement through both engines, bit for bit.}

   Same observation set as the event-vs-reference differential property:
   cycles, iterations, memory checksum, architectural registers, the full
   measured stats snapshot and the attribution bucket sums. *)

type observation = {
  o_res : Engine.result;
  o_mem_checksum : int;
  o_stats_json : string;
  o_attr_totals : int array;
  o_attr_cycles : int;
}

let execute_refined ~engine (r : Refine.report) (k : Kernel.t) =
  let config = Refine.config_for r r.Refine.placement in
  let grid = r.Refine.placement.Placement.grid in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let attribution = Attribution.create ~grid () in
  Attribution.begin_window attribution ~at:0.0;
  let hier = Hierarchy.create Hierarchy.default_config in
  match
    Engine.execute ~engine ~attribution ~config ~dfg:r.Refine.dfg ~machine ~hier ()
  with
  | Error e -> Alcotest.failf "%s (%s engine): %s" k.Kernel.name
      (match engine with `Event -> "event" | `Reference -> "reference") e
  | Ok res ->
    ( {
        o_res = res;
        o_mem_checksum = Main_memory.checksum mem;
        o_stats_json = Json.to_string (Stats.to_json res.Engine.measured);
        o_attr_totals = Attribution.totals attribution;
        o_attr_cycles = Attribution.total_cycles attribution;
      },
      machine )

let refined_placement_differential () =
  List.iter
    (fun name ->
      let k = Workloads.find name in
      let r = run_exn name in
      let ev, ev_m = execute_refined ~engine:`Event r k in
      let re, re_m = execute_refined ~engine:`Reference r k in
      check Alcotest.int (name ^ ": cycles") re.o_res.Engine.cycles
        ev.o_res.Engine.cycles;
      check Alcotest.int (name ^ ": refined cycles as reported")
        r.Refine.refined_cycles ev.o_res.Engine.cycles;
      check Alcotest.int (name ^ ": iterations") re.o_res.Engine.iterations
        ev.o_res.Engine.iterations;
      check Alcotest.bool (name ^ ": completed") re.o_res.Engine.completed
        ev.o_res.Engine.completed;
      check Alcotest.int (name ^ ": memory checksum") re.o_mem_checksum
        ev.o_mem_checksum;
      check Alcotest.bool (name ^ ": registers") true (Machine.arch_equal re_m ev_m);
      check Alcotest.string (name ^ ": stats snapshot") re.o_stats_json
        ev.o_stats_json;
      check Alcotest.(array int) (name ^ ": attribution buckets") re.o_attr_totals
        ev.o_attr_totals;
      check Alcotest.int (name ^ ": attribution cycles") re.o_attr_cycles
        ev.o_attr_cycles)
    kernels

(* {2 Determinism: fixed seed, identical search and identical outcome.} *)

let refine_is_deterministic () =
  List.iter
    (fun name ->
      let a = run_exn name and b = run_exn name in
      check Alcotest.int (name ^ ": refined cycles") a.Refine.refined_cycles
        b.Refine.refined_cycles;
      check Alcotest.int (name ^ ": rounds") a.Refine.rounds b.Refine.rounds;
      check Alcotest.int (name ^ ": proposed") a.Refine.proposed b.Refine.proposed;
      check Alcotest.int (name ^ ": confirmed") a.Refine.confirmed b.Refine.confirmed;
      check Alcotest.int (name ^ ": accepted") a.Refine.accepted b.Refine.accepted;
      check Alcotest.bool (name ^ ": same placement") true
        (a.Refine.placement = b.Refine.placement);
      check Alcotest.string (name ^ ": same report json")
        (Json.to_string (Refine.report_to_json a))
        (Json.to_string (Refine.report_to_json b)))
    [ "kmeans"; "hotspot" ]

let suites =
  [
    ( "refine",
      [
        Alcotest.test_case "refinement never regresses a kernel" `Slow
          refine_never_regresses;
        Alcotest.test_case "refined placement bit-identical across engines" `Slow
          refined_placement_differential;
        Alcotest.test_case "fixed seed: deterministic search" `Slow
          refine_is_deterministic;
      ] );
  ]
