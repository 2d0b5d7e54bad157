(* search: Refine.run on the five reference kernels at M-64, then the
   guided DSE on the CI sub-space (nn, kmeans × 4x4, 8x4, 8x8, 16x8 ×
   ports 2, 8), serially and from a cold translation memo. The refined
   cycles are pinned by the golden matrix and the guided frontier must
   equal the exhaustive one, so the seed only permutes the kernel order. *)

module Spans = Pbh.Spans

let refined =
  [ ("nn", 19752); ("kmeans", 6277); ("bfs", 12309); ("cfd", 24628); ("hotspot", 6273) ]

let spec =
  {
    Dse.kernels = [ "nn"; "kmeans" ];
    grids = [ (4, 4); (8, 4); (8, 8); (16, 8) ];
    ports = [ 2; 8 ];
    kinds = [ Interconnect.Mesh_noc ];
    l1_kb = [ 64 ];
    l2_kb = [ 8192 ];
    budget = None;
  }

(* Compute share for host normalization (see Pb_sys.factor). *)
let share = 0.8

let labels (r : Dse.result) =
  List.sort compare (List.map (fun o -> Dse.point_label o.Dse.point) r.Dse.front)

let dse out ?(strategy = Dse.Exhaustive) () =
  Pb_out.attempt out 1;
  match Dse.run ~jobs:1 ~strategy spec with
  | Ok r -> Some r
  | Error e ->
    Pb_out.fail out "dse (%s): %s" (Dse.strategy_to_string strategy) e;
    None

let refine out name =
  Pb_out.attempt out 1;
  match Refine.run (Workloads.find name) with
  | Error e ->
    Pb_out.fail out "refine %s: %s" name e;
    None
  | Ok r ->
    let want = Pb_out.expect ("search." ^ name) (List.assoc name refined) in
    Pb_out.check out (r.Refine.refined_cycles = want) "refine %s: %d cycles, golden %d" name
      r.Refine.refined_cycles want;
    Some r

(* One timed iteration: cold memo, refine every kernel, guided DSE. Each
   step is timed (normalized) on its own; returns the results, the cycles
   the engine simulated and the summed seconds. *)
let iteration out ~order ~frontier =
  Runner.clear_translation_cache ();
  let c0 = Sim_meter.read () in
  let secs = ref 0.0 in
  let step f =
    let v, dt = Pb_sys.timed ~share f in
    secs := !secs +. dt;
    v
  in
  let reports = List.filter_map (fun name -> step (fun () -> refine out name)) order in
  let guided = step (fun () -> dse out ~strategy:Dse.Guided ()) in
  Option.iter
    (fun g ->
      Pb_out.check out (labels g = frontier) "guided frontier differs from the exhaustive one")
    guided;
  ((reports, guided), Sim_meter.read () - c0, !secs)

(* Set-up: the exhaustive sweep the guided frontier is checked against,
   seven times from a cold memo (median: one sweep is short); the memo is
   cleared again by every timed iteration. *)
let setup out =
  let runs =
    List.init 7 (fun _ ->
        Runner.clear_translation_cache ();
        Pb_sys.timed ~share (fun () -> dse out ()))
  in
  Pb_out.setup out (List.map snd runs);
  match List.filter_map fst runs with
  | r :: rest ->
    Pb_out.check out (List.for_all (fun x -> labels x = labels r) rest)
      "exhaustive frontier differs between runs";
    labels r
  | [] -> []

(* Layer replay of one kernel: cold translation and the refine pass, then
   the kernel's unit at M-64 layer by layer, with the engine and the cost
   model on the baseline placement refine started from. *)
let replay_kernel out sp ~req name =
  let k = Workloads.find name in
  Spans.with_span sp ~req "kernel" (fun () ->
      Pb_replay.translate_cold sp ~req ~grid:Grid.m64 k;
      match Spans.with_span sp ~req "refine.run" (fun () -> refine out name) with
      | None -> None
      | Some r ->
        let engine = (Refine.config_for r r.Refine.baseline, r.Refine.dfg) in
        let o =
          Pb_replay.kernel_unit out sp ~req
            ~options:(Controller.default_options ~grid:Grid.m64 ()) ~engine k
        in
        Pb_out.check out (o.Pb_replay.verdict = Ok ()) "replay %s: output check" name;
        Pb_out.check out o.Pb_replay.matches_interp "replay %s: memory differs from the interpreter"
          name;
        Pb_out.check out (o.Pb_replay.engine_cycles = r.Refine.baseline_cycles)
          "engine replay %s: %d cycles, refine saw %d" name o.Pb_replay.engine_cycles
          r.Refine.baseline_cycles;
        Some o)

let replay out ~order sp =
  let per_kernel = List.mapi (fun req name -> replay_kernel out sp ~req name) order in
  let guided =
    Spans.with_span sp ~req:(List.length order) "dse" (fun () ->
        Runner.clear_translation_cache ();
        Spans.with_span sp "dse.run" (fun () -> dse out ~strategy:Dse.Guided ()))
  in
  (List.filter_map Fun.id per_kernel, guided)

let run out ~seed ~seconds ~trace ~trace_out =
  let order = Pb_sys.permute ~seed (List.map fst refined) in
  Pb_out.note out "order" (String.concat "," order);
  let frontier = setup out in
  if not trace then begin
    let runs =
      Pb_sys.repeat ~seconds ~min:3 (fun _ ->
          let _, cycles, secs = iteration out ~order ~frontier in
          (cycles, secs))
    in
    Pb_sys.report_runs out ~what:"iterations" runs;
    Pb_out.metric out ~samples:(List.length runs) "search_s" "s"
      (Pbh.Pctl.median (List.map snd runs));
    Pb_sys.report_rss out ()
  end
  else begin
    let g0 = Pb_sys.gc_now () in
    let (reports, guided), _, _ = iteration out ~order ~frontier in
    let gc = Pb_sys.gc_diff g0 (Pb_sys.gc_now ()) in
    let (kernels, _), spans, traced_s, untraced_s =
      Pb_layers.traced_replay (replay out ~order)
    in
    Pb_layers.write_trace ~path:trace_out spans;
    let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
    let confirmed = sum (fun r -> r.Refine.confirmed) in
    let accepted = sum (fun r -> r.Refine.accepted) in
    let frac =
      Option.bind guided (fun g ->
          Pb_replay.per ~num:(float_of_int g.Dse.measured) ~den:g.Dse.exhaustive_count)
    in
    Pb_layers.emit out ~samples:(List.length kernels)
      (Pb_replay.unit_layers spans kernels ~gc ~gc_per:1
      @ [
          ( "refine.accept_ratio", "ratio",
            Pb_replay.per ~num:(float_of_int accepted) ~den:confirmed );
          ("refine.confirmed", "count", Some (float_of_int confirmed));
          ("dse.evaluated_frac", "ratio", frac);
        ]
      @ Pb_layers.span_report ~traced_s ~untraced_s spans)
  end
