(* figures: the paper's fig11, fig12, fig14, fig15 and the ablation study,
   serially with the translation memo warm. The simulated cycles of each
   are pinned; the seed only permutes the order they run in. *)

let experiments =
  [
    ("fig11", 1929641, fun () -> Experiments.fig11 ~jobs:1 ());
    ("fig12", 1343294, fun () -> Experiments.fig12 ~jobs:1 ());
    ("fig14", 2072019, fun () -> Experiments.fig14 ~jobs:1 ());
    ("fig15", 281219, fun () -> Experiments.fig15 ~jobs:1 ());
    ("ablation", 1208922, fun () -> Ablation.experiment ~jobs:1 ());
  ]

(* One serial pass; returns (simulated cycles, normalized seconds). *)
let pass out ~order =
  List.fold_left
    (fun (cyc, secs) (name, pinned, f) ->
      let c0 = Sim_meter.read () in
      let outcome, dt = Pb_sys.timed f in
      let cycles = Sim_meter.read () - c0 in
      Pb_out.attempt out 1;
      let want = Pb_out.expect ("figures." ^ name) pinned in
      Pb_out.check out (cycles = want) "%s simulated %d cycles, pinned %d" name cycles want;
      (* fig11 and the ablation table print FAIL where a measurement's
         output check failed. *)
      let bad =
        List.exists (List.mem "FAIL") (Tables.data_rows outcome.Experiments.table)
      in
      Pb_out.check out (not bad) "%s: a measurement failed its output check" name;
      (cyc + cycles, secs +. dt))
    (0, 0.0) order

(* Set-up is the warm-up a fresh process pays before steady state: one
   pass from a cold translation memo. Done three times (the memo cleared
   before each), reported as the median; the memo is left warm. *)
let setup out ~order =
  let times =
    List.init 3 (fun _ ->
        Runner.clear_translation_cache ();
        snd (pass out ~order))
  in
  Pb_out.setup out times

let memo_ratio (h0, m0, _) (h1, m1, _) =
  let h = h1 - h0 and m = m1 - m0 in
  if h + m = 0 then None else Some (float_of_int h /. float_of_int (h + m))

let timed out ~order ~seconds =
  let g0 = Gc.minor_words () -. !Pb_sys.calibration_words in
  let passes = Pb_sys.repeat ~seconds ~min:3 (fun _ -> pass out ~order) in
  let words = Gc.minor_words () -. !Pb_sys.calibration_words -. g0 in
  let cycles = List.fold_left (fun a (c, _) -> a + c) 0 passes in
  Pb_sys.report_runs out ~what:"passes" passes;
  Pb_out.metric out ~samples:(List.length passes) "minor_words_per_cycle" "words/cycle"
    (words /. float_of_int cycles)

let units () =
  let m128 = Controller.default_options ~grid:Grid.m128 () in
  let m64 = Controller.default_options ~grid:Grid.m64 ~iterative:false () in
  List.map (fun k -> (k, Grid.m128, m128)) (Workloads.all ())
  @ List.map (fun k -> (k, Grid.m64, m64)) (Workloads.dynaspam_shared ())

let replay out sp =
  List.mapi
    (fun req ((k : Kernel.t), grid, options) ->
      Pb_replay.translate_cold sp ~req ~grid k;
      let engine = Pb_replay.engine_config ~grid k in
      let o = Pb_replay.kernel_unit out sp ~req ~options ?engine k in
      Pb_out.attempt out 1;
      Pb_out.check out (o.Pb_replay.verdict = Ok ()) "replay %s: output check" k.Kernel.name;
      Pb_out.check out o.Pb_replay.matches_interp "replay %s: memory differs from the interpreter"
        k.Kernel.name;
      o)
    (units ())

let traced out ~order ~trace_out =
  let s0 = Runner.translation_cache_stats () in
  let g0 = Pb_sys.gc_now () in
  ignore (pass out ~order);
  let gc = Pb_sys.gc_diff g0 (Pb_sys.gc_now ()) in
  let ratio = memo_ratio s0 (Runner.translation_cache_stats ()) in
  let obs, spans, traced_s, untraced_s = Pb_layers.traced_replay (replay out) in
  Pb_layers.write_trace ~path:trace_out spans;
  Pb_layers.emit out ~samples:(List.length obs)
    (Pb_replay.unit_layers spans obs ~gc ~gc_per:1
    @ [ ("translate.memo_hit_ratio", "ratio", ratio) ]
    @ Pb_layers.span_report ~traced_s ~untraced_s spans)

let run out ~seed ~seconds ~trace ~trace_out =
  let order = Pb_sys.permute ~seed experiments in
  Pb_out.note out "order" (String.concat "," (List.map (fun (n, _, _) -> n) order));
  setup out ~order;
  if trace then traced out ~order ~trace_out
  else begin
    timed out ~order ~seconds;
    Pb_sys.report_rss out ()
  end
