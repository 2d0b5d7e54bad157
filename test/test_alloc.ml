(* Allocation gates: host-independent costs of the simulation hot paths,
   counted in words on the installed compiler (measured on OCaml 5.1.1).
   Each bound is the measured count plus 10% headroom, so a change that
   puts an allocation back on a per-instruction or per-firing path fails
   here long before it shows as wall-clock time. *)

let check = Alcotest.check

let budget measured = measured + (measured / 10)

(* Words [f] allocates: exact minor words, and separately the words it
   allocated directly in the major heap (promotions are minor words already
   counted). The major counters are only folded in at collections, so
   settle them with a minor collection and a major slice on both sides. *)
let allocated f =
  let settle () =
    Gc.minor ();
    ignore (Gc.major_slice 0)
  in
  settle ();
  let before = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let r = Sys.opaque_identity (f ()) in
  let minor1 = Gc.minor_words () in
  settle ();
  let after = Gc.quick_stat () in
  let major =
    after.Gc.major_words -. before.Gc.major_words
    -. (after.Gc.promoted_words -. before.Gc.promoted_words)
  in
  (r, int_of_float (minor1 -. minor0), int_of_float major)

let allocated_words f =
  let _, minor, major = allocated f in
  minor + major

let gate what ~measured words =
  if words > budget measured then
    Alcotest.failf "%s allocated %d words, budget %d (measured %d + 10%%)" what words
      (budget measured) measured

(* A default hierarchy is two chunk tables of aliases to the shared empty
   chunk: nothing is sized by the 8 MB L2 until a run touches it. *)
let hierarchy_create_words = 293

let hierarchy_create_gate () =
  gate "Hierarchy.create default_config" ~measured:hierarchy_create_words
    (allocated_words (fun () -> Hierarchy.create Hierarchy.default_config))

(* The OoO core on nn: one retired instruction allocates nothing, so the
   run's minor words are its fixed setup. The touched cache chunks go
   straight to the major heap and are not counted here. *)
let cpu_run_minor_words = 349

let cpu_run_gate () =
  let k = Workloads.find "nn" in
  let machine = Kernel.prepare k (Main_memory.create ()) in
  let hierarchy = Hierarchy.create Hierarchy.default_config in
  let r, minor, _ =
    allocated (fun () -> Cpu_run.run ~hierarchy k.Kernel.program machine)
  in
  let instrs = r.Cpu_run.summary.Ooo_model.instructions in
  check Alcotest.int "nn retires its pinned instruction count" 53_248 instrs;
  if minor > budget cpu_run_minor_words then
    Alcotest.failf
      "Cpu_run.run nn allocated %d minor words (%.4f per instruction), budget %d \
       (measured %d + 10%%)"
      minor
      (float_of_int minor /. float_of_int instrs)
      (budget cpu_run_minor_words) cpu_run_minor_words

(* One warm event-engine execution of kmeans at M-128 on its optimized
   configuration (the contention tables come from the scratch pool a first
   execution filled). A fired node allocates nothing, so the count is the
   execution's setup: its compiled tables and stats registry. *)
let engine_minor_words = 34_255

let engine_gate () =
  let k = Workloads.find "kmeans" in
  let grid = Grid.m128 in
  let dfg = Runner.dfg_of_kernel k in
  match Runner.placement_of ~grid k with
  | Error e -> Alcotest.fail e
  | Ok placement ->
    let config = Runner.optimized_config ~k ~dfg ~grid placement in
    let execute () =
      let machine = Kernel.prepare k (Main_memory.create ()) in
      let hier = Hierarchy.create Hierarchy.default_config in
      fun () -> Engine.execute ~engine:`Event ~config ~dfg ~machine ~hier ()
    in
    ignore ((execute ()) ());
    let run = execute () in
    (match allocated run with
    | Ok r, minor, _ ->
      check Alcotest.int "kmeans cycles" 6_268 r.Engine.cycles;
      if minor > budget engine_minor_words then
        Alcotest.failf
          "warm kmeans Engine.execute allocated %d minor words (%.1f per cycle), \
           budget %d (measured %d + 10%%)"
          minor
          (float_of_int minor /. float_of_int r.Engine.cycles)
          (budget engine_minor_words) engine_minor_words
    | Error e, _, _ -> Alcotest.fail e)

let suites =
  [
    ( "allocation",
      [
        Alcotest.test_case "gate: words per Hierarchy.create" `Quick
          hierarchy_create_gate;
        Alcotest.test_case "gate: minor words per retired instruction (nn)" `Quick
          cpu_run_gate;
        Alcotest.test_case "gate: minor words per warm kmeans execution" `Quick
          engine_gate;
      ] );
  ]
