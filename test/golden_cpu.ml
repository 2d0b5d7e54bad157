(* Golden CPU-model pin: for every registry kernel, the full OoO summary of
   the single-core baseline, the cycles and per-core summaries of the
   16-core baseline, and each run's per-level cache counts. The runs mirror
   [Runner.single_core] and [Runner.multicore] step for step, with the
   hierarchies held here so their counters can be read; the cycles of both
   are cross-checked against the Runner measurements. The dune rule diffs
   this program's output against the checked-in golden_cpu.json, so any
   drift in the interpreter, the timing model or the cache model fails
   `dune runtest`.

   To regenerate after an intentional change:

     dune runtest; dune promote *)

let fields =
  [ "cycles"; "instructions"; "mispredicts"; "loads"; "stores"; "int_ops";
    "fp_ops"; "branches"; "load_latency_sum"; "rob_stalls"; "fetch_refills" ]

let summary_line (s : Ooo_model.summary) =
  String.concat " "
    (List.map2 (Printf.sprintf "%s=%d") fields
       [ s.Ooo_model.cycles; s.Ooo_model.instructions; s.Ooo_model.mispredicts;
         s.Ooo_model.loads; s.Ooo_model.stores; s.Ooo_model.int_ops;
         s.Ooo_model.fp_ops; s.Ooo_model.branches; s.Ooo_model.load_latency_sum;
         s.Ooo_model.rob_stalls; s.Ooo_model.fetch_refills ])

(* The same line read back from a Runner measurement's stats snapshot. *)
let snapshot_line snap group =
  String.concat " "
    (List.map
       (fun f ->
         match Stats.find_int snap (group ^ "." ^ f) with
         | Some v -> Printf.sprintf "%s=%d" f v
         | None -> failwith ("missing " ^ group ^ "." ^ f))
       fields)

let levels_line h =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Hierarchy.level_counts h))

let agree name what ~runner ~here =
  if runner <> here then
    failwith (Printf.sprintf "%s %s: Runner %s, replay %s" name what runner here)

let single (k : Kernel.t) =
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let machine = Kernel.prepare_slice k mem ~lo:0 ~hi:k.Kernel.n in
  let hier = Hierarchy.create Hierarchy.default_config in
  let r = Cpu_run.run ~hierarchy:hier k.Kernel.program machine in
  agree k.Kernel.name "single"
    ~runner:(snapshot_line (Runner.single_core k).Runner.stats "cpu")
    ~here:(summary_line r.Cpu_run.summary);
  [
    ("single", Json.String (summary_line r.Cpu_run.summary));
    ("single_levels", Json.String (levels_line hier));
  ]

let cores = 16

let multi (k : Kernel.t) =
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let n = k.Kernel.n in
  let parallel = k.Kernel.parallel && cores > 1 in
  let runs =
    if not parallel then begin
      let hier = Hierarchy.create Hierarchy.default_config in
      let machine = Kernel.prepare_slice k mem ~lo:0 ~hi:n in
      [ (Cpu_run.run ~hierarchy:hier k.Kernel.program machine, hier) ]
    end
    else begin
      let slices =
        List.filter_map
          (fun tid ->
            let lo = n * tid / cores and hi = n * (tid + 1) / cores in
            if hi <= lo then None else Some (lo, hi))
          (List.init cores Fun.id)
      in
      let hiers =
        Hierarchy.create_shared Hierarchy.default_config ~cores:(List.length slices)
      in
      List.mapi
        (fun i (lo, hi) ->
          let machine = Kernel.prepare_slice k mem ~lo ~hi in
          (Cpu_run.run ~hierarchy:hiers.(i) k.Kernel.program machine, hiers.(i)))
        slices
    end
  in
  let cycles =
    List.fold_left (fun acc (r, _) -> max acc (Cpu_run.cycles r)) 0 runs
    + if parallel then Multicore.default_fork_join_cycles else 0
  in
  let m = Runner.multicore ~cores k in
  agree k.Kernel.name "multicore cycles" ~runner:(string_of_int m.Runner.cycles)
    ~here:(string_of_int cycles);
  List.iteri
    (fun i (r, _) ->
      agree k.Kernel.name (Printf.sprintf "core %d" i)
        ~runner:(snapshot_line m.Runner.stats (Printf.sprintf "cpu.core%d" i))
        ~here:(summary_line r.Cpu_run.summary))
    runs;
  [
    ("multicore_cycles", Json.Int cycles);
    ( "cores",
      Json.List
        (List.map
           (fun (r, h) ->
             Json.String (summary_line r.Cpu_run.summary ^ " | " ^ levels_line h))
           runs) );
  ]

let () =
  print_string
    (Json.to_string ~indent:2
       (Json.Assoc
          (List.map
             (fun (k : Kernel.t) -> (k.Kernel.name, Json.Assoc (single k @ multi k)))
             (Workloads.all ()))))
