type point = {
  kernel : string;
  rows : int;
  cols : int;
  mem_ports : int;
  kind : Interconnect.kind;
  l1_kb : int;
  l2_kb : int;
}

type outcome = {
  point : point;
  mapped : bool;
  reject : string option;
  cycles : int;
  iterations : int;
  energy_nj : float;
  power_w : float;
  area_mm2 : float;
  perf : float;
  perf_per_watt : float;
}

type spec = {
  kernels : string list;
  grids : (int * int) list;
  ports : int list;
  kinds : Interconnect.kind list;
  l1_kb : int list;
  l2_kb : int list;
  budget : int option;
}

type strategy = Exhaustive | Guided

type defect = Inverted_rank

let strategy_to_string = function
  | Exhaustive -> "exhaustive"
  | Guided -> "guided"

let strategy_of_string = function
  | "exhaustive" -> Ok Exhaustive
  | "guided" -> Ok Guided
  | s -> Error (Printf.sprintf "unknown strategy %S (exhaustive|guided)" s)

let kind_to_string = function
  | Interconnect.Mesh_noc -> "mesh_noc"
  | Interconnect.Hierarchical_rows -> "hier_rows"
  | Interconnect.Pure_mesh -> "pure_mesh"

let kind_of_string = function
  | "mesh_noc" -> Ok Interconnect.Mesh_noc
  | "hier_rows" -> Ok Interconnect.Hierarchical_rows
  | "pure_mesh" -> Ok Interconnect.Pure_mesh
  | s -> Error (Printf.sprintf "unknown interconnect %S (mesh_noc|hier_rows|pure_mesh)" s)

let point_label (p : point) =
  Printf.sprintf "%s@%dx%d p%d %s L1:%dK L2:%dK" p.kernel p.rows p.cols
    p.mem_ports (kind_to_string p.kind) p.l1_kb p.l2_kb

let default_spec =
  {
    kernels = [ "nn"; "kmeans"; "bfs" ];
    grids = [ (4, 4); (8, 4); (8, 8); (16, 8) ];
    ports = [ 2; 4; 8 ];
    kinds = [ Interconnect.Mesh_noc ];
    l1_kb = [ 64 ];
    l2_kb = [ 8192 ];
    budget = None;
  }

(* Deduplicate preserving first-occurrence order: the axes must be sets for
   lattice indices to be well-defined, but the user's order is the
   enumeration order. *)
let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let axes_of_spec s =
  ( Array.of_list (dedup s.kernels),
    Array.of_list (dedup s.grids),
    Array.of_list (dedup s.ports),
    Array.of_list (dedup s.kinds),
    Array.of_list (dedup s.l1_kb),
    Array.of_list (dedup s.l2_kb) )

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate_spec s =
  let ( let* ) = Result.bind in
  let nonempty name = function
    | [] -> Error (Printf.sprintf "spec: %s axis is empty" name)
    | _ -> Ok ()
  in
  let* () = nonempty "kernels" s.kernels in
  let* () = nonempty "grids" s.grids in
  let* () = nonempty "ports" s.ports in
  let* () = nonempty "kinds" s.kinds in
  let* () = nonempty "l1" s.l1_kb in
  let* () = nonempty "l2" s.l2_kb in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        match Workloads.find name with
        | _ -> Ok ()
        | exception Not_found -> Error (Printf.sprintf "spec: unknown kernel %S" name))
      (Ok ()) s.kernels
  in
  let* () =
    List.fold_left
      (fun acc (r, c) ->
        let* () = acc in
        if r >= 1 && c >= 1 then Ok ()
        else Error (Printf.sprintf "spec: bad grid %dx%d" r c))
      (Ok ()) s.grids
  in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        if p >= 1 then Ok () else Error (Printf.sprintf "spec: bad port count %d" p))
      (Ok ()) s.ports
  in
  let* () =
    List.fold_left
      (fun acc kb ->
        let* () = acc in
        if is_pow2 kb then Ok ()
        else Error (Printf.sprintf "spec: L1/L2 capacity %d KB is not a power of two" kb))
      (Ok ()) (s.l1_kb @ s.l2_kb)
  in
  match s.budget with
  | Some b when b < 1 -> Error "spec: budget must be at least 1"
  | _ -> Ok ()

let points_of_spec s =
  let kernels, grids, ports, kinds, l1s, l2s = axes_of_spec s in
  let acc = ref [] in
  Array.iter
    (fun kernel ->
      Array.iter
        (fun (rows, cols) ->
          Array.iter
            (fun mem_ports ->
              Array.iter
                (fun kind ->
                  Array.iter
                    (fun l1_kb ->
                      Array.iter
                        (fun l2_kb ->
                          acc :=
                            { kernel; rows; cols; mem_ports; kind; l1_kb; l2_kb }
                            :: !acc)
                        l2s)
                    l1s)
                kinds)
            ports)
        grids)
    kernels;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Point measurement.                                                  *)

let grid_of_point (p : point) =
  Grid.make ~rows:p.rows ~cols:p.cols ~mem_ports:p.mem_ports
    ~name:(Printf.sprintf "G%dx%d" p.rows p.cols)
    ()

let hier_config_of_point (p : point) =
  let dc = Hierarchy.default_config in
  {
    dc with
    Hierarchy.l1 =
      Cache.config ~size_bytes:(p.l1_kb * 1024) ~ways:dc.Hierarchy.l1.Cache.ways
        ~line_bytes:dc.Hierarchy.l1.Cache.line_bytes
        ~hit_latency:dc.Hierarchy.l1.Cache.hit_latency;
    l2 =
      Cache.config ~size_bytes:(p.l2_kb * 1024) ~ways:dc.Hierarchy.l2.Cache.ways
        ~line_bytes:dc.Hierarchy.l2.Cache.line_bytes
        ~hit_latency:dc.Hierarchy.l2.Cache.hit_latency;
  }

let rejected (p : point) reason =
  {
    point = p;
    mapped = false;
    reject = Some reason;
    cycles = 0;
    iterations = 0;
    energy_nj = 0.0;
    power_w = 0.0;
    area_mm2 = 0.0;
    perf = 0.0;
    perf_per_watt = 0.0;
  }

let evaluate (p : point) =
  let k = Workloads.find p.kernel in
  let grid = grid_of_point p in
  let dfg = Runner.dfg_of_kernel k in
  match Runner.placement_of ~kind:p.kind ~grid k with
  | Error e -> rejected p e
  | Ok placement -> (
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
    let hier = Hierarchy.create (hier_config_of_point p) in
    match Engine.execute ~config ~dfg ~machine ~hier () with
    | Error e -> rejected p e
    | Ok res ->
      let cycles = max 1 res.Engine.cycles in
      let breakdown = Energy_model.accel_energy ~grid res.Engine.activity in
      let energy_nj = breakdown.Energy_model.total_nj in
      (* nJ per cycle at the nominal 2 GHz clock is 2 W per unit. *)
      let power_w = 2.0 *. energy_nj /. float_of_int cycles in
      let area_mm2 = Area_model.total_area_mm2 (Area_model.accelerator ~grid) in
      let perf = 1000.0 *. float_of_int res.Engine.iterations /. float_of_int cycles in
      let perf_per_watt = if power_w > 0.0 then perf /. power_w else 0.0 in
      {
        point = p;
        mapped = true;
        reject = None;
        cycles = res.Engine.cycles;
        iterations = res.Engine.iterations;
        energy_nj;
        power_w;
        area_mm2;
        perf;
        perf_per_watt;
      })

(* ------------------------------------------------------------------ *)
(* Pareto frontier over (perf, perf-per-watt), both maximized.         *)

let dominates a b =
  a.perf >= b.perf && a.perf_per_watt >= b.perf_per_watt
  && (a.perf > b.perf || a.perf_per_watt > b.perf_per_watt)

let frontier outs =
  List.filter
    (fun o -> o.mapped && not (List.exists (fun x -> x.mapped && dominates x o) outs))
    outs

let ranked outs =
  List.stable_sort
    (fun a b ->
      match compare b.mapped a.mapped with
      | 0 -> (
        match compare b.perf a.perf with
        | 0 -> (
          match compare b.perf_per_watt a.perf_per_watt with
          | 0 -> compare (point_label a.point) (point_label b.point)
          | c -> c)
        | c -> c)
      | c -> c)
    outs

(* ------------------------------------------------------------------ *)
(* Checkpoint serialization. Floats print with 17 significant digits
   (Json.to_string), so decode∘encode is the identity and a frontier over
   restored outcomes is bit-identical to one over fresh measurements.     *)

let point_to_json (p : point) =
  Json.Assoc
    [
      ("kernel", Json.String p.kernel);
      ("rows", Json.Int p.rows);
      ("cols", Json.Int p.cols);
      ("ports", Json.Int p.mem_ports);
      ("kind", Json.String (kind_to_string p.kind));
      ("l1_kb", Json.Int p.l1_kb);
      ("l2_kb", Json.Int p.l2_kb);
    ]

let json_err fmt = Printf.ksprintf (fun s -> Error s) fmt

let get_int name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some i -> Ok i
  | None -> json_err "missing int field %S" name

let get_float name j =
  match Option.bind (Json.member name j) Json.to_float with
  | Some f -> Ok f
  | None -> json_err "missing float field %S" name

let get_string name j =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some s -> Ok s
  | None -> json_err "missing string field %S" name

let point_of_json j =
  let ( let* ) = Result.bind in
  let* kernel = get_string "kernel" j in
  let* rows = get_int "rows" j in
  let* cols = get_int "cols" j in
  let* mem_ports = get_int "ports" j in
  let* kind = Result.bind (get_string "kind" j) kind_of_string in
  let* l1_kb = get_int "l1_kb" j in
  let* l2_kb = get_int "l2_kb" j in
  Ok { kernel; rows; cols; mem_ports; kind; l1_kb; l2_kb }

let outcome_to_json o =
  Json.Assoc
    [
      ("point", point_to_json o.point);
      ("mapped", Json.Bool o.mapped);
      ("reject", match o.reject with None -> Json.Null | Some r -> Json.String r);
      ("cycles", Json.Int o.cycles);
      ("iterations", Json.Int o.iterations);
      ("energy_nj", Json.Float o.energy_nj);
      ("power_w", Json.Float o.power_w);
      ("area_mm2", Json.Float o.area_mm2);
      ("perf", Json.Float o.perf);
      ("perf_per_watt", Json.Float o.perf_per_watt);
    ]

let outcome_of_json j =
  let ( let* ) = Result.bind in
  let* point =
    match Json.member "point" j with
    | Some pj -> point_of_json pj
    | None -> Error "outcome without point"
  in
  let* mapped =
    match Json.member "mapped" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "outcome without mapped flag"
  in
  let reject =
    match Json.member "reject" j with Some (Json.String r) -> Some r | _ -> None
  in
  let* cycles = get_int "cycles" j in
  let* iterations = get_int "iterations" j in
  let* energy_nj = get_float "energy_nj" j in
  let* power_w = get_float "power_w" j in
  let* area_mm2 = get_float "area_mm2" j in
  let* perf = get_float "perf" j in
  let* perf_per_watt = get_float "perf_per_watt" j in
  Ok
    {
      point;
      mapped;
      reject;
      cycles;
      iterations;
      energy_nj;
      power_w;
      area_mm2;
      perf;
      perf_per_watt;
    }

let spec_to_json s =
  Json.Assoc
    [
      ("kernels", Json.List (List.map (fun k -> Json.String k) s.kernels));
      ( "grids",
        Json.List
          (List.map (fun (r, c) -> Json.List [ Json.Int r; Json.Int c ]) s.grids) );
      ("ports", Json.List (List.map (fun p -> Json.Int p) s.ports));
      ("kinds", Json.List (List.map (fun k -> Json.String (kind_to_string k)) s.kinds));
      ("l1_kb", Json.List (List.map (fun k -> Json.Int k) s.l1_kb));
      ("l2_kb", Json.List (List.map (fun k -> Json.Int k) s.l2_kb));
      ("budget", match s.budget with None -> Json.Null | Some b -> Json.Int b);
    ]

let spec_of_json j =
  let ( let* ) = Result.bind in
  let get_list name conv =
    match Option.bind (Json.member name j) Json.to_list with
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* v = conv item in
          Ok (v :: acc))
        (Ok []) items
      |> Result.map List.rev
    | None -> json_err "spec: missing list %S" name
  in
  let* kernels =
    get_list "kernels" (function Json.String s -> Ok s | _ -> Error "bad kernel")
  in
  let* grids =
    get_list "grids" (function
      | Json.List [ Json.Int r; Json.Int c ] -> Ok (r, c)
      | _ -> Error "bad grid")
  in
  let* ports =
    get_list "ports" (function Json.Int p -> Ok p | _ -> Error "bad port")
  in
  let* kinds =
    get_list "kinds" (function
      | Json.String s -> kind_of_string s
      | _ -> Error "bad kind")
  in
  let* l1_kb = get_list "l1_kb" (function Json.Int k -> Ok k | _ -> Error "bad l1") in
  let* l2_kb = get_list "l2_kb" (function Json.Int k -> Ok k | _ -> Error "bad l2") in
  let budget =
    match Json.member "budget" j with Some (Json.Int b) -> Some b | _ -> None
  in
  Ok { kernels; grids; ports; kinds; l1_kb; l2_kb; budget }

let checkpoint_to_json ?(strategy = Exhaustive) spec outcomes =
  Json.Assoc
    (("version", Json.Int 1)
     ::
     (* The strategy field extends the v1 schema compatibly: absent means
        exhaustive, so checkpoints written before guided search existed
        (and exhaustive ones written today) keep their exact byte format. *)
     (match strategy with
     | Exhaustive -> []
     | Guided -> [ ("strategy", Json.String (strategy_to_string strategy)) ])
    @ [
        ("spec", spec_to_json spec);
        ("outcomes", Json.List (List.map outcome_to_json outcomes));
      ])

let checkpoint_of_json j =
  let ( let* ) = Result.bind in
  let* () =
    match Option.bind (Json.member "version" j) Json.to_int with
    | Some 1 -> Ok ()
    | Some v -> json_err "unsupported checkpoint version %d" v
    | None -> Error "checkpoint without version"
  in
  let* strategy =
    match Json.member "strategy" j with
    | None -> Ok Exhaustive
    | Some (Json.String s) -> strategy_of_string s
    | Some _ -> Error "checkpoint with malformed strategy"
  in
  let* spec =
    match Json.member "spec" j with
    | Some sj -> spec_of_json sj
    | None -> Error "checkpoint without spec"
  in
  let* outcomes =
    match Option.bind (Json.member "outcomes" j) Json.to_list with
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* o = outcome_of_json item in
          Ok (o :: acc))
        (Ok []) items
      |> Result.map List.rev
    | None -> Error "checkpoint without outcomes"
  in
  Ok (spec, strategy, outcomes)

let write_checkpoint ?strategy path spec outcomes =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string ~indent:2 (checkpoint_to_json ?strategy spec outcomes));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Budgeted greedy exploration: deterministic seeds, then expansion to
   the lattice neighbours of the current frontier.                     *)

let index_of arr v =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if arr.(i) = v then Some i else go (i + 1) in
  go 0

let seeds_of_axes (kernels, grids, ports, kinds, l1s, l2s) =
  let mid a = (Array.length a - 1) / 2 in
  let last a = Array.length a - 1 in
  let point ik (ig, ip, ikd, i1, i2) =
    let rows, cols = grids.(ig) in
    {
      kernel = kernels.(ik);
      rows;
      cols;
      mem_ports = ports.(ip);
      kind = kinds.(ikd);
      l1_kb = l1s.(i1);
      l2_kb = l2s.(i2);
    }
  in
  let per_kernel ik =
    [
      point ik (0, 0, 0, 0, 0);
      point ik (last grids, last ports, last kinds, last l1s, last l2s);
      point ik (mid grids, mid ports, mid kinds, mid l1s, mid l2s);
    ]
  in
  List.concat_map per_kernel (List.init (Array.length kernels) Fun.id) |> dedup

let neighbours_of_point ((kernels, grids, ports, kinds, l1s, l2s) as _axes) p =
  match
    ( index_of kernels p.kernel,
      index_of grids (p.rows, p.cols),
      index_of ports p.mem_ports,
      index_of kinds p.kind,
      index_of l1s p.l1_kb,
      index_of l2s p.l2_kb )
  with
  | Some _, Some ig, Some ip, Some ikd, Some i1, Some i2 ->
    let mk (ig, ip, ikd, i1, i2) =
      let rows, cols = grids.(ig) in
      { p with rows; cols; mem_ports = ports.(ip); kind = kinds.(ikd);
               l1_kb = l1s.(i1); l2_kb = l2s.(i2) }
    in
    let dim len i delta = let j = i + delta in if j >= 0 && j < len then Some j else None in
    List.filter_map Fun.id
      [
        Option.map (fun j -> mk (j, ip, ikd, i1, i2)) (dim (Array.length grids) ig (-1));
        Option.map (fun j -> mk (j, ip, ikd, i1, i2)) (dim (Array.length grids) ig 1);
        Option.map (fun j -> mk (ig, j, ikd, i1, i2)) (dim (Array.length ports) ip (-1));
        Option.map (fun j -> mk (ig, j, ikd, i1, i2)) (dim (Array.length ports) ip 1);
        Option.map (fun j -> mk (ig, ip, j, i1, i2)) (dim (Array.length kinds) ikd (-1));
        Option.map (fun j -> mk (ig, ip, j, i1, i2)) (dim (Array.length kinds) ikd 1);
        Option.map (fun j -> mk (ig, ip, ikd, j, i2)) (dim (Array.length l1s) i1 (-1));
        Option.map (fun j -> mk (ig, ip, ikd, j, i2)) (dim (Array.length l1s) i1 1);
        Option.map (fun j -> mk (ig, ip, ikd, i1, j)) (dim (Array.length l2s) i2 (-1));
        Option.map (fun j -> mk (ig, ip, ikd, i1, j)) (dim (Array.length l2s) i2 1);
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Guided search surrogate: the analytical cost model prices a lattice
   point without running the engine, so ranking the whole lattice costs
   about as much as measuring one point.                                *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let rec drop n = function
  | l when n <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (n - 1) tl

(* The model only needs enough iterations to rank points; past the steady
   state every estimate rescales by the same II. *)
let surrogate_horizon (k : Kernel.t) = min (max 1 k.Kernel.n) 128

(* Model cycles-per-iteration of a point, plus everything needed to price
   its energy. [Error] when the mapper rejects the point outright. *)
let model_of_point (p : point) =
  let k = Workloads.find p.kernel in
  let grid = grid_of_point p in
  let dfg = Runner.dfg_of_kernel k in
  match Runner.placement_of ~kind:p.kind ~grid k with
  | Error e -> Error e
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
    let h = surrogate_horizon k in
    let est = Cost_model.estimate ~config ~dfg ~iterations:h () in
    Ok (float_of_int est.Cost_model.cycles /. float_of_int h, config, dfg, grid, h)

(* Surrogate (perf, perf/W) mirroring [evaluate]'s derivations with model
   quantities. The model prices every access at the L1 hit latency, so
   [scale] — measured-over-model cycles-per-iteration on the kernel's seed
   point — absorbs that kernel's average miss penalty. *)
let predict_point ~scale (p : point) =
  match model_of_point p with
  | Error e -> Error e
  | Ok (cpi, config, dfg, grid, h) ->
    let cpi = cpi *. scale in
    let cycles = max 1 (int_of_float (Float.ceil (cpi *. float_of_int h))) in
    let act = Cost_model.predicted_activity ~config ~dfg ~iterations:h ~cycles in
    let energy_nj = (Energy_model.accel_energy ~grid act).Energy_model.total_nj in
    let power_w = 2.0 *. energy_nj /. float_of_int cycles in
    let perf = 1000.0 /. cpi in
    let perf_per_watt = if power_w > 0.0 then perf /. power_w else 0.0 in
    Ok (perf, perf_per_watt)

(* ------------------------------------------------------------------ *)
(* The explorer.                                                       *)

type result = {
  spec : spec;
  strategy : strategy;
  outcomes : outcome list;
  front : outcome list;
  complete : bool;
  evaluated : int;
  measured : int;
  exhaustive_count : int;
  restored : int;
  stats : Stats.snapshot;
  timeline : Trace.span list;
}

let load_checkpoint ~strategy ~resume ~checkpoint spec =
  if not resume then Ok []
  else
    match checkpoint with
    | None -> Error "resume requires a checkpoint path"
    | Some path when not (Sys.file_exists path) -> Ok []
    | Some path -> (
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Result.bind (Json.of_string text) checkpoint_of_json with
      | Error e -> Error (Printf.sprintf "checkpoint %s: %s" path e)
      | Ok (sp, st, outs) ->
        if sp <> spec then
          Error (Printf.sprintf "checkpoint %s was produced by a different spec" path)
        else if st <> strategy then
          Error
            (Printf.sprintf "checkpoint %s was produced by the %s strategy" path
               (strategy_to_string st))
        else Ok outs)

let run ?jobs ?checkpoint ?(resume = false) ?stop_after ?(strategy = Exhaustive)
    ?defect spec =
  let ( let* ) = Result.bind in
  let* () = validate_spec spec in
  let* () =
    match (strategy, spec.budget) with
    | Guided, Some _ ->
      Error "spec: the guided strategy sets its own budget; drop the spec's"
    | _ -> Ok ()
  in
  let* prior = load_checkpoint ~strategy ~resume ~checkpoint spec in
  let known : (point, outcome) Hashtbl.t = Hashtbl.create 97 in
  List.iter (fun o -> Hashtbl.replace known o.point o) prior;
  let all_points = points_of_spec spec in
  let exhaustive_count = List.length all_points in
  let reg = Stats.registry () in
  let grp = Stats.group reg "dse" in
  let c_eval = Stats.counter ~desc:"points measured fresh by this run" grp "points_evaluated" in
  let c_hits = Stats.counter ~desc:"points restored from the checkpoint" grp "cache_hits" in
  let c_rej = Stats.counter ~desc:"points whose mapping or execution was rejected" grp "points_rejected" in
  let c_meas = Stats.counter ~desc:"engine runs that mapped (fresh or restored)" grp "points_measured" in
  let c_batches = Stats.counter ~desc:"guided halving batches dispatched" grp "guided_batches" in
  Stats.int_probe ~desc:"full lattice size" grp "exhaustive_count"
    (fun () -> exhaustive_count);
  let outcomes_rev = ref [] in
  Stats.int_probe ~desc:"non-dominated points at readout" grp "frontier_size"
    (fun () -> List.length (frontier (List.rev !outcomes_rev)));
  let timeline = ref [] in
  let clock = ref 0 in
  let fresh = ref 0 in
  let stopped = ref false in
  let append ~was_restored o =
    outcomes_rev := o :: !outcomes_rev;
    if was_restored then Stats.incr c_hits
    else begin
      Stats.incr c_eval;
      incr fresh
    end;
    if o.mapped then Stats.incr c_meas else Stats.incr c_rej;
    timeline :=
      Trace.span ~cat:"dse" ~ts:!clock ~dur:(max 0 o.cycles)
        ~args:
          [
            ("cycles", Json.Int o.cycles);
            ("mapped", Json.Bool o.mapped);
            ("perf", Json.Float o.perf);
          ]
        (point_label o.point)
      :: !timeline;
    clock := !clock + max 1 o.cycles;
    (match checkpoint with
    | Some path -> write_checkpoint ~strategy path spec (List.rev !outcomes_rev)
    | None -> ());
    match stop_after with
    | Some k when !fresh >= k -> stopped := true
    | _ -> ()
  in
  Pool.with_pool ?jobs (fun pool ->
      (* Evaluate a batch: restored points replay from the checkpoint, fresh
         ones fan out over the pool; results are appended in batch order, so
         the checkpoint always holds a prefix of the deterministic assembly
         order. Returns false once [stop_after] has cut the run short. *)
      let eval_batch batch =
        let slots =
          List.map
            (fun p ->
              match Hashtbl.find_opt known p with
              | Some o -> `Restored o
              | None -> `Fut (Pool.submit pool (fun () -> evaluate p)))
            batch
        in
        List.iter
          (fun slot ->
            if not !stopped then
              match slot with
              | `Restored o -> append ~was_restored:true o
              | `Fut f ->
                let o = Pool.await f in
                Hashtbl.replace known o.point o;
                append ~was_restored:false o)
          slots;
        not !stopped
      in
      match (strategy, spec.budget) with
      | Exhaustive, None -> ignore (eval_batch all_points)
      | Guided, _ ->
        (* Surrogate-ranked successive halving. One engine-measured seed per
           kernel calibrates the model's cycles-per-iteration; the model
           then prices every remaining point, candidates are ranked by the
           better of their two objective ranks, and batches of shrinking
           size are measured until every unmeasured candidate is dominated
           beyond the model's observed error, or the hard cap — half the
           lattice — is reached. Every ordering ties off on point labels,
           so the schedule is deterministic at any [jobs] and replays
           identically from a checkpoint. *)
        let cap = (exhaustive_count + 1) / 2 in
        let measured () =
          List.fold_left (fun n o -> if o.mapped then n + 1 else n) 0 !outcomes_rev
        in
        let scheduled = Hashtbl.create 97 in
        let sched p = Hashtbl.replace scheduled p () in
        let go = ref true in
        (* Seeds: per kernel, walk the lattice in enumeration order until a
           point maps, and calibrate on it. *)
        let calib : (string, float) Hashtbl.t = Hashtbl.create 7 in
        List.iter
          (fun kernel ->
            let rec walk = function
              | [] -> ()
              | p :: tl ->
                if !go then begin
                  sched p;
                  go := eval_batch [ p ];
                  match Hashtbl.find_opt known p with
                  | Some o when o.mapped -> (
                    match model_of_point p with
                    | Ok (cpi, _, _, _, _) when cpi > 0.0 ->
                      let meas =
                        float_of_int o.cycles
                        /. float_of_int (max 1 o.iterations)
                      in
                      Hashtbl.replace calib kernel (meas /. cpi)
                    | _ -> ())
                  | _ -> walk tl
                end
            in
            walk (List.filter (fun p -> p.kernel = kernel) all_points))
          (dedup spec.kernels);
        (* Price the rest of the lattice. Points the mapper rejects cost no
           engine time — record them outright so the reject column still
           covers the whole lattice. *)
        let unmappable = ref [] in
        let cands = ref [] in
        List.iter
          (fun p ->
            if not (Hashtbl.mem scheduled p) then
              match Hashtbl.find_opt calib p.kernel with
              | None -> ()
              | Some scale -> (
                match predict_point ~scale p with
                | Error _ -> unmappable := p :: !unmappable
                | Ok (perf, ppw) -> cands := (p, perf, ppw) :: !cands))
          all_points;
        (match List.rev !unmappable with
        | [] -> ()
        | rj ->
          List.iter sched rj;
          if !go then go := eval_batch rj);
        let cands = List.rev !cands in
        (* Rank: a point's key is the better of its positions in the
           perf-descending and perf/W-descending orders, so both frontier
           extremes surface early. *)
        let arr = Array.of_list cands in
        let n = Array.length arr in
        let rank cmp =
          let idx = Array.init n Fun.id in
          Array.sort (fun i j -> cmp arr.(i) arr.(j)) idx;
          let r = Array.make n 0 in
          Array.iteri (fun pos i -> r.(i) <- pos) idx;
          r
        in
        let lbl (p, _, _) = point_label p in
        let desc pr a b =
          match compare (pr b) (pr a) with 0 -> compare (lbl a) (lbl b) | c -> c
        in
        let rp = rank (desc (fun (_, f, _) -> f)) in
        let rw = rank (desc (fun (_, _, w) -> w)) in
        let keyed =
          Array.mapi
            (fun i ((p, f, _) as c) ->
              ((min rp.(i) rw.(i), -.f, point_label p), c))
            arr
        in
        Array.sort compare keyed;
        let order = Array.to_list (Array.map snd keyed) in
        let order =
          match defect with Some Inverted_rank -> List.rev order | None -> order
        in
        (* τ-dominance pruning: drop a candidate once a measurement beats
           its prediction by more than the model's worst observed relative
           error (floored at 10%) on both objectives. *)
        let predictions = Hashtbl.create 97 in
        List.iter (fun (p, f, w) -> Hashtbl.replace predictions p (f, w)) cands;
        let tau () =
          List.fold_left
            (fun t o ->
              if not o.mapped then t
              else
                match Hashtbl.find_opt predictions o.point with
                | Some (f, _) when o.perf > 0.0 ->
                  Float.max t (Float.abs (o.perf -. f) /. o.perf)
                | _ -> t)
            0.10 !outcomes_rev
        in
        let dominated t (f, w) =
          let fo = f *. (1.0 +. t) and wo = w *. (1.0 +. t) in
          List.exists
            (fun o -> o.mapped && o.perf > fo && o.perf_per_watt > wo)
            !outcomes_rev
        in
        let rec halve queue width =
          if !go && queue <> [] then begin
            let t = tau () in
            let queue =
              List.filter (fun (_, f, w) -> not (dominated t (f, w))) queue
            in
            let room = cap - measured () in
            if queue <> [] && room > 0 then begin
              let sz = max 1 (min width (min room (List.length queue))) in
              let batch = take sz queue in
              Stats.incr c_batches;
              List.iter (fun (p, _, _) -> sched p) batch;
              go := eval_batch (List.map (fun (p, _, _) -> p) batch);
              halve (drop sz queue) (max 1 (width / 2))
            end
          end
        in
        halve order (max 1 ((List.length order + 3) / 4))
      | Exhaustive, Some budget ->
        let axes = axes_of_spec spec in
        let scheduled = Hashtbl.create 97 in
        let total = ref 0 in
        let rec round batch =
          let batch =
            List.filter (fun p -> not (Hashtbl.mem scheduled p)) (dedup batch)
          in
          let room = budget - !total in
          if room > 0 && batch <> [] then begin
            let chosen = take room batch in
            List.iter (fun p -> Hashtbl.replace scheduled p ()) chosen;
            total := !total + List.length chosen;
            if eval_batch chosen then
              let front = frontier (List.rev !outcomes_rev) in
              let next =
                List.concat_map (fun o -> neighbours_of_point axes o.point) front
                |> List.sort_uniq compare
              in
              round next
          end
        in
        round (seeds_of_axes axes));
  let outcomes = List.rev !outcomes_rev in
  Ok
    {
      spec;
      strategy;
      outcomes;
      front = frontier outcomes;
      complete = not !stopped;
      evaluated = !fresh;
      measured =
        List.fold_left (fun n o -> if o.mapped then n + 1 else n) 0 outcomes;
      exhaustive_count;
      restored = List.length outcomes - !fresh;
      stats = Stats.snapshot reg;
      timeline = List.rev !timeline;
    }

let result_to_json r =
  Json.Assoc
    [
      ("spec", spec_to_json r.spec);
      ("strategy", Json.String (strategy_to_string r.strategy));
      ("exhaustive_count", Json.Int r.exhaustive_count);
      ("measured", Json.Int r.measured);
      ("outcomes", Json.List (List.map outcome_to_json r.outcomes));
      ("frontier", Json.List (List.map outcome_to_json r.front));
    ]

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let table ?top r =
  let t =
    Tables.create ~title:"Design-space exploration (ranked; * = Pareto frontier)"
      [
        ("", Tables.Left);
        ("kernel", Tables.Left);
        ("grid", Tables.Left);
        ("ports", Tables.Right);
        ("interconnect", Tables.Left);
        ("L1 KB", Tables.Right);
        ("L2 KB", Tables.Right);
        ("cycles", Tables.Right);
        ("perf (it/kc)", Tables.Right);
        ("perf/W", Tables.Right);
        ("energy (uJ)", Tables.Right);
        ("area (mm2)", Tables.Right);
        ("outcome", Tables.Left);
      ]
  in
  let on_front o = List.exists (fun f -> f.point = o.point) r.front in
  let rows = ranked r.outcomes in
  let rows = match top with None -> rows | Some n -> List.filteri (fun i _ -> i < n) rows in
  List.iter
    (fun o ->
      Tables.add_row t
        [
          (if on_front o then "*" else "");
          o.point.kernel;
          Printf.sprintf "%dx%d" o.point.rows o.point.cols;
          string_of_int o.point.mem_ports;
          kind_to_string o.point.kind;
          string_of_int o.point.l1_kb;
          string_of_int o.point.l2_kb;
          (if o.mapped then Tables.icell o.cycles else "-");
          (if o.mapped then Tables.fcell o.perf else "-");
          (if o.mapped then Tables.fcell o.perf_per_watt else "-");
          (if o.mapped then Tables.fcell (o.energy_nj /. 1000.0) else "-");
          (if o.mapped then Tables.fcell o.area_mm2 else "-");
          (match o.reject with None -> "ok" | Some why -> "rejected: " ^ why);
        ])
    rows;
  t

let experiment ?jobs () =
  let spec =
    {
      kernels = [ "nn"; "kmeans" ];
      grids = [ (4, 4); (8, 4); (8, 8); (16, 8) ];
      ports = [ 2; 8 ];
      kinds = [ Interconnect.Mesh_noc ];
      l1_kb = [ 64 ];
      l2_kb = [ 8192 ];
      budget = None;
    }
  in
  match run ?jobs spec with
  | Error e -> failwith ("dse experiment: " ^ e)
  | Ok r ->
    let best f = List.fold_left (fun acc o -> Float.max acc (f o)) 0.0 r.outcomes in
    {
      Experiments.table = table r;
      summary =
        [
          ("points", float_of_int (List.length r.outcomes));
          ("frontier_size", float_of_int (List.length r.front));
          ("best_perf", best (fun o -> o.perf));
          ("best_perf_per_watt", best (fun o -> o.perf_per_watt));
        ];
    }

let guided_experiment ?jobs () =
  let spec =
    {
      kernels = [ "nn"; "kmeans" ];
      grids = [ (4, 4); (8, 4); (8, 8); (16, 8) ];
      ports = [ 2; 8 ];
      kinds = [ Interconnect.Mesh_noc ];
      l1_kb = [ 64 ];
      l2_kb = [ 8192 ];
      budget = None;
    }
  in
  match (run ?jobs spec, run ?jobs ~strategy:Guided spec) with
  | Error e, _ | _, Error e -> failwith ("guided dse experiment: " ^ e)
  | Ok ex, Ok gd ->
    let labels r =
      List.sort compare (List.map (fun o -> point_label o.point) r.front)
    in
    {
      Experiments.table = table gd;
      summary =
        [
          ("exhaustive_measured", float_of_int ex.measured);
          ("guided_measured", float_of_int gd.measured);
          ( "evaluated_fraction",
            float_of_int gd.measured /. float_of_int (max 1 gd.exhaustive_count) );
          ("frontier_match", if labels ex = labels gd then 1.0 else 0.0);
        ];
    }
