type config = { window_rows : int; window_cols : int }

let default_config = { window_rows = 4; window_cols = 8 }

let map ?(config = default_config) ~(grid : Grid.t) ~kind (model : Perf_model.t) =
  let dfg = Perf_model.graph model in
  let n = Dfg.node_count dfg in
  let free = Array.make_matrix grid.Grid.rows grid.Grid.cols true in
  let ls_free = Array.make grid.Grid.ls_entries true in
  let assign = Array.make n (Placement.Ls (-1)) in
  let expected = Array.make n 0.0 in
  (* Dependencies that anchor and price a position: everything the engine
     will wait on. *)
  let deps_of j =
    let nd = dfg.Dfg.nodes.(j) in
    let ds = ref [] in
    Array.iter (function Dfg.Node i -> ds := i :: !ds | Dfg.Reg_in _ -> ()) nd.Dfg.srcs;
    (match nd.Dfg.hidden with Some (Dfg.Node i) -> ds := i :: !ds | _ -> ());
    List.iter (fun (b, _) -> ds := b :: !ds) nd.Dfg.guards;
    Option.iter (fun s -> ds := s :: !ds) nd.Dfg.prev_store;
    !ds
  in
  let coord_of_loc = function
    | Placement.Pe c -> c
    | Placement.Ls e -> Interconnect.ls_coord grid e
  in
  let transfer_to j_coord i =
    float_of_int (Interconnect.latency grid kind (coord_of_loc assign.(i)) j_coord)
  in
  (* expLatency of placing node j at [c] (lines 10-12 of Algorithm 1). *)
  let exp_latency j c =
    let op = Perf_model.op_latency model j in
    let arrival =
      List.fold_left
        (fun acc i -> Float.max acc (expected.(i) +. transfer_to c i))
        0.0 (deps_of j)
    in
    op +. arrival
  in
  let free_neighbours (c : Grid.coord) =
    let count = ref 0 in
    List.iter
      (fun (dr, dc) ->
        let r = c.Grid.row + dr and col = c.Grid.col + dc in
        if r >= 0 && r < grid.Grid.rows && col >= 0 && col < grid.Grid.cols && free.(r).(col)
        then incr count)
      [ (-1, 0); (1, 0); (0, -1); (0, 1) ];
    !count
  in
  (* Anchor of the candidate window: the placed dependency with the largest
     expected latency (it necessarily lies on the incoming critical path);
     with no placed dependency, continue near the previous placement. *)
  let last_placed = ref (Grid.coord 0 0) in
  let anchor j =
    match deps_of j with
    | [] -> !last_placed
    | deps ->
      let crit =
        List.fold_left (fun a i -> if expected.(i) > expected.(a) then i else a)
          (List.hd deps) deps
      in
      coord_of_loc assign.(crit)
  in
  let pick_best j candidates =
    let best = ref None in
    List.iter
      (fun c ->
        let cost = exp_latency j c in
        let better =
          match !best with
          | None -> true
          | Some (_, bcost, bnbr) ->
            cost < bcost -. 1e-9
            || (Float.abs (cost -. bcost) <= 1e-9 && free_neighbours c > bnbr)
        in
        if better then best := Some (c, cost, free_neighbours c))
      candidates;
    !best
  in
  let window_candidates j a =
    let cls = Isa.op_class dfg.Dfg.nodes.(j).Dfg.instr in
    let r0 = a.Grid.row - ((config.window_rows - 1) / 2) in
    let c0 = a.Grid.col - (config.window_cols / 2) in
    let cands = ref [] in
    for dr = 0 to config.window_rows - 1 do
      for dc = 0 to config.window_cols - 1 do
        let c = Grid.coord (r0 + dr) (c0 + dc) in
        if
          Grid.in_bounds grid c
          && free.(c.Grid.row).(c.Grid.col)
          && Grid.supports grid c cls
        then cands := c :: !cands
      done
    done;
    !cands
  in
  let global_candidates j =
    let cls = Isa.op_class dfg.Dfg.nodes.(j).Dfg.instr in
    let cands = ref [] in
    Grid.iter_coords grid (fun c ->
        if free.(c.Grid.row).(c.Grid.col) && Grid.supports grid c cls then
          cands := c :: !cands);
    !cands
  in
  let place_compute j =
    let a = anchor j in
    let chosen =
      match pick_best j (window_candidates j a) with
      | Some _ as b -> b
      | None -> pick_best j (global_candidates j)
    in
    match chosen with
    | None -> Error (Printf.sprintf "no free compatible PE for node %d" j)
    | Some (c, cost, _) ->
      free.(c.Grid.row).(c.Grid.col) <- false;
      assign.(j) <- Placement.Pe c;
      expected.(j) <- cost;
      last_placed := c;
      Ok ()
  in
  let place_memory j =
    let best = ref None in
    for e = 0 to grid.Grid.ls_entries - 1 do
      if ls_free.(e) then begin
        let cost = exp_latency j (Interconnect.ls_coord grid e) in
        match !best with
        | Some (_, bcost) when bcost <= cost -> ()
        | Some _ | None -> best := Some (e, cost)
      end
    done;
    match !best with
    | None -> Error (Printf.sprintf "no free load-store entry for node %d" j)
    | Some (e, cost) ->
      ls_free.(e) <- false;
      assign.(j) <- Placement.Ls e;
      expected.(j) <- cost;
      Ok ()
  in
  let rec go j =
    if j = n then Ok ()
    else
      let res =
        if Isa.is_memory dfg.Dfg.nodes.(j).Dfg.instr then place_memory j
        else place_compute j
      in
      match res with Ok () -> go (j + 1) | Error _ as e -> e
  in
  match go 0 with
  | Error _ as e -> e
  | Ok () ->
    let placement = Placement.make grid kind assign in
    (* Feed the analytic edge estimates back into the performance model. *)
    List.iter
      (fun (i, j, _) ->
        Perf_model.set_transfer_estimate model i j (Placement.transfer_f placement i j))
      (Dfg.edges dfg);
    (match Placement.validate dfg placement with
    | Ok () -> Ok placement
    | Error e -> Error ("mapper produced invalid placement: " ^ e))

(* ------------------------------------------------------------------ *)
(* Model-guided post-placement refinement.

   Algorithm 1 is greedy in program order: a node placed early can end up
   far from a consumer it turns out to bottleneck. [refine] walks the cost
   model's critical chain and proposes relocations (to a free compatible
   location) and swaps (with another placed node) for each chain node,
   ranks every legal candidate by the model's predicted cycles, and asks
   the engine to confirm the most promising ones. Only a strict,
   engine-confirmed improvement is accepted, so the result can never be
   worse than the input placement — the model steers, the engine decides. *)

type refinement = {
  placement : Placement.t;
  baseline_cycles : int;
  refined_cycles : int;
  rounds : int;
  proposed : int;
  confirmed : int;
  accepted : int;
}

let refine ?(seed = 0) ?(max_rounds = 8) ?(beam = 4)
    ~(predict : Placement.t -> Cost_model.t)
    ~(confirm : Placement.t -> int option) ~(dfg : Dfg.t) ~baseline_cycles
    (placement : Placement.t) =
  let grid = placement.Placement.grid in
  let kind = placement.Placement.kind in
  let n = Dfg.node_count dfg in
  let cls_of j = Isa.op_class dfg.Dfg.nodes.(j).Dfg.instr in
  (* Deterministic seeded tie-break for equal model scores: a per-candidate
     draw from a PRNG keyed on the seed and the candidate's identity, so
     the ranking is a pure function of (seed, candidate set) and immune to
     generation order. *)
  let tie descr = Prng.int (Prng.create (seed lxor Hashtbl.hash descr)) max_int in
  let current = ref placement in
  let current_cycles = ref baseline_cycles in
  let proposed = ref 0 in
  let confirmed = ref 0 in
  let accepted = ref 0 in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    continue_ := false;
    let est = predict !current in
    let assign = (!current).Placement.assign in
    (* Occupancy maps for the current placement. *)
    let pe_owner = Hashtbl.create 64 in
    let ls_owner = Array.make grid.Grid.ls_entries (-1) in
    Array.iteri
      (fun j -> function
        | Placement.Pe c -> Hashtbl.replace pe_owner (c.Grid.row, c.Grid.col) j
        | Placement.Ls e -> if e >= 0 && e < Array.length ls_owner then ls_owner.(e) <- j)
      assign;
    let cand_with j loc =
      let assign' = Array.copy assign in
      assign'.(j) <- loc;
      Placement.make grid kind assign'
    in
    let swap_with j j2 =
      let assign' = Array.copy assign in
      assign'.(j) <- assign.(j2);
      assign'.(j2) <- assign.(j);
      Placement.make grid kind assign'
    in
    (* [build] runs only for a description not seen before this round. *)
    let seen = Hashtbl.create 64 in
    let cands = ref [] in
    let add descr build =
      if not (Hashtbl.mem seen descr) then begin
        Hashtbl.replace seen descr ();
        let pl = build () in
        match Placement.validate dfg pl with
        | Ok () -> cands := (descr, pl) :: !cands
        | Error _ -> ()
      end
    in
    List.iter
      (fun j ->
        if j >= 0 && j < n then
          match assign.(j) with
          | Placement.Ls e ->
            for e' = 0 to grid.Grid.ls_entries - 1 do
              if e' <> e then
                if ls_owner.(e') < 0 then
                  add (`Move_ls (j, e')) (fun () -> cand_with j (Placement.Ls e'))
                else
                  let j2 = ls_owner.(e') in
                  add (`Swap (min j j2, max j j2)) (fun () -> swap_with j j2)
            done
          | Placement.Pe c ->
            Grid.iter_coords grid (fun c' ->
                if c' <> c then
                  match Hashtbl.find_opt pe_owner (c'.Grid.row, c'.Grid.col) with
                  | None ->
                    if Grid.supports grid c' (cls_of j) then
                      add (`Move_pe (j, c'.Grid.row, c'.Grid.col))
                        (fun () -> cand_with j (Placement.Pe c'))
                  | Some j2 ->
                    if
                      Grid.supports grid c' (cls_of j)
                      && Grid.supports grid c (cls_of j2)
                    then add (`Swap (min j j2, max j j2)) (fun () -> swap_with j j2)))
      est.Cost_model.critical;
    (* Model-rank every candidate; only predicted improvements survive. *)
    let scored =
      List.filter_map
        (fun (descr, pl) ->
          incr proposed;
          let e = predict pl in
          if e.Cost_model.cycles < est.Cost_model.cycles then
            Some (e.Cost_model.cycles, tie descr, pl)
          else None)
        !cands
    in
    let ranked = List.sort compare scored in
    (* Engine-confirm the top of the ranking; first strict improvement
       wins the round. *)
    let rec try_beam k = function
      | [] -> ()
      | _ when k >= beam -> ()
      | (_, _, pl) :: rest ->
        incr confirmed;
        (match confirm pl with
        | Some cycles when cycles < !current_cycles ->
          current := pl;
          current_cycles := cycles;
          incr accepted;
          continue_ := true
        | Some _ | None -> try_beam (k + 1) rest)
    in
    try_beam 0 ranked;
    incr rounds
  done;
  {
    placement = !current;
    baseline_cycles;
    refined_cycles = !current_cycles;
    rounds = !rounds;
    proposed = !proposed;
    confirmed = !confirmed;
    accepted = !accepted;
  }

(* Figure 8: per instruction the FSM spends fixed stages (LDFG read,
   candidate generation, filtering, writeback) plus a reduction whose depth
   follows the window size. *)
let map_cycles config (dfg : Dfg.t) =
  let window = config.window_rows * config.window_cols in
  let reduction =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 window 0
  in
  Dfg.node_count dfg * (4 + reduction)
