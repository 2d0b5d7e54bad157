(* The analytical twin of the engine's timing loop: same arrival folds, same
   contention tables, same II rule — but no functional execution, no cache,
   no stats. Guards are assumed enabled and store-to-load aliasing ignored,
   which is exactly the value-independent fragment of the engine semantics;
   the property suite pins where (and by how much) that diverges.

   Search loops call [estimate] thousands of times, so the simulated
   iterations allocate nothing, hash nothing and call no oracle:
   - the edge table, built once per call, holds each dependency's
     producer, static transfer latency and router slice (or local link) in
     the engine's fold order, and the node table holds one oracle
     evaluation per node;
   - fixed-point detection appends each contention booking to an int log
     sized up front, and builds the pending-booking multisets from that log
     only when a snapshot pair can actually declare steady state;
   - contention tables are borrowed from the engines' scratch and reset.
   On kmeans at M-64 over the 128-iteration refine horizon an estimate
   costs 0.23-0.33 ms against 16-23 ms for one engine confirmation on a
   2-core Xeon host, and allocates 5.4 k words. *)

type t = {
  cycles : int;
  iter_latency : float;
  ii : float;
  ii_rec : float;
  ii_mem : float;
  ii_fu : float;
  critical : int list;
  simulated : int;
  steady : bool;
}

let default_op_latency (dfg : Dfg.t) j =
  float_of_int (Latency.accel (Isa.op_class dfg.Dfg.nodes.(j).Dfg.instr))

let default_mem_latency =
  float_of_int Hierarchy.default_config.Hierarchy.l1.Cache.hit_latency

(* Arrival dependencies in exactly the engine's fold order: operand sources,
   hidden value, guards, and (for stores) the memory-order link. *)
let deps_of (dfg : Dfg.t) =
  Array.map
    (fun nd ->
      let ds = ref [] in
      Array.iter
        (function Dfg.Node i -> ds := i :: !ds | Dfg.Reg_in _ -> ())
        nd.Dfg.srcs;
      (match nd.Dfg.hidden with
      | Some (Dfg.Node i) -> ds := i :: !ds
      | Some (Dfg.Reg_in _) | None -> ());
      List.iter (fun (b, _) -> ds := b :: !ds) nd.Dfg.guards;
      if Isa.is_store nd.Dfg.instr then
        Option.iter (fun s -> ds := s :: !ds) nd.Dfg.prev_store;
      Array.of_list (List.rev !ds))
    dfg.Dfg.nodes

(* Borrow a contention table from the engines' domain-local scratch,
   reset to [capacity] (or build one when none is parked). An estimate
   over the 128-iteration horizons refine and the DSE use books at most a
   few thousand cycles, so a table an engine execution grew past that is
   shrunk rather than cleared at full size. *)
let borrow ~capacity =
  match Engine_core.scratch_take () with
  | Some c ->
    Contention.reset ~capacity ~max_size:4096 c;
    c
  | None -> Contention.create ~capacity

(* [Float.max], with its sign-bit C calls kept off the common path: a
   strict order decides without them. *)
let[@inline] fmax x y = if y > x then y else if x > y then x else Float.max x y

(* {!Contention.claim}, inlined around the integer claim so the hot loop
   boxes no float. *)
let[@inline] claim c ready =
  fmax ready
    (float_of_int (Contention.claim_cycle c (int_of_float (Float.ceil ready))))

let estimate ?op_latency ?mem_latency ?(iterations = 1) ?(extrapolate = true)
    ~(config : Accel_config.t) ~(dfg : Dfg.t) () =
  let n = Dfg.node_count dfg in
  let pl = config.Accel_config.placement in
  let grid = pl.Placement.grid in
  let nodes = dfg.Dfg.nodes in
  let iterations = max 1 iterations in
  let pipelined = config.Accel_config.pipelined in
  let op_latency =
    match op_latency with Some f -> f | None -> default_op_latency dfg
  in
  let mem_latency =
    match mem_latency with Some f -> f | None -> fun _ -> default_mem_latency
  in
  let carried_nodes =
    Dfg.loop_carried dfg
    |> List.filter_map (fun (_, _, src) ->
           match src with Dfg.Node p -> Some p | Dfg.Reg_in _ -> None)
    |> Array.of_list
  in
  let forwarded = Array.make n false in
  List.iter (fun (load, _) -> forwarded.(load) <- true) config.Accel_config.forwarding;
  let vector_member = Array.make n false in
  List.iter
    (function
      | [] -> ()
      | _leader :: members -> List.iter (fun m -> vector_member.(m) <- true) members)
    config.Accel_config.vector_groups;
  (* Node table, one oracle call per node: [claims_port.(j)] for a memory
     access that queues on a cache port (its [fire] is the service time
     after the queue), otherwise [fire.(j)] is the whole firing latency —
     the op oracle, or the fixed forwarded/vector-member load latency. The
     memory-port and iterative-unit bounds on the II follow from the node
     table alone, so they are the same every iteration. *)
  let claims_port = Array.make n false in
  let fire = Array.make n 0.0 in
  let mem_nodes = ref 0 in
  let fu_bound = ref 1.0 in
  for j = 0 to n - 1 do
    let instr = nodes.(j).Dfg.instr in
    if Isa.is_memory instr then begin
      incr mem_nodes;
      let load = Isa.is_load instr in
      if load && forwarded.(j) then fire.(j) <- 2.0
      else if load && vector_member.(j) then fire.(j) <- 1.0
      else begin
        claims_port.(j) <- true;
        fire.(j) <- mem_latency j
      end
    end
    else begin
      fire.(j) <- op_latency j;
      match Isa.op_class instr with
      | Isa.C_div | Isa.C_fdiv -> fu_bound := fmax !fu_bound fire.(j)
      | _ -> ()
    end
  done;
  let ports_cap = max 1 grid.Grid.mem_ports in
  let ii_mem = float_of_int (Stats.div_ceil !mem_nodes ports_cap) in
  let fu_bound = !fu_bound in
  (* Edge table in the engine's fold order ([deps_of]), flattened: node
     [j]'s dependencies are [edge_start.(j) .. edge_start.(j + 1) - 1],
     each with its producer, static transfer latency and the router slice
     it injects into ([-1] for a local link). *)
  let deps = deps_of dfg in
  let edge_start = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    edge_start.(j + 1) <- edge_start.(j) + Array.length deps.(j)
  done;
  let edges = edge_start.(n) in
  let edge_src = Array.make edges 0 in
  let edge_base = Array.make edges 0.0 in
  let edge_slice = Array.make edges (-1) in
  Array.iteri
    (fun j ds ->
      Array.iteri
        (fun d i ->
          let e = edge_start.(j) + d in
          edge_src.(e) <- i;
          edge_base.(e) <- float_of_int (Placement.transfer pl i j);
          match Placement.route pl i j with
          | Interconnect.Local -> ()
          | Interconnect.Noc ->
            edge_slice.(e) <- Interconnect.noc_slice grid (Placement.coord_of pl i))
        ds)
    deps;
  let ports = borrow ~capacity:ports_cap in
  let borrowed = ref [ ports ] in
  let tiling = max 1 config.Accel_config.tiling in
  let nslices = Interconnect.slices grid in
  let noc : Contention.t option array = Array.make (tiling * nslices) None in
  let noc_slot idx =
    match noc.(idx) with
    | Some c -> c
    | None ->
      let c = borrow ~capacity:1 in
      borrowed := c :: !borrowed;
      noc.(idx) <- Some c;
      c
  in
  let completes = Array.make n 0.0 in
  let crit_dep = Array.make n (-1) in
  let inst_next = Array.make tiling 0.0 in
  (* Fixed-point detection. The system state at a round boundary is exactly
     (a) each instance's relative completion vector and II, and (b) the
     pending contention bookings at cycles at or beyond the time frontier —
     bookings behind the frontier can never be probed again (claims only
     look at cycles >= their ready time >= the frontier). If both repeat,
     shifted by one round, the schedule is provably periodic and the tail
     can be extrapolated. Comparing schedules alone is NOT enough: on an
     exactly port-saturated loop the backlog drifts by a fraction of a
     cycle per round while the relative vectors repeat for many rounds.

     Every booking is appended to [log] as a (table, cycle) pair, so the
     pending multiset at any past boundary is the log prefix up to that
     boundary restricted to cycles at or beyond its frontier. *)
  let prev_completes = Array.init tiling (fun _ -> Array.make n Float.nan) in
  let prev_lat = Array.make tiling Float.nan in
  let prev_ii = Array.make tiling Float.nan in
  let stable = Array.make tiling false in
  let ran = Array.make tiling 0 in
  (* Detection pays a log append per claim; on a loop that never settles
     (drifting backlog) that buys nothing, so give up after a bounded
     number of round boundaries and simulate the rest flat out. Past the
     last snapshot pair, (64, 65), no boundary can declare steady state. *)
  let detect = ref extrapolate in
  let boundaries = ref 0 in
  let max_boundaries = 65 in
  (* Every iteration makes the same claims, so the log is sized once for
     the iterations detection can cover. *)
  let log =
    if not extrapolate then [||]
    else begin
      let claims = ref 0 in
      Array.iter (fun s -> if s >= 0 then incr claims) edge_slice;
      Array.iter (fun p -> if p then incr claims) claims_port;
      Array.make (2 * !claims * min iterations ((max_boundaries + 1) * tiling)) 0
    end
  in
  let log_len = ref 0 in
  (* Snapshots are only taken at boundary pairs (2^k, 2^k + 1): comparing
     any two consecutive equal-state boundaries proves periodicity, and the
     exponential spacing keeps the comparisons logarithmic in the warmup
     length. A snapshot only records its boundary (log length, frontier,
     instance phases); both pending multisets are built from the log only
     when the pair's second boundary could declare steady state — every
     instance stable and run at least twice — which a loop that never
     settles never reaches. *)
  let snap_at b = b > 0 && (b land (b - 1) = 0 || (b - 1) land (b - 2) = 0) in
  let book tid cycle =
    if !detect then begin
      log.(!log_len) <- tid;
      log.(!log_len + 1) <- cycle;
      log_len := !log_len + 2
    end
  in
  let max_pending = 1024 in
  (* The pending multiset of the log prefix [0, len) at [frontier]: sorted
     ((table, cycle), claims) runs at cycles at or beyond the frontier — or
     [None] when the backlog is too deep to be worth comparing. *)
  let pending len frontier =
    let floor_c = int_of_float (Float.ceil frontier) in
    let live = ref [] in
    for p = (len / 2) - 1 downto 0 do
      if log.((2 * p) + 1) >= floor_c then
        live := (log.(2 * p), log.((2 * p) + 1)) :: !live
    done;
    let runs =
      List.fold_left
        (fun acc key ->
          match acc with
          | (k, claims) :: rest when k = key -> (k, claims + 1) :: rest
          | _ -> (key, 1) :: acc)
        [] (List.sort compare !live)
    in
    if List.compare_length_with runs max_pending > 0 then None else Some runs
  in
  (* The snapshot of the previous boundary: log length, frontier, phases. *)
  let snap_len = ref 0 in
  let snap_frontier = ref 0.0 in
  let snap_next = Array.make tiling 0.0 in
  (* Whether the system state repeats, shifted, from the snapshot boundary
     to this one at [frontier]. *)
  let state_repeats frontier =
    let phases_equal = ref true in
    for t = 0 to tiling - 1 do
      if snap_next.(t) -. !snap_frontier <> inst_next.(t) -. frontier then
        phases_equal := false
    done;
    !phases_equal
    &&
    match (pending !snap_len !snap_frontier, pending !log_len frontier) with
    | Some before, Some now ->
      List.equal
        (fun ((t0, c0), n0) ((t1, c1), n1) ->
          t0 = t1 && n0 = n1
          && float_of_int c0 -. !snap_frontier = float_of_int c1 -. frontier)
        before now
    | _ -> false
  in
  let end_time = ref 0.0 in
  let last_lat = ref 0.0 in
  let last_ii = ref 0.0 in
  let last_rec = ref 0.0 in
  let simulated = ref 0 in
  let steady = ref false in
  let k = ref 0 in
  while !k < iterations && not !steady do
    let inst = !k mod tiling in
    if !detect && inst = 0 && !k > 0 then begin
      incr boundaries;
      if !boundaries > max_boundaries then detect := false
      else if snap_at !boundaries then begin
        (* Round boundary: the frontier is the earliest next initiation —
           no claim in this or any later round can probe behind it. *)
        let frontier = ref inst_next.(0) in
        for t = 0 to tiling - 1 do
          frontier := Float.min !frontier inst_next.(t)
        done;
        let frontier = !frontier in
        if
          snap_at (!boundaries - 1)
          && Array.for_all (fun s -> s) stable
          && Array.for_all (fun r -> r >= 2) ran
          && state_repeats frontier
        then steady := true
        else begin
          snap_len := !log_len;
          snap_frontier := frontier;
          Array.blit inst_next 0 snap_next 0 tiling
        end
      end
    end;
    if not !steady then begin
      let iter_start = inst_next.(inst) in
      let noc_base = inst * nslices in
      for j = 0 to n - 1 do
        let arrival = ref 0.0 in
        crit_dep.(j) <- -1;
        for e = edge_start.(j) to edge_start.(j + 1) - 1 do
          let i = edge_src.(e) in
          let slice = edge_slice.(e) in
          let lat =
            if slice < 0 then edge_base.(e)
            else begin
              let abs_out = iter_start +. completes.(i) in
              let inject = claim (noc_slot (noc_base + slice)) abs_out in
              book (1 + noc_base + slice) (int_of_float inject);
              edge_base.(e) +. (inject -. abs_out)
            end
          in
          if completes.(i) +. lat > !arrival then begin
            arrival := completes.(i) +. lat;
            crit_dep.(j) <- i
          end
        done;
        let oplat =
          if claims_port.(j) then begin
            let ready = iter_start +. !arrival in
            let issue = claim ports ready in
            book 0 (int_of_float issue);
            (issue -. ready) +. fire.(j)
          end
          else fire.(j)
        in
        completes.(j) <- !arrival +. oplat
      done;
      let iter_latency = ref 0.0 in
      for j = 0 to n - 1 do
        iter_latency := fmax !iter_latency completes.(j)
      done;
      let iter_latency = !iter_latency in
      end_time := fmax !end_time (iter_start +. iter_latency);
      let ii_rec = ref 1.0 in
      for c = 0 to Array.length carried_nodes - 1 do
        ii_rec := fmax !ii_rec completes.(carried_nodes.(c))
      done;
      let ii_rec = !ii_rec in
      let ii =
        if pipelined then fmax (fmax ii_rec ii_mem) fu_bound
        else iter_latency +. 1.0
      in
      inst_next.(inst) <- iter_start +. ii;
      last_lat := iter_latency;
      last_ii := ii;
      last_rec := (if pipelined then ii_rec else ii);
      (* Fixed-point bookkeeping for this instance. *)
      let prev = prev_completes.(inst) in
      let same =
        ran.(inst) > 0
        && prev_lat.(inst) = iter_latency
        && prev_ii.(inst) = ii
        &&
        let eq = ref true in
        for j = 0 to n - 1 do
          if prev.(j) <> completes.(j) then eq := false
        done;
        !eq
      in
      stable.(inst) <- same;
      if not same then Array.blit completes 0 prev 0 n;
      prev_lat.(inst) <- iter_latency;
      prev_ii.(inst) <- ii;
      ran.(inst) <- ran.(inst) + 1;
      incr k;
      simulated := !k
    end
  done;
  (* Nothing past the oracle calls can raise, so the tables go straight
     back to the scratch. *)
  Engine_core.scratch_park !borrowed;
  (* Extrapolate the un-simulated tail: in the periodic regime instance [j]
     initiates its remaining iterations II apart from [inst_next.(j)]. *)
  if !steady then begin
    let w = !simulated in
    for j = 0 to tiling - 1 do
      let k0 = w + ((((j - w) mod tiling) + tiling) mod tiling) in
      if k0 < iterations then begin
        let m = ((iterations - 1 - k0) / tiling) + 1 in
        let last_start = inst_next.(j) +. (float_of_int (m - 1) *. prev_ii.(j)) in
        end_time := fmax !end_time (last_start +. prev_lat.(j))
      end
    done
  end;
  let critical =
    let best = ref 0 in
    for j = 1 to n - 1 do
      if completes.(j) > completes.(!best) then best := j
    done;
    let rec walk j acc = if j < 0 then acc else walk crit_dep.(j) (j :: acc) in
    walk !best []
  in
  {
    cycles = int_of_float (Float.ceil !end_time);
    iter_latency = !last_lat;
    ii = !last_ii;
    ii_rec = !last_rec;
    ii_mem = (if pipelined then ii_mem else 0.0);
    ii_fu = (if pipelined then fu_bound else 0.0);
    critical;
    simulated = !simulated;
    steady = !steady;
  }

(* ------------------------------------------------------------------ *)
(* Modeled activity counters: what the engine would tally with every guard
   enabled. Transfers count one per arrival-fold dependency visit, exactly
   like the engine's [transfer_in] call sites. *)

let predicted_activity ~(config : Accel_config.t) ~(dfg : Dfg.t) ~iterations
    ~cycles =
  let act = Activity.create () in
  let pl = config.Accel_config.placement in
  let n = Dfg.node_count dfg in
  let deps = deps_of dfg in
  let forwarded = Array.make n false in
  List.iter (fun (load, _) -> forwarded.(load) <- true) config.Accel_config.forwarding;
  let int_ops = ref 0
  and fp_ops = ref 0
  and mem_ops = ref 0
  and branch_ops = ref 0
  and fwd = ref 0
  and local = ref 0
  and noc = ref 0 in
  for j = 0 to n - 1 do
    (match dfg.Dfg.nodes.(j).Dfg.instr with
    | Isa.Rtype _ | Isa.Itype _ | Isa.Lui _ | Isa.Auipc _ | Isa.Fmv_x_w _
    | Isa.Fmv_w_x _ ->
      incr int_ops
    | Isa.Load _ | Isa.Flw _ | Isa.Store _ | Isa.Fsw _ ->
      incr mem_ops;
      if forwarded.(j) then incr fwd
    | Isa.Branch _ -> incr branch_ops
    | Isa.Ftype _ | Isa.Fcmp _ | Isa.Fcvt_w_s _ | Isa.Fcvt_s_w _ -> incr fp_ops
    | Isa.Jal _ | Isa.Jalr _ | Isa.Ecall | Isa.Ebreak | Isa.Fence -> ());
    Array.iter
      (fun i ->
        match Placement.route pl i j with
        | Interconnect.Local -> incr local
        | Interconnect.Noc -> incr noc)
      deps.(j)
  done;
  let iters = max 0 iterations in
  act.Activity.int_ops <- !int_ops * iters;
  act.Activity.fp_ops <- !fp_ops * iters;
  act.Activity.mem_ops <- !mem_ops * iters;
  act.Activity.branch_ops <- !branch_ops * iters;
  act.Activity.forwarded_loads <- !fwd * iters;
  act.Activity.local_transfers <- !local * iters;
  act.Activity.noc_transfers <- !noc * iters;
  act.Activity.iterations <- iters;
  act.Activity.cycles <- max 0 cycles;
  act

(* ------------------------------------------------------------------ *)
(* Oracles over an engine window's measured snapshot. *)

let hist_mean_of snapshot path =
  match Stats.find_hist snapshot path with
  | Some h when h.Stats.hcount > 0 -> Some (Stats.hist_mean h)
  | Some _ | None -> None

let op_oracle_of_measured snapshot =
  fun j ->
    match hist_mean_of snapshot (Printf.sprintf "node.%d.latency" j) with
    | Some m -> m
    | None -> 1.0

let mem_oracle_of_measured snapshot =
  let queue_mean =
    Option.value ~default:0.0
      (hist_mean_of snapshot "contention.port_queue_delay")
  in
  fun j ->
    match hist_mean_of snapshot (Printf.sprintf "node.%d.amat" j) with
    | Some amat -> Float.max 1.0 (amat -. queue_mean)
    | None -> default_mem_latency
