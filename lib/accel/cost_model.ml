(* The analytical twin of the engine's timing loop: same arrival folds, same
   contention tables, same II rule — but no functional execution, no cache,
   no stats. Guards are assumed enabled and store-to-load aliasing ignored,
   which is exactly the value-independent fragment of the engine semantics;
   the property suite pins where (and by how much) that diverges.

   Search loops price thousands of placements of one loop, so the work is
   split by what it depends on:
   - a [pricer] builds the placement-independent tables once: the node
     table (one oracle evaluation per node, a cache-port flag), the
     dependency structure in the engine's fold order and the II bounds;
   - a placement only contributes its edge table — each dependency's
     static transfer latency and router slice (or local link) — and the
     pricer memoizes estimates by that table, so candidates that differ
     only in ways the model cannot see are simulated once;
   - the simulation runs in a workspace taken from a domain-local pool
     under a mutex (threads of one domain can price at once): the edge
     table, completion and phase arrays, the booking log and the pending
     multisets, so a warm call allocates none of them;
   - fixed-point detection appends each contention booking to that log and
     compares two boundaries' pending multisets count first: equal
     multisets have equal sizes, so the sorted multisets are built only
     when the live-booking counts match;
   - contention tables are borrowed from the engines' scratch and reset.
   On kmeans at M-64 over the 128-iteration refine horizon a simulated
   estimate costs 0.15-0.22 ms (the placement refine adopts, whose
   backlog drifts, included) against 16-23 ms for one engine confirmation
   on a 2-core Xeon host; a one-shot [estimate] allocates 2.6 k words, all
   of them the placement-independent tables. *)

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

(* ------------------------------------------------------------------ *)
(* The per-call workspace: every table whose size depends on the DFG and
   the tiling but whose contents are rebuilt by each simulation. A call
   takes one exclusively from a domain-local stack under a mutex — mesad's
   refiner thread prices on the same domain as the shard threads — and
   parks it when done, so a warm call allocates none of them. *)

type workspace = {
  mutable edge_base : float array;  (* per edge: static transfer latency *)
  mutable edge_slice : int array;  (* per edge: router slice, -1 = local *)
  mutable completes : float array;  (* per node *)
  mutable crit_dep : int array;  (* per node *)
  mutable prev_completes : float array;  (* per instance x node *)
  mutable inst_next : float array;  (* per instance: next initiation *)
  mutable prev_lat : float array;  (* per instance *)
  mutable prev_ii : float array;  (* per instance *)
  mutable snap_next : float array;  (* per instance *)
  mutable stable : bool array;  (* per instance *)
  mutable ran : int array;  (* per instance *)
  mutable noc : Contention.t option array;  (* per instance x slice *)
  mutable log : int array;  (* booking log: (table, cycle) pairs *)
  mutable pending : int array;  (* two pending multisets, packed keys *)
  mutable key : Bytes.t;  (* the edge table's memo key *)
}

let new_workspace () =
  {
    edge_base = [||];
    edge_slice = [||];
    completes = [||];
    crit_dep = [||];
    prev_completes = [||];
    inst_next = [||];
    prev_lat = [||];
    prev_ii = [||];
    snap_next = [||];
    stable = [||];
    ran = [||];
    noc = [||];
    log = [||];
    pending = [||];
    key = Bytes.empty;
  }

let workspaces : (Mutex.t * workspace Stack.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Mutex.create (), Stack.create ()))

let take_workspace () =
  let lock, stack = Domain.DLS.get workspaces in
  Mutex.lock lock;
  let ws = Stack.pop_opt stack in
  Mutex.unlock lock;
  match ws with Some ws -> ws | None -> new_workspace ()

let park_workspace ws =
  let lock, stack = Domain.DLS.get workspaces in
  Mutex.lock lock;
  Stack.push ws stack;
  Mutex.unlock lock

(* Tables grow to the largest call seen and are then reused. *)
let fit_float a len = if Array.length a >= len then a else Array.make len 0.0
let fit_int a len = if Array.length a >= len then a else Array.make len 0

(* In-place heapsort of [a.(lo) .. a.(lo + len - 1)]. *)
let sort_segment (a : int array) lo len =
  let swap i j =
    let x = a.(lo + i) in
    a.(lo + i) <- a.(lo + j);
    a.(lo + j) <- x
  in
  let rec sift root hi =
    let child = (2 * root) + 1 in
    if child < hi then begin
      let c =
        if child + 1 < hi && a.(lo + child) < a.(lo + child + 1) then child + 1
        else child
      in
      if a.(lo + root) < a.(lo + c) then begin
        swap root c;
        sift c hi
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for hi = len - 1 downto 1 do
    swap 0 hi;
    sift 0 hi
  done

(* A pending booking as one sortable int: the table id above the cycle.
   Bookings are at non-negative cycles far below 2^40, so the packed order
   is the (table, cycle) order. *)
let cycle_bits = 40
let cycle_mask = (1 lsl cycle_bits) - 1

(* ------------------------------------------------------------------ *)
(* The pricer: everything an estimate reads that does not depend on the
   placement, built once. *)

type pricer = {
  n : int;
  iterations : int;
  extrapolate : bool;
  pipelined : bool;
  tiling : int;
  ports_cap : int;
  nslices : int;
  (* Node table, one oracle call per node: [claims_port.(j)] for a memory
     access that queues on a cache port (its [fire] is the service time
     after the queue), otherwise [fire.(j)] is the whole firing latency —
     the op oracle, or the fixed forwarded/vector-member load latency. *)
  claims_port : bool array;
  fire : float array;
  port_claims : int;
  (* The memory-port and iterative-unit bounds on the II follow from the
     node table alone, so they are the same every iteration. *)
  ii_mem : float;
  fu_bound : float;
  carried_nodes : int array;
  (* Edge structure in the engine's fold order ([deps_of]), flattened:
     node [j]'s dependencies are [edge_start.(j) .. edge_start.(j + 1) - 1],
     edge [e] running from [edge_src.(e)] to [edge_dst.(e)]. *)
  edge_start : int array;
  edge_src : int array;
  edge_dst : int array;
  memo : (string, t) Hashtbl.t;  (* estimates by [edge_key] *)
}

let pricer ?op_latency ?mem_latency ?(iterations = 1) ?(extrapolate = true)
    ~(config : Accel_config.t) ~(dfg : Dfg.t) () =
  let n = Dfg.node_count dfg in
  let grid = config.Accel_config.placement.Placement.grid in
  let nodes = dfg.Dfg.nodes in
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
  let claims_port = Array.make n false in
  let fire = Array.make n 0.0 in
  let mem_nodes = ref 0 in
  let port_claims = ref 0 in
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
        incr port_claims;
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
  let deps = deps_of dfg in
  let edge_start = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    edge_start.(j + 1) <- edge_start.(j) + Array.length deps.(j)
  done;
  let edges = edge_start.(n) in
  let edge_src = Array.make edges 0 in
  let edge_dst = Array.make edges 0 in
  Array.iteri
    (fun j ds ->
      Array.iteri
        (fun d i ->
          edge_src.(edge_start.(j) + d) <- i;
          edge_dst.(edge_start.(j) + d) <- j)
        ds)
    deps;
  {
    n;
    iterations = max 1 iterations;
    extrapolate;
    pipelined = config.Accel_config.pipelined;
    tiling = max 1 config.Accel_config.tiling;
    ports_cap;
    nslices = Interconnect.slices grid;
    claims_port;
    fire;
    port_claims = !port_claims;
    ii_mem = float_of_int (Stats.div_ceil !mem_nodes ports_cap);
    fu_bound = !fu_bound;
    carried_nodes;
    edge_start;
    edge_src;
    edge_dst;
    memo = Hashtbl.create 64;
  }

(* Fill [ws]'s edge table from [pl], the only thing an estimate reads from
   the placement: per dependency in fold order, the static transfer latency
   and the router slice it injects into ([-1] for a local link). Returns the
   number of NoC edges. *)
let fill_edges p ws (pl : Placement.t) =
  let grid = pl.Placement.grid in
  let edges = Array.length p.edge_src in
  ws.edge_base <- fit_float ws.edge_base edges;
  ws.edge_slice <- fit_int ws.edge_slice edges;
  let noc_edges = ref 0 in
  for e = 0 to edges - 1 do
    let i = p.edge_src.(e) and j = p.edge_dst.(e) in
    ws.edge_base.(e) <- float_of_int (Placement.transfer pl i j);
    match Placement.route pl i j with
    | Interconnect.Local -> ws.edge_slice.(e) <- -1
    | Interconnect.Noc ->
      incr noc_edges;
      ws.edge_slice.(e) <- Interconnect.noc_slice grid (Placement.coord_of pl i)
  done;
  !noc_edges

(* The edge table as a memo key: each transfer latency and slice + 1 as a
   little-endian base-128 varint, which is prefix-free, so equal keys are
   equal tables. A typical edge takes two bytes. *)
let edge_key ws ~edges =
  (* At most nine bytes per value on 63-bit ints. *)
  if Bytes.length ws.key < 18 * edges then ws.key <- Bytes.create (18 * edges);
  let b = ws.key in
  let rec put pos v =
    if v < 0x80 then begin
      Bytes.unsafe_set b pos (Char.unsafe_chr v);
      pos + 1
    end
    else begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0x7f lor 0x80));
      put (pos + 1) (v lsr 7)
    end
  in
  let pos = ref 0 in
  for e = 0 to edges - 1 do
    pos := put (put !pos (int_of_float ws.edge_base.(e))) (ws.edge_slice.(e) + 1)
  done;
  Bytes.sub_string b 0 !pos

(* Timing-simulate the edge table in [ws], which holds [noc_edges] NoC
   edges. *)
let simulate p ws ~noc_edges =
  let n = p.n in
  let tiling = p.tiling in
  let iterations = p.iterations in
  let pipelined = p.pipelined in
  let nslices = p.nslices in
  let claims_port = p.claims_port in
  let fire = p.fire in
  let ii_mem = p.ii_mem in
  let fu_bound = p.fu_bound in
  let carried_nodes = p.carried_nodes in
  let edge_start = p.edge_start in
  let edge_src = p.edge_src in
  let edge_base = ws.edge_base in
  let edge_slice = ws.edge_slice in
  ws.completes <- fit_float ws.completes n;
  ws.crit_dep <- fit_int ws.crit_dep n;
  ws.prev_completes <- fit_float ws.prev_completes (tiling * n);
  ws.inst_next <- fit_float ws.inst_next tiling;
  ws.prev_lat <- fit_float ws.prev_lat tiling;
  ws.prev_ii <- fit_float ws.prev_ii tiling;
  ws.snap_next <- fit_float ws.snap_next tiling;
  if Array.length ws.stable < tiling then ws.stable <- Array.make tiling false;
  ws.ran <- fit_int ws.ran tiling;
  if Array.length ws.noc < tiling * nslices then
    ws.noc <- Array.make (tiling * nslices) None;
  let completes = ws.completes in
  let crit_dep = ws.crit_dep in
  let prev_completes = ws.prev_completes in
  let inst_next = ws.inst_next in
  let prev_lat = ws.prev_lat in
  let prev_ii = ws.prev_ii in
  let snap_next = ws.snap_next in
  let stable = ws.stable in
  let ran = ws.ran in
  let noc = ws.noc in
  Array.fill completes 0 n 0.0;
  Array.fill prev_completes 0 (tiling * n) Float.nan;
  Array.fill inst_next 0 tiling 0.0;
  Array.fill prev_lat 0 tiling Float.nan;
  Array.fill prev_ii 0 tiling Float.nan;
  Array.fill snap_next 0 tiling 0.0;
  Array.fill stable 0 tiling false;
  Array.fill ran 0 tiling 0;
  let ports = borrow ~capacity:p.ports_cap in
  let borrowed = ref [ ports ] in
  let noc_slot idx =
    match noc.(idx) with
    | Some c -> c
    | None ->
      let c = borrow ~capacity:1 in
      borrowed := c :: !borrowed;
      noc.(idx) <- Some c;
      c
  in
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
     boundary restricted to cycles at or beyond its frontier.

     Detection pays a log append per claim; on a loop that never settles
     (drifting backlog) that buys nothing, so give up after a bounded
     number of round boundaries and simulate the rest flat out. Past the
     last snapshot pair, (64, 65), no boundary can declare steady state. *)
  let detect = ref p.extrapolate in
  let boundaries = ref 0 in
  let max_boundaries = 65 in
  (* Every iteration makes the same claims, so the log is sized once for
     the iterations detection can cover. *)
  if p.extrapolate then
    ws.log <-
      fit_int ws.log
        (2 * (noc_edges + p.port_claims)
        * min iterations ((max_boundaries + 1) * tiling));
  let log = ws.log in
  let log_len = ref 0 in
  (* Snapshots are only taken at boundary pairs (2^k, 2^k + 1): comparing
     any two consecutive equal-state boundaries proves periodicity, and the
     exponential spacing keeps the comparisons logarithmic in the warmup
     length. A snapshot only records its boundary (log length, frontier,
     instance phases); the pending multisets are compared only when the
     pair's second boundary could declare steady state — every instance
     stable and run at least twice — which a loop that never settles never
     reaches. *)
  let snap_at b = b > 0 && (b land (b - 1) = 0 || (b - 1) land (b - 2) = 0) in
  let book tid cycle =
    if !detect then begin
      log.(!log_len) <- tid;
      log.(!log_len + 1) <- cycle;
      log_len := !log_len + 2
    end
  in
  let max_pending = 1024 in
  (* Bookings in the log prefix [0, len) at cycles at or beyond [floor_c]. *)
  let live len floor_c =
    let c = ref 0 in
    for q = 0 to (len / 2) - 1 do
      if log.((2 * q) + 1) >= floor_c then incr c
    done;
    !c
  in
  (* The same bookings, packed, sorted, into [pending.(at) ..]. *)
  let gather pending at len floor_c =
    let w = ref at in
    for q = 0 to (len / 2) - 1 do
      let c = log.((2 * q) + 1) in
      if c >= floor_c then begin
        pending.(!w) <- (log.(2 * q) lsl cycle_bits) lor c;
        incr w
      end
    done;
    sort_segment pending at (!w - at)
  in
  (* The snapshot of the previous boundary: log length, frontier, phases. *)
  let snap_len = ref 0 in
  let snap_frontier = ref 0.0 in
  (* Whether the system state repeats, shifted, from the snapshot boundary
     to this one at [frontier]. The pending multisets must be equal up to
     the shift, and hold at most [max_pending] distinct (table, cycle)
     bookings. Equal multisets have equal sizes, so the live bookings are
     counted first and the multisets only built when the counts match. *)
  let state_repeats frontier =
    let phases_equal = ref true in
    for t = 0 to tiling - 1 do
      if snap_next.(t) -. !snap_frontier <> inst_next.(t) -. frontier then
        phases_equal := false
    done;
    !phases_equal
    &&
    let floor0 = int_of_float (Float.ceil !snap_frontier) in
    let floor1 = int_of_float (Float.ceil frontier) in
    let m = live !snap_len floor0 in
    m = live !log_len floor1
    &&
    begin
      ws.pending <- fit_int ws.pending (2 * m);
      let pending = ws.pending in
      gather pending 0 !snap_len floor0;
      gather pending m !log_len floor1;
      let equal = ref true in
      let runs = ref 0 in
      let q = ref 0 in
      while !equal && !q < m do
        let a = pending.(!q) and b = pending.(m + !q) in
        if !q = 0 || a <> pending.(!q - 1) then incr runs;
        if
          a lsr cycle_bits <> b lsr cycle_bits
          || float_of_int (a land cycle_mask) -. !snap_frontier
             <> float_of_int (b land cycle_mask) -. frontier
          || !runs > max_pending
        then equal := false;
        incr q
      done;
      !equal
    end
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
        let all_stable = ref true in
        for t = 0 to tiling - 1 do
          if not stable.(t) || ran.(t) < 2 then all_stable := false
        done;
        if snap_at (!boundaries - 1) && !all_stable && state_repeats frontier then
          steady := true
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
      let base = inst * n in
      let same =
        ran.(inst) > 0
        && prev_lat.(inst) = iter_latency
        && prev_ii.(inst) = ii
        &&
        let eq = ref true in
        for j = 0 to n - 1 do
          if prev_completes.(base + j) <> completes.(j) then eq := false
        done;
        !eq
      in
      stable.(inst) <- same;
      if not same then Array.blit completes 0 prev_completes base n;
      prev_lat.(inst) <- iter_latency;
      prev_ii.(inst) <- ii;
      ran.(inst) <- ran.(inst) + 1;
      incr k;
      simulated := !k
    end
  done;
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
  (* Nothing here can raise (the oracles ran when the pricer was built), so
     the contention tables go straight back to the engines' scratch, and
     the workspace holds none of them when it is parked. *)
  Engine_core.scratch_park !borrowed;
  Array.fill noc 0 (tiling * nslices) None;
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

let price p (pl : Placement.t) =
  let grid = pl.Placement.grid in
  if max 1 grid.Grid.mem_ports <> p.ports_cap || Interconnect.slices grid <> p.nslices
  then invalid_arg "Cost_model.price: placement on a different fabric";
  let ws = take_workspace () in
  let noc_edges = fill_edges p ws pl in
  let key = edge_key ws ~edges:(Array.length p.edge_src) in
  let t =
    match Hashtbl.find_opt p.memo key with
    | Some t -> t
    | None ->
      let t = simulate p ws ~noc_edges in
      Hashtbl.add p.memo key t;
      t
  in
  park_workspace ws;
  t

let estimate ?op_latency ?mem_latency ?iterations ?extrapolate ~config ~dfg () =
  let p = pricer ?op_latency ?mem_latency ?iterations ?extrapolate ~config ~dfg () in
  let ws = take_workspace () in
  let noc_edges = fill_edges p ws config.Accel_config.placement in
  let t = simulate p ws ~noc_edges in
  park_workspace ws;
  t

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
