type loc = Pe of Grid.coord | Ls of int

type t = { grid : Grid.t; kind : Interconnect.kind; assign : loc array }

let make grid kind assign = { grid; kind; assign }

let loc_of t i = t.assign.(i)

let coord_of t i =
  match t.assign.(i) with
  | Pe c -> c
  | Ls e -> Interconnect.ls_coord t.grid e

(* Occupancy is tracked in one byte per PE and per LS entry; checks run in
   node order, so the first error found is the same as before. *)
let validate (dfg : Dfg.t) t =
  let n = Dfg.node_count dfg in
  if Array.length t.assign <> n then Error "placement size mismatch"
  else begin
    let grid = t.grid in
    let pe_used = Bytes.make (grid.Grid.rows * grid.Grid.cols) '\000' in
    let ls_used = Bytes.make (max 0 grid.Grid.ls_entries) '\000' in
    let rec go i =
      if i = n then Ok ()
      else
        let cls = Isa.op_class dfg.Dfg.nodes.(i).Dfg.instr in
        match t.assign.(i) with
        | Pe c ->
          if not (Grid.in_bounds grid c) then
            Error (Printf.sprintf "node %d placed out of bounds (%d,%d)" i c.row c.col)
          else if Isa.is_memory dfg.Dfg.nodes.(i).Dfg.instr then
            Error (Printf.sprintf "memory node %d placed on a PE" i)
          else if not (Grid.supports grid c cls) then
            Error (Printf.sprintf "node %d op unsupported at (%d,%d)" i c.row c.col)
          else
            let slot = (c.row * grid.Grid.cols) + c.col in
            if Bytes.get pe_used slot <> '\000' then
              Error (Printf.sprintf "PE (%d,%d) assigned twice" c.row c.col)
            else begin
              Bytes.set pe_used slot '\001';
              go (i + 1)
            end
        | Ls e ->
          if not (Isa.is_memory dfg.Dfg.nodes.(i).Dfg.instr) then
            Error (Printf.sprintf "non-memory node %d placed on LS entry" i)
          else if e < 0 || e >= grid.Grid.ls_entries then
            Error (Printf.sprintf "LS entry %d out of range for node %d" e i)
          else if Bytes.get ls_used e <> '\000' then
            Error (Printf.sprintf "LS entry %d assigned twice" e)
          else begin
            Bytes.set ls_used e '\001';
            go (i + 1)
          end
    in
    go 0
  end

let transfer t i j = Interconnect.latency t.grid t.kind (coord_of t i) (coord_of t j)
let transfer_f t i j = float_of_int (transfer t i j)
let route t i j = Interconnect.route t.grid t.kind (coord_of t i) (coord_of t j)

let used_pes t =
  Array.fold_left (fun acc l -> match l with Pe _ -> acc + 1 | Ls _ -> acc) 0 t.assign

let pp ppf t =
  let g = t.grid in
  let cell = Array.make_matrix g.Grid.rows g.Grid.cols (-1) in
  Array.iteri
    (fun i l -> match l with Pe c -> cell.(c.Grid.row).(c.Grid.col) <- i | Ls _ -> ())
    t.assign;
  Format.fprintf ppf "@[<v>%s placement (%d PEs used):@," g.Grid.name (used_pes t);
  for r = 0 to g.Grid.rows - 1 do
    Format.fprintf ppf "  ";
    for c = 0 to g.Grid.cols - 1 do
      if cell.(r).(c) >= 0 then Format.fprintf ppf "%4d" cell.(r).(c)
      else Format.fprintf ppf "   ."
    done;
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
