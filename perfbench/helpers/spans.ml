(* In-memory span recorder for the traced run. Spans nest by dynamic
   extent on one thread: the open span at [with_span] time is the parent.
   Nothing is written until the run ends. *)

type span = {
  id : int;
  name : string;
  start : float;   (* seconds, monotonic-ish wall clock *)
  stop : float;
  parent : int;    (* -1 for a root *)
  req : int;       (* request / unit id the span belongs to, -1 if none *)
}

type t = {
  mutable enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable closed : span list;
}

let create ?(enabled = true) () = { enabled; next = 0; stack = []; closed = [] }

let with_span t ?(req = -1) name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.closed <- { id; name; start; stop; parent; req } :: t.closed
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let add t ?(req = -1) ~parent name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.closed <- { id; name; start; stop; parent; req } :: t.closed;
  id
let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_time spans s =
  let kids =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (c.start, c.stop) else None)
      spans
  in
  duration s -. covered ~lo:s.start ~hi:s.stop kids

type row = { r_name : string; r_count : int; r_total : float; r_self : float }

let by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c, tot, self =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.name
        (c + 1, tot +. duration s, self +. self_time spans s))
    spans;
  Hashtbl.fold
    (fun r_name (r_count, r_total, r_self) acc ->
      { r_name; r_count; r_total; r_self } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.r_name b.r_name)

let root_total spans =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
    0.0 spans

(* Layer spans are named [layer.call]; a name without a dot is structural
   (a unit, a case, a request) and its self time is what no layer covers. *)
let structural s = not (String.contains s.name '.')

let other spans =
  List.fold_left
    (fun acc s -> if structural s then acc +. self_time spans s else acc)
    0.0 spans

let mean_self spans name =
  match List.find_opt (fun r -> r.r_name = name) (by_name spans) with
  | Some r when r.r_count > 0 -> Some (r.r_self /. float_of_int r.r_count)
  | _ -> None

let to_trace spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = int_of_float (Float.round (x *. 1e6)) in
  List.map
    (fun s ->
      Trace.span ~cat:"perfbench" ~ts:(us (s.start -. t0))
        ~dur:(max 1 (us (duration s)))
        ~args:
          [
            ("id", Json.Int s.id);
            ("parent", Json.Int s.parent);
            ("req", Json.Int s.req);
            ("self_us", Json.Float (self_time spans s *. 1e6));
          ]
        s.name)
    spans
