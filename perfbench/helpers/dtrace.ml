(* The daemon's existing [trace] stream, read back: one Proto response per
   line, each a [span] body holding a Telemetry span. Joining by request id
   gives every request's server-side phase timestamps, on the daemon's own
   clock — only differences between them are meaningful to the client. *)

type line = Span of Telemetry.span | End | Other

let parse_line s =
  match Result.bind (Json.of_string s) Proto.response_of_json with
  | Error e -> Error e
  | Ok { Proto.body = Proto.Span j; _ } ->
    Result.map (fun sp -> Span sp) (Telemetry.span_of_json j)
  | Ok { Proto.body = Proto.End_stream; _ } -> Ok End
  | Ok _ -> Ok Other

type phases = {
  admit : float option;
  queue : float option;
  execute : float option;
  resolve : float option;
  outcome : string;
}

let empty = { admit = None; queue = None; execute = None; resolve = None; outcome = "" }

let join spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (sp : Telemetry.span) ->
      if sp.Telemetry.sp_req >= 0 then begin
        let p =
          Option.value (Hashtbl.find_opt tbl sp.Telemetry.sp_req) ~default:empty
        in
        let at = Some sp.Telemetry.sp_at_ms in
        (* A retried request executes twice: keep the first admit/queue and
           the last execute/resolve, so the phases bracket the whole life. *)
        let p =
          match sp.Telemetry.sp_phase with
          | Telemetry.Admit when p.admit = None -> { p with admit = at }
          | Telemetry.Queue when p.queue = None -> { p with queue = at }
          | Telemetry.Execute -> { p with execute = at }
          | Telemetry.Resolve ->
            { p with resolve = at; outcome = sp.Telemetry.sp_outcome }
          | _ -> p
        in
        Hashtbl.replace tbl sp.Telemetry.sp_req p
      end)
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let diff a b = match (a, b) with Some x, Some y -> Some (y -. x) | _ -> None
let queue_wait_ms p = diff p.admit p.queue
let exec_ms p = diff p.queue p.execute
let server_ms p = diff p.admit p.resolve
