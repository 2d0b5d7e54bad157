(* Per-layer metrics of the traced run. The ones Pb_out.per_layer names are
   measured by every workload; the rest are a workload's own and are
   printed in its table only. *)

(* A layer metric: name, unit and value, [None] when nothing was measured. *)
type layer = string * string * float option

let emit out ~samples (measured : layer list) =
  List.iter
    (fun (name, unit_, v) ->
      match v with
      | Some v -> Pb_out.metric out ~samples name unit_ v
      | None -> Pb_out.unreached out name unit_)
    measured

(* Mean of the samples, [None] for none. *)
let mean = function [] -> None | l -> Some (Stats.mean l)

let gc_layers ~per (d : Pb_sys.gc) : layer list =
  let f x = Some (x /. float_of_int (max 1 per)) in
  [
    ("gc.minor_words", "words", f d.Pb_sys.minor_words);
    ("gc.major_words", "words", f d.Pb_sys.major_words);
    ("gc.major_collections", "count", f (float_of_int d.Pb_sys.major_collections));
  ]

(* Self time per span name, the [other] remainder and the tracing
   overhead, as a table on stdout; returns the [other.frac] and
   [trace.overhead_frac] metrics. *)
let span_report ~traced_s ~untraced_s spans =
  let module S = Pbh.Spans in
  let total = S.root_total spans in
  Printf.printf "\n%-24s %8s %12s %12s %8s\n" "span" "count" "total_ms" "self_ms" "self%";
  List.iter
    (fun r ->
      Printf.printf "%-24s %8d %12.3f %12.3f %7.2f%%\n" r.S.r_name r.S.r_count
        (r.S.r_total *. 1e3) (r.S.r_self *. 1e3)
        (if total > 0.0 then 100.0 *. r.S.r_self /. total else 0.0))
    (S.by_name spans);
  let other = S.other spans in
  Printf.printf "%-24s %8s %12s %12.3f %7.2f%%\n" "other (uncovered)" "" ""
    (other *. 1e3) (if total > 0.0 then 100.0 *. other /. total else 0.0);
  let overhead = (traced_s -. untraced_s) /. untraced_s in
  Printf.printf "tracing overhead: traced %.3f s, untraced %.3f s (%+.2f%%)\n%!"
    traced_s untraced_s (100.0 *. overhead);
  [
    ("other.frac", "ratio", if total > 0.0 then Some (other /. total) else None);
    ("trace.overhead_frac", "ratio", if untraced_s > 0.0 then Some overhead else None);
  ]

let write_trace ~path spans =
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Trace.to_string (Pbh.Spans.to_trace spans));
      output_char oc '\n');
  Printf.printf "trace written to %s\n%!" path

(* Run [replay] untraced, traced, then untraced again (spans disabled on the
   untraced runs) and return the traced run's result and spans with the
   traced time and the mean untraced time: the difference is the tracing
   overhead, with warm-up cost spread over both sides. *)
let traced_replay replay =
  let quiet = Pbh.Spans.create ~enabled:false () in
  let _, u1 = Pb_sys.timed (fun () -> replay quiet) in
  let sp = Pbh.Spans.create () in
  let v, traced_s = Pb_sys.timed (fun () -> replay sp) in
  let _, u2 = Pb_sys.timed (fun () -> replay quiet) in
  Printf.printf "replay seconds: untraced %.3f, traced %.3f, untraced %.3f\n%!" u1 traced_s u2;
  (v, Pbh.Spans.spans sp, traced_s, (u1 +. u2) /. 2.0)
