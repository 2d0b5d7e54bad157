(* The repo benchmark. One process runs one named workload:

     main.exe --workload figures|fuzz|service|search --seed N
              --seconds S --trace 0|1 [--expect KEY=VALUE]...
              [--mesa-cli PATH] [--trace-out FILE]

   --trace 0 measures the end-to-end metrics; --trace 1 is the separate
   traced run that replays the workload's calls layer by layer under spans
   and prints the per-layer metrics. The last stdout line is the JSON
   result; the exit code is non-zero when any output check failed. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload figures|fuzz|service|search --seed N \
     --seconds S --trace 0|1 [--expect KEY=VALUE] [--mesa-cli PATH] \
     [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let mesa_cli = ref "_build/default/bin/mesa_cli.exe" and trace_out = ref "" in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_arg s; parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some f when f > 0.0 -> seconds := f | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | "--expect" :: kv :: rest ->
      (match String.index_opt kv '=' with
      | Some i ->
        let k = String.sub kv 0 i in
        let v = int_arg (String.sub kv (i + 1) (String.length kv - i - 1)) in
        Pb_out.overrides := (k, v) :: !Pb_out.overrides
      | None -> usage ());
      parse rest
    | "--mesa-cli" :: p :: rest -> mesa_cli := p; parse rest
    | "--trace-out" :: p :: rest -> trace_out := p; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let trace_out =
    if !trace_out <> "" then !trace_out
    else Printf.sprintf ".perfbench/trace-%s-%d.json" !workload !seed
  in
  Pb_out.traced := !trace;
  let out = Pb_out.create !workload in
  Pb_out.note out "workload" !workload;
  Pb_out.note out "seed" (string_of_int !seed);
  let seed = !seed and seconds = !seconds and trace = !trace in
  (match !workload with
  | "figures" -> Pb_figures.run out ~seed ~seconds ~trace ~trace_out
  | "fuzz" -> Pb_fuzz.run out ~seed ~seconds ~trace ~trace_out
  | "search" -> Pb_search.run out ~seed ~seconds ~trace ~trace_out
  | "service" -> Pb_service.run out ~seed ~trace ~trace_out ~mesa_cli:!mesa_cli
  | _ -> usage ());
  if !Pb_sys.raw_total > 0.0 then
    Printf.printf "%-28s raw %.3f s, normalized %.3f s (host speed %.3f of nominal)\n"
      "timed units" !Pb_sys.raw_total !Pb_sys.normalized_total
      (!Pb_sys.normalized_total /. !Pb_sys.raw_total);
  exit (Pb_out.finish out)
