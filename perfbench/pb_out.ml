(* What one benchmark run reports: operations attempted and failed, and the
   metrics with their units and sample counts; notes (seeds, digests) are
   printed as they come. [finish] prints a human table of every metric
   measured, then the one-line JSON result, and returns
   the exit code.

   The JSON holds exactly the metrics BENCHMARK.json names for the run's
   mode — [end_to_end] untraced, [per_layer] traced — which every workload
   measures. A workload's own figures (closed1.p90_ms, fuzz_cases_per_s,
   refine.confirmed, ...) are in the table only. A named metric that a run
   did not measure fails it. *)

let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("sim_cycles_per_s", "cycles/s"); ("latency_ms", "ms") ]

let per_layer =
  [
    ("mem.create_ms", "ms");
    ("mem.copy_ms", "ms");
    ("mem.equal_ms", "ms");
    ("mem.checksum_ms", "ms");
    ("mem.hier_create_ms", "ms");
    ("kernel.prepare_ms", "ms");
    ("kernel.check_ms", "ms");
    ("cpu.interp_ns_per_instr", "ns/instr");
    ("cpu.model_ns_per_instr", "ns/instr");
    ("controller.ns_per_cycle", "ns/cycle");
    ("translate.ldfg_ms", "ms");
    ("translate.map_ms", "ms");
    ("engine.ns_per_cycle", "ns/cycle");
    ("engine.calls", "count");
    ("cost_model.estimate_us", "us");
    ("gc.minor_words", "words");
    ("gc.major_words", "words");
    ("other.frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

type metric = { name : string; unit_ : string; value : float option; samples : int }

type t = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list;  (* newest first *)
}

let create workload = { workload; attempted = 0; failed = 0; metrics = [] }
let attempt t n = t.attempted <- t.attempted + n

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      Printf.eprintf "[%s] check failed: %s\n%!" t.workload msg)
    fmt

let check t ok fmt =
  if ok then Printf.ikfprintf (fun () -> ()) () fmt else fail t fmt

(* Whether this is the traced run, which reports [per_layer]. *)
let traced = ref false

let named () = if !traced then per_layer else end_to_end

let metric t ?(samples = 1) name unit_ value =
  (match List.assoc_opt name (named ()) with
  | Some u when u <> unit_ -> invalid_arg ("Pb_out.metric: unit of " ^ name)
  | _ -> ());
  t.metrics <- { name; unit_; value = Some value; samples } :: t.metrics

let unreached t name unit_ =
  t.metrics <- { name; unit_; value = None; samples = 0 } :: t.metrics

let setup t times =
  Printf.printf "%-28s %s\n%!" "setup_s samples"
    (String.concat " " (List.map (Printf.sprintf "%.4f") times));
  metric t ~samples:(List.length times) "setup_s" "s" (Pbh.Pctl.median times)

let note (_ : t) key value = Printf.printf "%-28s %s\n%!" key value

let correct t = t.failed = 0

let finish t =
  let metrics = List.rev t.metrics in
  let value name =
    List.find_map (fun m -> if m.name = name then m.value else None) metrics
  in
  List.iter
    (fun (name, _) -> if value name = None then fail t "metric %s was not measured" name)
    (named ());
  Printf.printf "\n%-34s %16s %-12s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m ->
      match m.value with
      | Some v -> Printf.printf "%-34s %16.6g %-12s %d\n" m.name v m.unit_ m.samples
      | None -> Printf.printf "%-34s %16s %-12s 0 (not reached)\n" m.name "-" m.unit_)
    metrics;
  let attempted = max 1 (max t.attempted t.failed) in
  Printf.printf "%-34s %d/%d\n" "failed/attempted" t.failed attempted;
  let json =
    Json.Assoc
      [
        ("correct", Json.Bool (correct t));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int t.failed);
        ( "metrics",
          Json.Assoc
            (List.filter_map
               (fun (name, unit_) ->
                 Option.map
                   (fun v ->
                     (name, Json.Assoc [ ("value", Json.Float v); ("unit", Json.String unit_) ]))
                   (value name))
               (named ())) );
      ]
  in
  print_string (Json.to_string ~indent:0 json);
  print_newline ();
  if correct t then 0 else 1

(* Pinned expected values, overridable from the command line
   ([--expect KEY=VALUE]) so a test can doctor one and watch the run fail. *)
let overrides : (string * int) list ref = ref []
let expect key default = Option.value (List.assoc_opt key !overrides) ~default
