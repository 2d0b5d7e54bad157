open Pbh

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_min_samples () =
  Alcotest.(check int) "p50" 20 (Pctl.min_samples 50);
  Alcotest.(check int) "p90" 100 (Pctl.min_samples 90);
  Alcotest.(check int) "p99" 1000 (Pctl.min_samples 99)

let test_quantile_floor () =
  Alcotest.(check (result (float 0.0) int)) "99 samples refuse p90" (Error 100)
    (Pctl.quantile 90 (floats 99));
  Alcotest.(check (result (float 0.0) int)) "100 samples give p90" (Ok 90.0)
    (Pctl.quantile 90 (floats 100));
  Alcotest.(check (result (float 0.0) int)) "p50 of 20" (Ok 10.0) (Pctl.quantile 50 (floats 20))

let above pct samples =
  match Pctl.quantile pct samples with
  | Error _ -> 0
  | Ok v -> List.length (List.filter (fun x -> x > v) samples)

(* Whenever a percentile is reported, at least ten samples lie above it. *)
let test_tail_kept () =
  List.iter
    (fun pct ->
      for n = 1 to 400 do
        match Pctl.quantile pct (List.rev (floats n)) with
        | Error need -> Alcotest.(check bool) "refused below the floor" true (n < need)
        | Ok _ ->
          if above pct (floats n) < 10 then
            Alcotest.failf "p%d of %d samples keeps %d above" pct n (above pct (floats n))
      done)
    [ 50; 75; 90; 95 ]

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Pctl.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Pctl.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_schedule_pure () =
  let a = Arrivals.schedule ~seed:7 ~rate:20.0 ~count:200 in
  let b = Arrivals.schedule ~seed:7 ~rate:20.0 ~count:200 in
  let c = Arrivals.schedule ~seed:8 ~rate:20.0 ~count:200 in
  Alcotest.(check (array (float 0.0))) "same seed, same schedule" a b;
  Alcotest.(check bool) "another seed, another schedule" true (a <> c);
  Array.iteri
    (fun i t ->
      let prev = if i = 0 then 0.0 else a.(i - 1) in
      let gap = t -. prev in
      if gap < 0.0375 || gap > 0.0625 then Alcotest.failf "gap %d is %g s" i gap)
    a;
  let mean_rate = 200.0 /. a.(199) in
  Alcotest.(check bool) "mean rate near 20/s" true (Float.abs (mean_rate -. 20.0) < 1.0)

let span id name ~start ~stop ~parent =
  { Spans.id; name; start; stop; parent; req = 0 }

let test_self_time () =
  let spans =
    [
      span 0 "unit" ~start:0.0 ~stop:10.0 ~parent:(-1);
      span 1 "mem.create" ~start:1.0 ~stop:3.0 ~parent:0;
      span 2 "controller.run" ~start:3.0 ~stop:7.0 ~parent:0;
      (* a grandchild does not reduce the unit's self time twice *)
      span 3 "engine.execute" ~start:4.0 ~stop:6.0 ~parent:2;
      span 4 "mem.checksum" ~start:7.0 ~stop:8.0 ~parent:0;
    ]
  in
  let self name =
    Spans.self_time spans (List.find (fun s -> s.Spans.name = name) spans)
  in
  Alcotest.(check (float 1e-9)) "unit self" 3.0 (self "unit");
  Alcotest.(check (float 1e-9)) "controller self" 2.0 (self "controller.run");
  Alcotest.(check (float 1e-9)) "leaf self" 2.0 (self "engine.execute");
  Alcotest.(check (float 1e-9)) "other = structural self time" 3.0 (Spans.other spans);
  Alcotest.(check (float 1e-9)) "root total" 10.0 (Spans.root_total spans);
  let total_self =
    List.fold_left (fun a r -> a +. r.Spans.r_self) 0.0 (Spans.by_name spans)
  in
  Alcotest.(check (float 1e-9)) "self times partition the root" 10.0 total_self;
  (match Spans.to_trace spans with
  | u :: m :: _ ->
    Alcotest.(check (pair int int)) "unit event in us" (0, 10_000_000) (u.Trace.ts, u.Trace.dur);
    Alcotest.(check (pair int int)) "child event in us" (1_000_000, 2_000_000)
      (m.Trace.ts, m.Trace.dur);
    Alcotest.(check bool) "self time in args" true
      (List.assoc "self_us" u.Trace.args = Json.Float 3e6)
  | _ -> Alcotest.fail "no trace events");
  (* overlapping children count their union once *)
  let overlap =
    [
      span 0 "unit" ~start:0.0 ~stop:10.0 ~parent:(-1);
      span 1 "mem.copy" ~start:1.0 ~stop:4.0 ~parent:0;
      span 2 "mem.equal" ~start:3.0 ~stop:5.0 ~parent:0;
      span 3 "mem.checksum" ~start:9.0 ~stop:12.0 ~parent:0;
    ]
  in
  Alcotest.(check (float 1e-9)) "union, clipped to the parent" 5.0
    (Spans.self_time overlap (List.hd overlap))

let test_recorder () =
  let t = Spans.create () in
  let v =
    Spans.with_span t ~req:3 "unit" (fun () ->
        Spans.with_span t ~req:3 "mem.create" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "value" 42 v;
  match Spans.spans t with
  | [ u; m ] ->
    Alcotest.(check int) "parent" u.Spans.id m.Spans.parent;
    Alcotest.(check int) "root" (-1) u.Spans.parent;
    Alcotest.(check int) "req" 3 m.Spans.req;
    let quiet = Spans.create ~enabled:false () in
    Spans.with_span quiet "unit" (fun () -> ());
    Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans quiet))
  | l -> Alcotest.failf "%d spans" (List.length l)

let daemon_line ~seq ~at ~req phase ?(outcome = "") () =
  let sp =
    {
      Telemetry.sp_seq = seq;
      sp_at_ms = at;
      sp_req = req;
      sp_kernel = "nn";
      sp_shard = 0;
      sp_phase = phase;
      sp_outcome = outcome;
      sp_detail = "";
    }
  in
  Proto.response_to_line { Proto.rsp_id = 9; body = Proto.Span (Telemetry.span_to_json sp) }

let test_daemon_trace () =
  let lines =
    [
      daemon_line ~seq:0 ~at:10.0 ~req:5 Telemetry.Admit ();
      daemon_line ~seq:1 ~at:10.5 ~req:5 Telemetry.Queue ();
      daemon_line ~seq:2 ~at:10.6 ~req:5 Telemetry.Translate ();
      daemon_line ~seq:3 ~at:60.5 ~req:5 Telemetry.Execute ();
      daemon_line ~seq:4 ~at:61.0 ~req:5 Telemetry.Resolve ~outcome:"ok" ();
      daemon_line ~seq:5 ~at:11.0 ~req:6 Telemetry.Admit ();
      daemon_line ~seq:6 ~at:20.0 ~req:(-1) Telemetry.Breaker ();
      Proto.response_to_line { Proto.rsp_id = 9; body = Proto.End_stream };
    ]
  in
  let parsed = List.map Dtrace.parse_line lines in
  let spans =
    List.filter_map (function Ok (Dtrace.Span s) -> Some s | _ -> None) parsed
  in
  Alcotest.(check int) "spans decoded" 7 (List.length spans);
  Alcotest.(check bool) "end marker" true (List.nth parsed 7 = Ok Dtrace.End);
  Alcotest.(check bool) "garbage is an error" true
    (Result.is_error (Dtrace.parse_line "{not json"));
  match Dtrace.join spans with
  | [ (5, p); (6, q) ] ->
    let opt = Alcotest.(option (float 1e-9)) in
    Alcotest.check opt "queue wait" (Some 0.5) (Dtrace.queue_wait_ms p);
    Alcotest.check opt "exec" (Some 50.0) (Dtrace.exec_ms p);
    Alcotest.check opt "server" (Some 51.0) (Dtrace.server_ms p);
    Alcotest.(check string) "outcome" "ok" p.Dtrace.outcome;
    Alcotest.check opt "unresolved request has no server time" None (Dtrace.server_ms q)
  | l -> Alcotest.failf "joined %d requests" (List.length l)

let test_digest () =
  let p i = { Lgdigest.index = i; outcome = "ok"; cycles = 100 + i; mem_checksum = 7;
              site = "fabric"; shard = i mod 2; retries = 0; quarantines = 0 } in
  let a = Lgdigest.digest [ p 0; p 1 ] in
  Alcotest.(check int) "stable" a (Lgdigest.digest [ p 0; p 1 ]);
  Alcotest.(check bool) "order matters" true (a <> Lgdigest.digest [ p 1; p 0 ]);
  Alcotest.(check bool) "non-negative" true (a >= 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "sample floor" `Quick test_min_samples;
          Alcotest.test_case "refuse below the floor" `Quick test_quantile_floor;
          Alcotest.test_case "ten samples above" `Quick test_tail_kept;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("arrivals", [ Alcotest.test_case "pure function of the seed" `Quick test_schedule_pure ]);
      ( "spans",
        [
          Alcotest.test_case "self time and other" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ("daemon trace", [ Alcotest.test_case "parse and join" `Quick test_daemon_trace ]);
      ("digest", [ Alcotest.test_case "loadgen digest" `Quick test_digest ]);
    ]
