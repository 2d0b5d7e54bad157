let check = Alcotest.check

let schedule_slots_consistent () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "gaussian") in
  let model = Perf_model.create dfg in
  let placement =
    Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model)
  in
  let slots = Schedule_view.compute model placement in
  check Alcotest.int "one slot per node" (Dfg.node_count dfg) (Array.length slots);
  Array.iteri
    (fun i s ->
      check Alcotest.int "indexed" i s.Schedule_view.node;
      check Alcotest.bool "duration = op latency" true
        (Float.abs (s.Schedule_view.finish -. s.Schedule_view.start
                    -. Perf_model.op_latency model i)
        < 1e-9))
    slots;
  check (Alcotest.float 1e-9) "makespan = model latency"
    (Perf_model.iteration_latency model)
    (Schedule_view.makespan slots);
  (* Dependencies never start before their producers finish. *)
  Array.iteri
    (fun j nd ->
      Array.iter
        (function
          | Dfg.Node i ->
            check Alcotest.bool "producer first" true
              (slots.(i).Schedule_view.finish <= slots.(j).Schedule_view.start +. 1e-9)
          | Dfg.Reg_in _ -> ())
        nd.Dfg.srcs)
    dfg.Dfg.nodes

let schedule_gantt_renders () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "nn") in
  let model = Perf_model.create dfg in
  let placement =
    Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model)
  in
  let slots = Schedule_view.compute model placement in
  let g = Schedule_view.gantt dfg slots in
  check Alcotest.bool "has bars" true (String.exists (( = ) '=') g);
  check Alcotest.bool "mentions LS entries" true
    (String.length g > 0
    && String.split_on_char '\n' g
       |> List.exists (fun l -> String.length l > 6 && String.sub l 5 2 = "LS"))

let suites =
  [
    ( "schedule_view",
      [
        Alcotest.test_case "slots consistent" `Quick schedule_slots_consistent;
        Alcotest.test_case "gantt renders" `Quick schedule_gantt_renders;
      ] );
  ]
