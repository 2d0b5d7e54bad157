(* See fuzz.mli. Everything here is deterministic from the master seed:
   per-case seeds are drawn sequentially before any work is distributed, so
   the worker count never changes what each case computes. *)

type fabric = {
  rows : int;
  cols : int;
  ports : int;
  kind : Interconnect.kind;
  l1_kb : int;
  l2_kb : int;
  profile : bool;
}

(* The same axes the PR 4 differential qcheck draws from, plus the DSE's
   cache-size axes. *)
let rows_choices = [| 4; 6; 8; 16 |]
let cols_choices = [| 4; 8 |]
let ports_choices = [| 1; 2; 4; 8; 16 |]

let kind_choices =
  [| Interconnect.Mesh_noc; Interconnect.Hierarchical_rows; Interconnect.Pure_mesh |]

let l1_choices = [| 16; 32; 64 |]
let l2_choices = [| 1024; 4096; 8192 |]
let pick rng a = a.(Prng.int rng (Array.length a))

let draw_fabric rng =
  {
    rows = pick rng rows_choices;
    cols = pick rng cols_choices;
    ports = pick rng ports_choices;
    kind = pick rng kind_choices;
    l1_kb = pick rng l1_choices;
    l2_kb = pick rng l2_choices;
    profile = Prng.int rng 8 = 0;
  }

let fabric_to_string f =
  Printf.sprintf "%dx%d ports=%d %s L1:%dK L2:%dK%s" f.rows f.cols f.ports
    (Dse.kind_to_string f.kind) f.l1_kb f.l2_kb
    (if f.profile then " +profile" else "")

let fabric_to_json f =
  Json.Assoc
    [
      ("rows", Json.Int f.rows);
      ("cols", Json.Int f.cols);
      ("ports", Json.Int f.ports);
      ("kind", Json.String (Dse.kind_to_string f.kind));
      ("l1_kb", Json.Int f.l1_kb);
      ("l2_kb", Json.Int f.l2_kb);
      ("profile", Json.Bool f.profile);
    ]

let fabric_of_json j =
  let ( let* ) = Result.bind in
  let int k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "fabric: missing %s" k)
  in
  let* rows = int "rows" in
  let* cols = int "cols" in
  let* ports = int "ports" in
  let* l1_kb = int "l1_kb" in
  let* l2_kb = int "l2_kb" in
  let* kind =
    match Json.member "kind" j with
    | Some (Json.String s) -> Dse.kind_of_string s
    | _ -> Error "fabric: missing kind"
  in
  let profile =
    match Json.member "profile" j with Some (Json.Bool b) -> b | _ -> false
  in
  Ok { rows; cols; ports; kind; l1_kb; l2_kb; profile }

(* ------------------------------------------------------------------ *)
(* One differential case.                                              *)

type observation = { cycles : int; offloads : int; mem_checksum : int }

let hier_config (f : fabric) =
  let dc = Hierarchy.default_config in
  {
    dc with
    Hierarchy.l1 =
      Cache.config ~size_bytes:(f.l1_kb * 1024) ~ways:dc.Hierarchy.l1.Cache.ways
        ~line_bytes:dc.Hierarchy.l1.Cache.line_bytes
        ~hit_latency:dc.Hierarchy.l1.Cache.hit_latency;
    l2 =
      Cache.config ~size_bytes:(f.l2_kb * 1024) ~ways:dc.Hierarchy.l2.Cache.ways
        ~line_bytes:dc.Hierarchy.l2.Cache.line_bytes
        ~hit_latency:dc.Hierarchy.l2.Cache.hit_latency;
  }

let run_case ?defect spec (f : fabric) =
  let ( let* ) = Result.bind in
  let* b = Tile_lower.lower ?defect spec in
  let mem = Main_memory.create () in
  b.Tile_lower.setup mem;
  let machine = Machine.create ~pc:(Program.entry b.Tile_lower.program) mem in
  Machine.set_args machine (b.Tile_lower.args ~lo:0 ~hi:b.Tile_lower.n);
  let expected = Machine.copy machine ~mem:(Main_memory.copy mem) () in
  let i_halt, _ = Interp.run b.Tile_lower.program expected in
  let* () =
    if i_halt = Interp.Ecall_halt then Ok ()
    else Error "interpreter did not reach ecall"
  in
  let grid = Grid.make ~rows:f.rows ~cols:f.cols ~mem_ports:f.ports () in
  let options =
    { (Controller.default_options ~grid ~profile:f.profile ()) with
      Controller.kind = f.kind }
  in
  let hier = Hierarchy.create (hier_config f) in
  let report = Controller.run ~options ~hier b.Tile_lower.program machine in
  let* () =
    if report.Controller.halt = Interp.Ecall_halt then Ok ()
    else Error "controller did not reach ecall"
  in
  let* () =
    if Main_memory.equal expected.Machine.mem mem then Ok ()
    else Error "memory differs from the interpreter"
  in
  let* () =
    if Machine.arch_equal expected machine then Ok ()
    else Error "architectural registers differ from the interpreter"
  in
  let* () =
    match b.Tile_lower.check mem with
    | Ok () -> Ok ()
    | Error e -> Error ("DSL reference mismatch: " ^ e)
  in
  let* () =
    if
      report.Controller.total_cycles
      = report.Controller.cpu_cycles + report.Controller.accel_cycles
        + report.Controller.overhead_cycles
    then Ok ()
    else Error "cycle accounting does not close"
  in
  let* () =
    if not f.profile then Ok ()
    else
      match Profile.of_report ~kernel:spec.Tile_dsl.sname report with
      | Error e -> Error ("profile: " ^ e)
      | Ok p ->
        if
          Profile.closes p
          && p.Profile.attributed_cycles
             = report.Controller.accel_cycles + report.Controller.overhead_cycles
        then Ok ()
        else Error "stall attribution does not close"
  in
  Ok
    {
      cycles = report.Controller.total_cycles;
      offloads = report.Controller.offloads;
      mem_checksum = Main_memory.checksum mem;
    }

(* ------------------------------------------------------------------ *)
(* Shrinking.                                                          *)

type failure = {
  index : int;
  kernel_seed : int;
  fabric : fabric;
  detail : string;
  spec : Tile_dsl.spec;
  shrunk : Tile_dsl.spec;
  shrunk_detail : string;
  shrink_steps : int;
}

let shrink ?defect ?(max_attempts = 300) spec fabric =
  let attempts = ref 0 in
  let fails s =
    if !attempts >= max_attempts then None
    else begin
      incr attempts;
      match run_case ?defect s fabric with Ok _ -> None | Error d -> Some d
    end
  in
  match fails spec with
  | None -> (spec, "not reproducible", 0)
  | Some detail0 ->
    let rec go current detail steps =
      let rec first = function
        | [] -> None
        | c :: rest -> (
          match fails c with Some d -> Some (c, d) | None -> first rest)
      in
      match first (Tile_gen.shrink_candidates current) with
      | Some (c, d) when !attempts < max_attempts -> go c d (steps + 1)
      | Some (c, d) -> (c, d, steps + 1)
      | None -> (current, detail, steps)
    in
    go spec detail0 0

(* ------------------------------------------------------------------ *)
(* The campaign.                                                       *)

type summary = {
  cases : int;
  offloaded_cases : int;
  total_offloads : int;
  failures : failure list;
  digest : int;
}

let fnv_prime = 0x100000001b3

let fnv acc x =
  let acc = (acc lxor (x land 0xFFFFFFFF)) * fnv_prime in
  ((acc lxor (x lsr 32)) * fnv_prime) land max_int

let run ?jobs ?defect ?(max_shrink = 300) ~seed ~count () =
  let master = Prng.create seed in
  let cases =
    List.init count (fun i ->
        let kernel_seed = Int64.to_int (Prng.bits64 master) land max_int in
        let fabric_seed = Int64.to_int (Prng.bits64 master) land max_int in
        (i, kernel_seed, fabric_seed))
  in
  let results =
    Pool.run ?jobs
      (fun (i, kernel_seed, fabric_seed) ->
        let spec = Tile_gen.generate ~seed:kernel_seed in
        let fabric = draw_fabric (Prng.create fabric_seed) in
        match run_case ?defect spec fabric with
        | Ok obs -> Ok (i, obs)
        | Error detail ->
          let shrunk, shrunk_detail, shrink_steps =
            shrink ?defect ~max_attempts:max_shrink spec fabric
          in
          Error
            {
              index = i;
              kernel_seed;
              fabric;
              detail;
              spec;
              shrunk;
              shrunk_detail;
              shrink_steps;
            })
      cases
  in
  let summary =
    List.fold_left
      (fun acc r ->
        match r with
        | Ok (_, obs) ->
          {
            acc with
            offloaded_cases = acc.offloaded_cases + (if obs.offloads > 0 then 1 else 0);
            total_offloads = acc.total_offloads + obs.offloads;
            digest =
              fnv (fnv (fnv acc.digest obs.cycles) obs.offloads) obs.mem_checksum;
          }
        | Error f ->
          { acc with failures = f :: acc.failures; digest = fnv acc.digest (-1) })
      { cases = count; offloaded_cases = 0; total_offloads = 0; failures = [];
        digest = Int64.to_int 0xcbf29ce484222325L land max_int }
      results
  in
  { summary with failures = List.rev summary.failures }

(* ------------------------------------------------------------------ *)
(* Corpus.                                                             *)

let failure_to_json ~master_seed f =
  let listing spec =
    match Tile_lower.lower spec with
    | Ok b ->
      Json.List
        (String.split_on_char '\n' (Disasm.listing b.Tile_lower.program)
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> Json.String l))
    | Error e -> Json.String ("unloaderable: " ^ e)
  in
  Json.Assoc
    [
      ("master_seed", Json.Int master_seed);
      ("index", Json.Int f.index);
      ("kernel_seed", Json.Int f.kernel_seed);
      ("fabric", fabric_to_json f.fabric);
      ("detail", Json.String f.detail);
      ("shrunk_detail", Json.String f.shrunk_detail);
      ("shrink_steps", Json.Int f.shrink_steps);
      ("shrunk_statements", Json.Int (Tile_dsl.stmt_count f.shrunk));
      ("spec", Tile_dsl.to_json f.spec);
      ("shrunk", Tile_dsl.to_json f.shrunk);
      ("shrunk_pretty", Json.String (Tile_dsl.to_string f.shrunk));
      ("disasm", listing f.shrunk);
    ]

let write_corpus ~dir ~master_seed f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "fail-%04d.json" f.index) in
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:2 (failure_to_json ~master_seed f));
  output_string oc "\n";
  close_out oc;
  path

let replay ?defect j =
  let ( let* ) = Result.bind in
  let* spec =
    match Json.member "shrunk" j with
    | Some s -> Tile_dsl.of_json s
    | None -> (
      match Json.member "spec" j with
      | Some s -> Tile_dsl.of_json s
      | None -> Error "corpus entry has no spec")
  in
  let* fabric =
    match Json.member "fabric" j with
    | Some f -> fabric_of_json f
    | None -> Error "corpus entry has no fabric"
  in
  run_case ?defect spec fabric
