(* Host readouts shared by the workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Host-speed normalization. The CPU speed of a shared host drifts by a
   quarter over tens of seconds (neighbours' load moves its clock), which
   swamps a 10% change in the program. Each timed unit is therefore
   bracketed by a fixed calibration loop owned by the benchmark — integer
   hashing, scattered writes over a 4 MiB array, float arithmetic and short
   allocations, so it slows with the host the way the simulator does — and
   its time is rescaled to a host where that loop takes [nominal_s]:
   normalized = raw × nominal_s / calibration. The program cannot move the
   calibration, so a faster program still reads faster. A unit that keeps
   two domains busy is calibrated on two domains at once.

   The loop is compute, and a workload is only partly compute: streaming
   16 MiB memories and waiting on another process slow less than compute
   when the host gets busy. So a workload rescales by the calibration
   raised to [share], the power under which its own speed followed the
   host's: when the host went from busy to quiet and the calibration ran
   2.2x faster, figures ran 2.35x faster raw (share 1), search 1.5x for a
   1.7x calibration (0.8), the service 1.6x for 2.1x (0.65) and fuzz 1.3x
   for 1.8x on two domains (0.45); with share 1 the last three read 10%,
   25% and 30% slower on the quiet host. *)
let nominal_s = 0.040

let factor ?(share = 1.0) calibration = (nominal_s /. calibration) ** share

let calibration_words = ref 0.0

let calibrate_one scratch =
  let x = ref 0x1234567 and keep = ref [] and f = ref 1.0 in
  let mask = Array.length scratch - 1 in
  for i = 1 to 5_000_000 do
    x := ((!x * 0x5DEECE66D) + 11) land 0xFFFFFFFFFFFF;
    let j = (!x lsr 11) land mask in
    scratch.(j) <- scratch.(j) + i;
    f := (!f *. 1.0000001) +. float_of_int (j land 7);
    if i land 15 = 0 then
      keep := (j, !f) :: (if i land 1023 = 0 then [] else !keep)
  done;
  ignore (Sys.opaque_identity (!keep, !f))

let scratch = Array.init 2 (fun _ -> lazy (Array.make (1 lsl 19) 0))

let calibration ~domains =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let helper =
    if domains > 1 then
      let a = Lazy.force scratch.(1) in
      Some (Domain.spawn (fun () -> calibrate_one a))
    else None
  in
  calibrate_one (Lazy.force scratch.(0));
  Option.iter Domain.join helper;
  let dt = now () -. t0 in
  calibration_words := !calibration_words +. (Gc.minor_words () -. w0);
  dt

(* Raw and normalized seconds of all units timed so far, for the report. *)
let raw_total = ref 0.0
let normalized_total = ref 0.0

let timed ?(domains = 1) ?share f =
  let c0 = calibration ~domains in
  let v, raw = time f in
  let c1 = calibration ~domains in
  let norm = raw *. factor ?share ((c0 +. c1) /. 2.0) in
  raw_total := !raw_total +. raw;
  normalized_total := !normalized_total +. norm;
  (v, norm)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           | _ -> None)

type gc = { minor_words : float; major_words : float; major_collections : int }

(* The calibration loop's own allocations are left out. *)
let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words -. !calibration_words;
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* A deterministic permutation of [xs] drawn from [seed]: how the workloads
   whose inputs are pinned by goldens still take a seed. *)
let permute ~seed xs =
  let a = Array.of_list xs in
  Prng.shuffle (Prng.create (seed lxor 0x0BE7C4)) a;
  Array.to_list a

let chunks size l =
  List.init ((List.length l + size - 1) / size) (fun b ->
      List.filteri (fun i _ -> i / size = b) l)

(* Run [f] repeatedly until [seconds] have passed and at least [min] rounds
   are done; returns the results in order. *)
let repeat ~seconds ~min f =
  let t0 = now () in
  let rec go i acc =
    if i >= min && now () -. t0 >= seconds then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []

let report_rss out ?pid () =
  match peak_rss_mb ?pid () with
  | Some mb -> Pb_out.metric out "peak_rss_mb" "MB" mb
  | None -> Pb_out.fail out "cannot read VmHWM of %s" (Option.value pid ~default:"self")

(* The rate metrics of a workload that repeats fixed work: [runs] holds
   (simulated cycles, normalized seconds) per repetition ([what]), and every
   repetition must simulate the same cycles. *)
let report_runs out ~what runs =
  let n = List.length runs in
  let cycles = fst (List.hd runs) in
  Pb_out.check out
    (cycles > 0 && List.for_all (fun (c, _) -> c = cycles) runs)
    "%s simulated %s cycles" what
    (String.concat "/" (List.map (fun (c, _) -> string_of_int c) runs));
  let median f = Pbh.Pctl.median (List.map f runs) in
  Pb_out.metric out ~samples:n "sim_cycles_per_s" "cycles/s"
    (median (fun (c, dt) -> float_of_int c /. dt));
  Pb_out.metric out ~samples:n "latency_ms" "ms" (median (fun (_, dt) -> dt *. 1e3))
