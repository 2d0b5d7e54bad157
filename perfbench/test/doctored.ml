(* A doctored expected value must fail the run: the fuzz workload (its
   minimum of three timed rounds) exits 0 with its recorded digest and
   non-zero, printing "correct":false, when the digest is doctored. *)

let run exe extra =
  let out = Filename.temp_file "perfbench" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let args =
    Array.of_list
      ([ exe; "--workload"; "fuzz"; "--seed"; "1"; "--seconds"; "0.001"; "--trace"; "0" ]
      @ extra)
  in
  let pid = Unix.create_process exe args Unix.stdin fd null in
  Unix.close fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let lines = String.split_on_char '\n' (String.trim (In_channel.with_open_text out In_channel.input_all)) in
  Sys.remove out;
  (status, List.nth lines (List.length lines - 1))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let () =
  let exe = Sys.argv.(1) in
  (match run exe [] with
  | Unix.WEXITED 0, last when contains last "\"correct\":true" -> ()
  | _, last -> failwith ("undoctored run should pass; last line: " ^ last));
  match run exe [ "--expect"; "fuzz.digest=12345" ] with
  | Unix.WEXITED n, last when n <> 0 && contains last "\"correct\":false" -> ()
  | _, last -> failwith ("doctored run should fail; last line: " ^ last)
