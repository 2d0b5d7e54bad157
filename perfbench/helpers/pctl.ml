(* Percentiles that keep at least ten samples above the reported rank.

   A p90 read from 30 samples is decided by the three slowest ones, so one
   scheduler hiccup moves it by the whole tail. Requiring ten samples above
   the rank bounds that: p50 needs 20 samples, p90 100, p99 1000.
   Percentiles are whole numbers so the sample floor is exact integer
   arithmetic. *)

let tail = 10

let min_samples pct =
  if pct < 1 || pct > 99 then invalid_arg "Pctl.min_samples: pct in 1..99";
  (* smallest n with floor ((100 - pct) * n / 100) >= tail *)
  ((100 * tail) + (100 - pct) - 1) / (100 - pct)

(* Nearest rank: the [ceil (pct * n / 100)]-th smallest sample. *)
let nearest_rank sorted pct =
  let n = Array.length sorted in
  let rank = ((pct * n) + 99) / 100 in
  sorted.(max 0 (rank - 1))

let sorted_copy samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let quantile pct samples =
  let need = min_samples pct in
  let n = List.length samples in
  if n < need then Error need else Ok (nearest_rank (sorted_copy samples) pct)

let median samples =
  match sorted_copy samples with
  | [||] -> invalid_arg "Pctl.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
