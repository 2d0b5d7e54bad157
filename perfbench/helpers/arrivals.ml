(* Seeded open-loop send schedule. Gaps are drawn uniformly from
   [(1 - jitter) / rate, (1 + jitter) / rate]: the mean rate is exact, and
   the bounded jitter keeps requests from phase-locking with the daemon's
   service time without the idle/burst runs of a Poisson stream. Bursts
   queue, and on a host whose speed drifts a queue's p90 swings far more
   than the service time does (jitter 0.5 gave open20.p90 a run-to-run
   spread of 0.17, three times that of closed1.p90), so the jitter is kept
   to a quarter of the period. *)

let jitter = 0.25

let schedule ~seed ~rate ~count =
  if rate <= 0.0 then invalid_arg "Arrivals.schedule: rate > 0";
  if count < 0 then invalid_arg "Arrivals.schedule: count >= 0";
  let rng = Prng.create (seed lxor 0x0A11_1BE5) in
  let period = 1.0 /. rate in
  let t = ref 0.0 in
  Array.init count (fun _ ->
      let gap =
        period *. Prng.float_in rng (1.0 -. jitter) (1.0 +. jitter)
      in
      t := !t +. gap;
      !t)
