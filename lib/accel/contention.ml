(* Slot-based contention model as a sliding ring.

   The naive model kept a cycle -> occupancy map and, on each claim,
   scanned forward one cycle at a time until it found spare capacity. On an
   oversubscribed resource (a port-bound kernel) the free frontier runs
   ahead of the ready times, so every claim re-walks the same run of full
   cycles: O(iterations^2) over an execution.

   This implementation keeps the same observable semantics — a claim books
   the first cycle at or after its ready time with spare capacity, and a
   late claim can still fill an earlier idle slot — but:

   - every full cycle carries a union-find style skip pointer to the next
     candidate cycle. A cycle can never become non-full (slots are never
     released), so a skip pointer only ever chases forward toward the first
     free cycle, and path compression makes repeated claims into the same
     full run near-constant amortized;
   - the counts and pointers live in a ring over the live window
     [floor, frontier): cycle [c] sits at [c land mask], no hashing. Every
     cycle at or beyond the frontier is untouched (count 0), so its slot is
     cleared only when a claim first moves the frontier past it, and a
     reset just moves both ends back to 0. Callers [retire] the cycles no
     later claim can reach, so the ring spans the claims in flight rather
     than the whole execution, and doubles only when that span outgrows
     it. *)

type t = {
  mutable capacity : int;
  mutable mask : int;  (* ring size - 1; size is a power of two *)
  mutable cnt : int array;  (* operations started that cycle *)
  mutable nxt : int array;  (* skip pointer, meaningful once the cycle is full *)
  mutable floor : int;  (* cycles below are retired *)
  mutable frontier : int;  (* cycles at or beyond hold no claim *)
  mutable occupied : int;  (* distinct cycles with >= 1 operation *)
  mutable claimed : int;
  mutable last_slot : int;  (* sub-slot taken by the most recent claim *)
}

let initial_size = 64

let create ~capacity =
  if capacity <= 0 then invalid_arg "Contention.create: capacity must be positive";
  {
    capacity;
    mask = initial_size - 1;
    cnt = Array.make initial_size 0;
    nxt = Array.make initial_size 0;
    floor = 0;
    frontier = 0;
    occupied = 0;
    claimed = 0;
    last_slot = 0;
  }

(* Whether cycle [c] (>= floor) has no spare capacity. *)
let[@inline] full t c = c < t.frontier && t.cnt.(c land t.mask) >= t.capacity

(* The first cycle >= [c] with spare capacity, along the skip chain. *)
let rec walk t c = if full t c then walk t t.nxt.(c land t.mask) else c

(* First cycle with spare capacity after the full cycle [c]. Walks the skip
   chain of full cycles, then compresses the whole chain to the answer so
   the next claim lands in O(1). *)
let find_free t c =
  let next = t.nxt.(c land t.mask) in
  let free = walk t next in
  t.nxt.(c land t.mask) <- free;
  let c = ref next in
  while
    !c <> free
    && full t !c
    && begin
      let j = !c land t.mask in
      let n = t.nxt.(j) in
      t.nxt.(j) <- free;
      c := n;
      true
    end
  do
    ()
  done;
  free

(* Double the ring until it holds [span] cycles, keeping the window. *)
let grow t span =
  let size = ref ((t.mask + 1) * 2) in
  while !size < span do
    size := !size * 2
  done;
  let mask = !size - 1 in
  let cnt = Array.make !size 0 and nxt = Array.make !size 0 in
  for c = t.floor to t.frontier - 1 do
    cnt.(c land mask) <- t.cnt.(c land t.mask);
    nxt.(c land mask) <- t.nxt.(c land t.mask)
  done;
  t.mask <- mask;
  t.cnt <- cnt;
  t.nxt <- nxt

(* Book one operation in cycle [c], at slot [i], which holds [used] <
   capacity operations, and return [c]. *)
let[@inline] take t c i used =
  if used = 0 then t.occupied <- t.occupied + 1;
  t.cnt.(i) <- used + 1;
  if used + 1 >= t.capacity then t.nxt.(i) <- c + 1;
  t.claimed <- t.claimed + 1;
  t.last_slot <- used;
  c

(* Book cycle [c] at or beyond the frontier: move the frontier past it,
   clearing the slots the window gains (growing the ring first if the
   window would outgrow it). *)
let take_fresh t c =
  if c - t.floor > t.mask then grow t (c - t.floor + 1);
  let mask = t.mask and cnt = t.cnt in
  for k = t.frontier to c - 1 do
    cnt.(k land mask) <- 0
  done;
  t.frontier <- c + 1;
  take t c (c land mask) 0

(* The common case, a start cycle with spare capacity, costs one slot
   read; only a full start cycle walks (and compresses) the skip chain. *)
let claim_cycle t start =
  if start < t.floor then invalid_arg "Contention.claim_cycle: claim below the floor";
  if start >= t.frontier then take_fresh t start
  else begin
    let i = start land t.mask in
    let used = t.cnt.(i) in
    if used < t.capacity then take t start i used
    else begin
      let c = find_free t start in
      if c >= t.frontier then take_fresh t c
      else
        let i = c land t.mask in
        take t c i t.cnt.(i)
    end
  end

let retire t floor =
  if floor > t.floor then begin
    t.floor <- floor;
    if floor > t.frontier then t.frontier <- floor
  end

let last_slot t = t.last_slot
let claimed t = t.claimed
let busy_cycles t = t.occupied

let reset ?capacity t =
  (match capacity with
  | None -> ()
  | Some c ->
    if c <= 0 then invalid_arg "Contention.reset: capacity must be positive";
    t.capacity <- c);
  t.floor <- 0;
  t.frontier <- 0;
  t.occupied <- 0;
  t.claimed <- 0;
  t.last_slot <- 0
