(* A page table of 4 KiB pages. Every page starts out aliasing [zero_page],
   which is never written: the first store into a page gives it a private
   copy. A default 16 MiB memory therefore costs one 4096-entry array until
   the program touches it, and every whole-memory operation below walks the
   table, doing byte work only on allocated pages. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

type t = { size : int; pages : Bytes.t array }

let create ?(size = 16 * 1024 * 1024) () =
  if size < 0 then invalid_arg "Main_memory.create: negative size";
  { size; pages = Array.make ((size + page_mask) lsr page_bits) zero_page }

let release _ = ()
let size t = t.size

let check t addr width =
  if addr < 0 || addr + width > t.size then
    invalid_arg (Printf.sprintf "Main_memory: access at 0x%x width %d out of bounds" addr width)

(* The page holding [addr], for reading. *)
let page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

(* The page holding [addr], for writing: a zero page is replaced by a
   private one first. *)
let wpage t addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set t.pages i p;
    p
  end

(* Whether a [width]-byte access at [addr] stays inside one page; the rest
   take the byte-wise little-endian slow path. *)
let in_page addr width = addr land page_mask <= page_size - width

let get_u8 t addr = Char.code (Bytes.unsafe_get (page t addr) (addr land page_mask))

let set_u8 t addr v =
  Bytes.unsafe_set (wpage t addr) (addr land page_mask) (Char.unsafe_chr (v land 0xFF))

let get_slow t addr width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor get_u8 t (addr + i)
  done;
  !v

let set_slow t addr width v =
  for i = 0 to width - 1 do
    set_u8 t (addr + i) (v lsr (8 * i))
  done

let sign_extend ~bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let load_byte_u t addr =
  check t addr 1;
  get_u8 t addr

let load_byte t addr = sign_extend ~bits:8 (load_byte_u t addr)

let load_half_u t addr =
  check t addr 2;
  if in_page addr 2 then Bytes.get_uint16_le (page t addr) (addr land page_mask)
  else get_slow t addr 2

let load_half t addr = sign_extend ~bits:16 (load_half_u t addr)

let load_word t addr =
  check t addr 4;
  if in_page addr 4 then Int32.to_int (Bytes.get_int32_le (page t addr) (addr land page_mask))
  else sign_extend ~bits:32 (get_slow t addr 4)

let store_word t addr v =
  check t addr 4;
  if in_page addr 4 then Bytes.set_int32_le (wpage t addr) (addr land page_mask) (Int32.of_int v)
  else set_slow t addr 4 v

let store_byte t addr v =
  check t addr 1;
  set_u8 t addr v

let store_half t addr v =
  check t addr 2;
  if in_page addr 2 then Bytes.set_uint16_le (wpage t addr) (addr land page_mask) (v land 0xFFFF)
  else set_slow t addr 2 v

let load_float32 t addr = Int32.float_of_bits (Int32.of_int (load_word t addr))
let store_float32 t addr f = store_word t addr (Int32.to_int (Int32.bits_of_float f))

let copy t =
  { t with pages = Array.map (fun p -> if p == zero_page then p else Bytes.copy p) t.pages }

let restore t ~from =
  if t.size <> from.size then invalid_arg "Main_memory.restore: size mismatch";
  Array.iteri
    (fun i src ->
      let dst = t.pages.(i) in
      if src == zero_page then t.pages.(i) <- zero_page
      else if dst == zero_page then t.pages.(i) <- Bytes.copy src
      else Bytes.blit src 0 dst 0 page_size)
    from.pages

let equal a b =
  a.size = b.size
  && Array.for_all2 (fun p q -> p == q || Bytes.equal p q) a.pages b.pages

(* FNV-1a with the offset basis truncated to OCaml's 63-bit int, folded to a
   non-negative value so it prints identically on every 64-bit platform.
   Hashing a zero byte is [h * prime], so [k] zero bytes are [h * prime^k]
   in the same wrapping arithmetic: a zero page folds in one multiply. *)
let fnv_prime = 0x100000001b3

let rec fnv_prime_pow k =
  if k = 0 then 1
  else
    let h = fnv_prime_pow (k / 2) in
    if k land 1 = 0 then h * h else h * h * fnv_prime

let zero_page_factor = fnv_prime_pow page_size

let checksum t =
  let h = ref 0x3bf29ce484222325 in
  Array.iteri
    (fun i p ->
      let len = min page_size (t.size - (i lsl page_bits)) in
      if p == zero_page then
        h := !h * (if len = page_size then zero_page_factor else fnv_prime_pow len)
      else
        for j = 0 to len - 1 do
          h := (!h lxor Char.code (Bytes.unsafe_get p j)) * fnv_prime
        done)
    t.pages;
  !h land max_int

let blit_words t addr ws =
  Array.iteri (fun i w -> store_word t (addr + (4 * i)) w) ws

let blit_floats t addr fs =
  Array.iteri (fun i f -> store_float32 t (addr + (4 * i)) f) fs

let read_words t addr n = Array.init n (fun i -> load_word t (addr + (4 * i)))
let read_floats t addr n = Array.init n (fun i -> load_float32 t (addr + (4 * i)))
