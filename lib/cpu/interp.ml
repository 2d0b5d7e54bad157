type halt = Exited | Ecall_halt | Step_limit | Fault of string

type event = {
  mutable addr : int;
  mutable instr : Isa.t;
  mutable mem_addr : int;
  mutable taken : bool;
  mutable next_pc : int;
}

let blank_event () =
  { addr = 0; instr = Isa.Fence; mem_addr = 0; taken = false; next_pc = 0 }

(* {!Machine}'s conversions and register accessors, restated so that the
   stepper's calls are direct and its floats stay unboxed: across a module
   boundary (and always under [-opaque]) each would be an indirect call,
   and every FP register read or write would box its value. *)
let[@inline] s32 v = (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)
let[@inline] u32 v = v land 0xFFFFFFFF
let[@inline] r32 f = Int32.float_of_bits (Int32.bits_of_float f)
let[@inline] get_x (m : Machine.t) r = if r = 0 then 0 else m.xregs.(r)
let[@inline] set_x (m : Machine.t) r v = if r <> 0 then m.xregs.(r) <- s32 v
let[@inline] get_f (m : Machine.t) r = m.fregs.(r)
let[@inline] set_f (m : Machine.t) r v = m.fregs.(r) <- r32 v

module Alu = struct
  let int_min32 = -0x80000000

  let rtype (op : Isa.rop) a b =
    match op with
    | ADD -> s32 (a + b)
    | SUB -> s32 (a - b)
    | SLL -> s32 (a lsl (b land 31))
    | SLT -> if a < b then 1 else 0
    | SLTU -> if u32 a < u32 b then 1 else 0
    | XOR -> s32 (a lxor b)
    | SRL -> s32 (u32 a lsr (b land 31))
    | SRA -> s32 (a asr (b land 31))
    | OR -> s32 (a lor b)
    | AND -> s32 (a land b)
    | MUL -> s32 (a * b)
    | MULH ->
      let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
      s32 (Int64.to_int (Int64.shift_right p 32))
    | MULHSU ->
      let p = Int64.mul (Int64.of_int a) (Int64.of_int (u32 b)) in
      s32 (Int64.to_int (Int64.shift_right p 32))
    | MULHU ->
      let p = Int64.mul (Int64.of_int (u32 a)) (Int64.of_int (u32 b)) in
      s32 (Int64.to_int (Int64.shift_right p 32))
    | DIV ->
      if b = 0 then -1
      else if a = int_min32 && b = -1 then int_min32
      else s32 (a / b)
    | DIVU -> if b = 0 then -1 else s32 (u32 a / u32 b)
    | REM ->
      if b = 0 then a
      else if a = int_min32 && b = -1 then 0
      else s32 (a mod b)
    | REMU -> if b = 0 then a else s32 (u32 a mod u32 b)

  let itype (op : Isa.iop) a imm =
    match op with
    | ADDI -> rtype ADD a imm
    | SLTI -> rtype SLT a imm
    | SLTIU -> rtype SLTU a imm
    | XORI -> rtype XOR a imm
    | ORI -> rtype OR a imm
    | ANDI -> rtype AND a imm
    | SLLI -> rtype SLL a imm
    | SRLI -> rtype SRL a imm
    | SRAI -> rtype SRA a imm

  let branch_taken (op : Isa.bop) a b =
    match op with
    | BEQ -> a = b
    | BNE -> a <> b
    | BLT -> a < b
    | BGE -> a >= b
    | BLTU -> u32 a < u32 b
    | BGEU -> u32 a >= u32 b

  let[@inline] sign_bit f = Int32.logand (Int32.bits_of_float f) Int32.min_int

  let[@inline] with_sign f sign =
    Int32.float_of_bits
      (Int32.logor (Int32.logand (Int32.bits_of_float f) Int32.max_int) sign)

  let[@inline] ftype (op : Isa.fop) a b =
    match op with
    | FADD -> r32 (a +. b)
    | FSUB -> r32 (a -. b)
    | FMUL -> r32 (a *. b)
    | FDIV -> r32 (a /. b)
    | FSQRT -> r32 (sqrt a)
    | FMIN ->
      if Float.is_nan a then b
      else if Float.is_nan b then a
      else if a < b then a
      else b
    | FMAX ->
      if Float.is_nan a then b
      else if Float.is_nan b then a
      else if a > b then a
      else b
    | FSGNJ -> with_sign a (sign_bit b)
    | FSGNJN -> with_sign a (Int32.logxor (sign_bit b) Int32.min_int)
    | FSGNJX -> with_sign a (Int32.logxor (sign_bit a) (sign_bit b))

  let[@inline] fcmp (op : Isa.fcmp) a b =
    if Float.is_nan a || Float.is_nan b then 0
    else
      let r = match op with FEQ -> a = b | FLT -> a < b | FLE -> a <= b in
      if r then 1 else 0

  let[@inline] fcvt_w_s f =
    if Float.is_nan f then 0x7FFFFFFF
    else if f >= 2147483647.0 then 0x7FFFFFFF
    else if f <= -2147483648.0 then int_min32
    else int_of_float f (* OCaml truncates toward zero = RTZ *)

  let[@inline] fcvt_s_w v = r32 (float_of_int v)
  let[@inline] fmv_x_w f = s32 (Int32.to_int (Int32.bits_of_float f))
  let[@inline] fmv_w_x v = Int32.float_of_bits (Int32.of_int v)

  (* Operands and results as (array, index) pairs: a float passed to or
     returned from another module is boxed. *)
  let ftype_into op (d : float array) di (a : float array) ai (b : float array) bi =
    d.(di) <- ftype op a.(ai) b.(bi)

  let fcmp_at op (a : float array) ai (b : float array) bi = fcmp op a.(ai) b.(bi)
  let fcvt_w_s_at (a : float array) ai = fcvt_w_s a.(ai)
  let fmv_x_w_at (a : float array) ai = fmv_x_w a.(ai)
  let fcvt_s_w_into (d : float array) di v = d.(di) <- fcvt_s_w v
  let fmv_w_x_into (d : float array) di v = d.(di) <- fmv_w_x v
end

(* Execute the instruction at the PC into [ev]: [None] when it retired,
   [Some halt] when execution stops (state is then unchanged). Nothing is
   allocated on the retiring path, so the interpreter, the OoO model and the
   controller can step millions of instructions through one event. *)
let step_into prog (m : Machine.t) ev =
  let pc = m.pc in
  let i = Program.slot prog pc in
  if i < 0 then Some Exited
  else
    match (Program.code prog).(i) with
    | Isa.Ecall | Isa.Ebreak -> Some Ecall_halt
    | instr -> (
      let next = pc + 4 in
      ev.addr <- pc;
      ev.instr <- instr;
      ev.mem_addr <- 0;
      ev.taken <- false;
      ev.next_pc <- next;
      try
        (match instr with
        | Isa.Rtype (op, rd, rs1, rs2) ->
          set_x m rd (Alu.rtype op (get_x m rs1) (get_x m rs2))
        | Isa.Itype (op, rd, rs1, imm) -> set_x m rd (Alu.itype op (get_x m rs1) imm)
        | Isa.Load (op, rd, base, off) ->
          let addr = u32 (get_x m base + off) in
          let v =
            match op with
            | LB -> Main_memory.load_byte m.mem addr
            | LBU -> Main_memory.load_byte_u m.mem addr
            | LH -> Main_memory.load_half m.mem addr
            | LHU -> Main_memory.load_half_u m.mem addr
            | LW -> Main_memory.load_word m.mem addr
          in
          set_x m rd v;
          ev.mem_addr <- addr
        | Isa.Store (op, src, base, off) ->
          let addr = u32 (get_x m base + off) in
          let v = get_x m src in
          (match op with
          | SB -> Main_memory.store_byte m.mem addr v
          | SH -> Main_memory.store_half m.mem addr v
          | SW -> Main_memory.store_word m.mem addr v);
          ev.mem_addr <- addr
        | Isa.Branch (op, rs1, rs2, off) ->
          let taken = Alu.branch_taken op (get_x m rs1) (get_x m rs2) in
          ev.taken <- taken;
          if taken then ev.next_pc <- pc + off
        | Isa.Lui (rd, imm) -> set_x m rd (s32 imm)
        | Isa.Auipc (rd, imm) -> set_x m rd (s32 (pc + imm))
        | Isa.Jal (rd, off) ->
          set_x m rd next;
          ev.next_pc <- pc + off
        | Isa.Jalr (rd, base, off) ->
          let target = u32 (get_x m base + off) land lnot 1 in
          set_x m rd next;
          ev.next_pc <- target
        | Isa.Ftype (op, fd, fs1, fs2) ->
          set_f m fd (Alu.ftype op (get_f m fs1) (get_f m fs2))
        | Isa.Fcmp (op, rd, fs1, fs2) ->
          set_x m rd (Alu.fcmp op (get_f m fs1) (get_f m fs2))
        | Isa.Flw (fd, base, off) ->
          (* [Main_memory.load_float32], without its boxed return. *)
          let addr = u32 (get_x m base + off) in
          let bits = Main_memory.load_word m.mem addr in
          set_f m fd (Int32.float_of_bits (Int32.of_int bits));
          ev.mem_addr <- addr
        | Isa.Fsw (fsrc, base, off) ->
          let addr = u32 (get_x m base + off) in
          let bits = Int32.to_int (Int32.bits_of_float (get_f m fsrc)) in
          Main_memory.store_word m.mem addr bits;
          ev.mem_addr <- addr
        | Isa.Fcvt_w_s (rd, fs1) -> set_x m rd (Alu.fcvt_w_s (get_f m fs1))
        | Isa.Fcvt_s_w (fd, rs1) -> set_f m fd (Alu.fcvt_s_w (get_x m rs1))
        | Isa.Fmv_x_w (rd, fs1) -> set_x m rd (Alu.fmv_x_w (get_f m fs1))
        | Isa.Fmv_w_x (fd, rs1) -> set_f m fd (Alu.fmv_w_x (get_x m rs1))
        | Isa.Ecall | Isa.Ebreak | Isa.Fence -> ());
        m.pc <- ev.next_pc;
        None
      with Invalid_argument msg -> Some (Fault msg))

let run ?(max_steps = 100_000_000) ?on_event prog m =
  let ev = blank_event () in
  let rec go retired =
    if retired >= max_steps then (Step_limit, retired)
    else
      match step_into prog m ev with
      | None ->
        (match on_event with Some f -> f ev | None -> ());
        go (retired + 1)
      | Some halt -> (halt, retired)
  in
  go 0
