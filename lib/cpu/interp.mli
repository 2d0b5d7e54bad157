(** Functional RV32IMF interpreter — the architectural reference.

    Every other execution substrate in the repo (the OoO timing model, the
    accelerator engine, the baselines) is validated against this
    interpreter: same program, same initial state, same final registers and
    memory.

    The interpreter reports each retired instruction through an optional
    callback carrying its dynamic facts (effective address, branch
    direction), which is exactly the information MESA's monitoring hardware
    taps at the decode/commit stages. *)

(** Why execution stopped. *)
type halt =
  | Exited           (** PC left the program's address range *)
  | Ecall_halt       (** an [ecall]/[ebreak] was retired *)
  | Step_limit       (** the [max_steps] budget ran out *)
  | Fault of string  (** decode or memory fault *)

(** One retired dynamic instruction. The stepper fills one event in place
    per retired instruction; a consumer that keeps an event past the next
    step must copy it. *)
type event = {
  mutable addr : int;      (** instruction address *)
  mutable instr : Isa.t;
  mutable mem_addr : int;  (** effective address for memory ops, else 0 *)
  mutable taken : bool;    (** direction for conditional branches, else false *)
  mutable next_pc : int;
}

val blank_event : unit -> event
(** A fresh event to step into. *)

val step_into : Program.t -> Machine.t -> event -> halt option
(** Execute the instruction at [Machine.pc], updating state and describing
    it in the event: [None] when it retired, [Some halt] when execution
    stops there (the state is then unchanged). Allocates nothing when an
    instruction retires. *)

val run :
  ?max_steps:int ->
  ?on_event:(event -> unit) ->
  Program.t ->
  Machine.t ->
  halt * int
(** [run prog m] steps until a halt condition, returning the reason and the
    number of instructions retired. [max_steps] defaults to 100 million.
    [on_event] sees every retired instruction through one reused event. *)

(** {1 32-bit arithmetic semantics}

    Exposed for reuse by the accelerator engine, which must compute the very
    same values PE-side. All functions take and return sign-extended 32-bit
    native ints. *)

module Alu : sig
  val rtype : Isa.rop -> int -> int -> int
  val itype : Isa.iop -> int -> int -> int
  val branch_taken : Isa.bop -> int -> int -> bool
  val ftype : Isa.fop -> float -> float -> float
  val fcmp : Isa.fcmp -> float -> float -> int
  val fcvt_w_s : float -> int
  val fcvt_s_w : int -> float
  val fmv_x_w : float -> int
  val fmv_w_x : int -> float

  (** The FP operations with operands read from, and results written to,
      float arrays: [ftype_into op d di a ai b bi] is
      [d.(di) <- ftype op a.(ai) b.(bi)], and likewise for the rest. The
      accelerator engine calls these so that no float is boxed crossing the
      module boundary. *)

  val ftype_into :
    Isa.fop -> float array -> int -> float array -> int -> float array -> int -> unit

  val fcmp_at : Isa.fcmp -> float array -> int -> float array -> int -> int
  val fcvt_w_s_at : float array -> int -> int
  val fmv_x_w_at : float array -> int -> int
  val fcvt_s_w_into : float array -> int -> int -> unit
  val fmv_w_x_into : float array -> int -> int -> unit
end
