(** Byte-addressable main memory holding the simulated program's data.

    This is the *functional* half of the memory system: it stores actual
    bytes so that the CPU interpreter and the accelerator engine compute real
    values (their architectural results are compared in the test suite).
    Timing lives in {!Cache} / {!Hierarchy}.

    All accesses are little-endian, matching RISC-V. Word values are exchanged
    as native ints sign-extended from 32 bits.

    Storage is a table of 4 KiB pages, each allocated on its first store;
    an untouched page reads as zero. Whole-memory operations ({!create},
    {!copy}, {!restore}, {!equal}, {!checksum}) cost one step per page-table
    entry plus byte work on allocated pages only, so their cost follows the
    pages a program touches, not the memory's size. An access that crosses
    a page boundary is served byte by byte, with the same result. *)

type t

val create : ?size:int -> unit -> t
(** [create ~size ()] is [size] bytes of zeroed memory (default 16 MiB).
    No page is allocated yet: the cost is the page table, one word per
    4 KiB. *)

val release : t -> unit
(** Does nothing. Memories are plain GC values; this stays only for the
    benchmark harness's callers and goes with their next change. *)

val size : t -> int

val load_byte : t -> int -> int
(** Sign-extended byte. *)

val load_byte_u : t -> int -> int
val load_half : t -> int -> int
(** Sign-extended halfword. *)

val load_half_u : t -> int -> int
val load_word : t -> int -> int
(** Sign-extended 32-bit word. *)

val store_byte : t -> int -> int -> unit
val store_half : t -> int -> int -> unit
val store_word : t -> int -> int -> unit

val load_float32 : t -> int -> float
(** Read 4 bytes as an IEEE-754 single; the result is exactly representable
    as an OCaml float. *)

val store_float32 : t -> int -> float -> unit
(** Round to single precision and store 4 bytes. *)

val copy : t -> t
(** Deep copy of the allocated pages; used to run the same initial state
    through the CPU reference and the accelerator. O(touched pages). *)

val restore : t -> from:t -> unit
(** Overwrite [t]'s contents with a checkpoint previously taken by {!copy}
    (sizes must match) — in-place, so existing handles on [t] stay valid.
    Used to roll back a fault-corrupted execution window. O(pages touched
    by either side). *)

val equal : t -> t -> bool
(** Byte-wise equality, for functional-equivalence checks. Only pages
    allocated on either side are compared byte by byte. *)

val checksum : t -> int
(** FNV-1a over the full contents, folded to a non-negative int — a compact
    fingerprint of final memory for golden tests. Platform-stable on any
    64-bit build. Untouched pages fold in closed form (one multiply each),
    so only allocated pages are hashed byte by byte; the value is the same
    as a byte loop over the whole memory. *)

val blit_words : t -> int -> int array -> unit
(** [blit_words t addr ws] stores consecutive words starting at [addr]. *)

val blit_floats : t -> int -> float array -> unit
(** Store consecutive float32 values. *)

val read_words : t -> int -> int -> int array
(** [read_words t addr n] reads [n] consecutive sign-extended words. *)

val read_floats : t -> int -> int -> float array
