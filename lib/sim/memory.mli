(** Little-endian byte-addressable main memory, held sparsely.

    Memory is an array of 4 KiB pages.  A page reads as zeros until its
    first write gives it bytes of its own, so a fresh memory, and a run
    in it, cost only the pages the run touches.

    All accesses are bounds-checked; an out-of-range access raises
    {!Trap}, which the CPU surfaces as an execution fault (the moral
    equivalent of a bus error on the real SoC).  The check holds however
    large the address or length, and it comes before anything is
    allocated for the access. *)

type t

exception Trap of string

val create : size:int -> t
val size : t -> int

(** {2 Words}

    Every value is little-endian in memory and crosses this interface
    unboxed, so that a load or store of the simulated core allocates
    nothing.  An access may straddle two pages. *)

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
(** The 8-, 16- and 32-bit reads return the value zero-extended. *)

val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
(** The 8-, 16- and 32-bit writes store the low 8, 16 or 32 bits of the
    value. *)

val read_u64 : t -> int -> bytes -> int -> unit
(** [read_u64 t addr b off] reads the 64-bit word at [addr] into the 8
    bytes of [b] at [off], as the native-endian [int64] that
    [Bytes.get_int64_ne b off] returns: the layout of the core's register
    file, which a load writes straight into.  A trap leaves [b]
    unchanged. *)

val write_u64 : t -> int -> bytes -> int -> unit
(** [write_u64 t addr b off] writes the native-endian [int64] held in the
    8 bytes of [b] at [off] to the 64-bit word at [addr]. *)

val blit_bytes : t -> addr:int -> bytes -> unit
(** Bulk copy into memory (the loader's DMA path). *)

val read_bytes : t -> addr:int -> len:int -> bytes

val fill : t -> addr:int -> len:int -> char -> unit
(** Filling a page that was never written with ['\000'] leaves it
    unwritten. *)

val fnv1a : t -> addr:int -> len:int -> int64
(** 64-bit FNV-1a over the bytes [\[addr, addr + len)], read straight
    from the pages: the integrity guard's granule digest. *)
