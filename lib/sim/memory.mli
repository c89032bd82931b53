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

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int32
val read_u64 : t -> int -> int64

val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int32 -> unit
val write_u64 : t -> int -> int64 -> unit

val blit_bytes : t -> addr:int -> bytes -> unit
(** Bulk copy into memory (the loader's DMA path). *)

val read_bytes : t -> addr:int -> len:int -> bytes

val fill : t -> addr:int -> len:int -> char -> unit
(** Filling a page that was never written with ['\000'] leaves it
    unwritten. *)

val fnv1a : t -> addr:int -> len:int -> int64
(** 64-bit FNV-1a over the bytes [\[addr, addr + len)], read straight
    from the pages: the integrity guard's granule digest. *)
