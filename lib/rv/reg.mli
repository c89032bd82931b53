(** RISC-V integer register file names (x0..x31) and the standard ABI
    aliases.  The paper's target is RV64GC with the usual 31 writable
    registers (x0 is hardwired zero). *)

type t = private int
(** Always in [0, 31]. *)

val of_int : int -> t
(** Raises [Invalid_argument] outside [0, 31]. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val x0 : t
(** Hardwired zero. *)

val ra : t
(** x1, return address. *)

val sp : t
(** x2, stack pointer. *)

val tp : t
(** x4, thread pointer. *)

val t_ : int -> t
(** [t_ n] is temporary tn (n in 0..6). *)

val s : int -> t
(** [s n] is saved register sn (n in 0..11). *)

val a : int -> t
(** [a n] is argument register an (n in 0..7). *)

val abi_name : t -> string
(** e.g. ["zero"], ["ra"], ["a0"], ["t3"]. *)

val of_name : string -> t option
(** Accepts both ABI names and ["x<n>"] forms. *)

val is_compressible : t -> bool
(** True for x8..x15, the registers addressable by the 3-bit fields of
    compressed instructions. *)

val pp : Format.formatter -> t -> unit
