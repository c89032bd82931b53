(** Executable program images.

    An image is what the compiler hands to ERIC's packaging stage and what
    the target SoC loads: a text section of instruction parcels (16-bit
    compressed or 32-bit), an initialised data section, a BSS size, and an
    entry offset.  [to_binary]/[of_binary] define the *plain* (unencrypted)
    on-the-wire format whose size is the Fig-5 baseline.

    The text is held as the little-endian bytes the SoC loads and the
    packaging stage hashes and encrypts.  Its parcel structure follows
    from the ISA's length encoding (low two bits [11] = 32-bit), and
    {!of_binary} and the HDE's decrypt walk check that the bytes tile into
    whole parcels.  {!parcels} frames them on demand. *)

type parcel =
  | P16 of int  (** compressed instruction, low 16 bits significant *)
  | P32 of int32

type t = {
  text : bytes;  (** little-endian parcel stream *)
  data : bytes;
  bss_size : int;
  entry_offset : int;  (** byte offset of the entry point within text *)
  symbols : (string * int) list;  (** label -> text byte offset (serialised on request) *)
}

val parcel_size : parcel -> int
(** 2 or 4 bytes. *)

val text_size : t -> int
(** Text section length in bytes. *)

val total_size : t -> int
(** Text + data bytes (BSS occupies no image bytes). *)

val parcels : t -> parcel array
(** Frame the text into its parcels, in order, in one fresh array.
    Raises [Invalid_argument] if the text does not tile (a record built
    around bytes that no constructor checked). *)

val parcel_offsets : t -> int array
(** Byte offset of each parcel within the text section.  Raises as
    {!parcels}. *)

val decode_parcel : parcel -> Inst.t option
val decode_all : t -> Inst.t array option

(** Memory layout shared by the linker and the SoC loader. *)
module Layout : sig
  val text_base : int
  val data_base : t -> int
  (** Text base plus text size, rounded up to a 4 KiB boundary. *)

  val bss_base : t -> int
  val stack_top : int
  val memory_size : int
  val entry_address : t -> int
end

val to_binary : ?with_symbols:bool -> t -> bytes
(** Plain binary: 24-byte header (magic "REXE", version, flags, entry,
    section sizes) followed by text then data.  [with_symbols] (default
    false, so evaluation baselines stay lean) appends a symbol table —
    [u32 count] then per symbol [u16 name length, name, u32 text offset] —
    and sets header flag bit 0; {!of_binary} restores it. *)

val binary_size : t -> int
(** [Bytes.length (to_binary t)], the header plus {!total_size}, without
    building the binary. *)

val of_binary : bytes -> (t, string) result
(** Refuses flag bits 1-15, and what [Package.parse] refuses of the same
    fields: a text section that does not tile, and an entry offset that
    is negative, odd, past the text, or at the end of a non-empty text. *)

val pp_summary : Format.formatter -> t -> unit
