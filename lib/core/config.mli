(** Encryption configuration: the paper's three methods.

    - {!Full}: every instruction parcel is encrypted; the package needs no
      map, only the 256-bit signature trailer.
    - {!Partial}: a subset of parcels is encrypted and a 1-bit-per-parcel
      map travels with the package ("a bit is added for each instruction";
      with RVC that is one bit per 16-bit parcel slot in the worst case).
    - {!Field}: selected parcels have only chosen bit-fields encrypted,
      leaving opcodes legible — the paper's trick for hiding memory-trace
      immediates while making the encryption itself hard to notice. *)

type selection =
  | Select_all
  | Select_fraction of { fraction : float; seed : int64 }
      (** each parcel independently chosen by a seeded coin, matching the
          paper's "instructions randomly determined are selected" *)
  | Select_ranges of (int * int) list
      (** [start, stop) byte ranges within the text section — the
          "protect the critical parts" use case *)

type field_scope =
  | Imm_fields
      (** immediate/offset fields of loads, stores, branches, jumps and
          U-type instructions (e.g. "only the pointer values of the
          instructions that make memory accesses") *)
  | All_but_opcode  (** everything except the 7-bit opcode *)
  | Control_flow
      (** branch-offset + call-edge encryption: only the displacement
          fields of branches, [jal] and [jalr] (and their compressed
          forms) are encrypted, hiding where control transfers land —
          the structural metadata an attacker needs — while every data
          instruction ships byte-identical to the plain image *)

type mode =
  | Full
  | Partial of selection
  | Field of field_scope * selection

val pp_mode : Format.formatter -> mode -> unit

val selection_bits :
  mode -> parcels:Eric_rv.Program.parcel array -> offsets:int array -> Eric_util.Bitvec.t
(** The encryption map: bit [i] = parcel [i] is (at least partly)
    encrypted.  For {!Field} modes, parcels whose scope mask is empty (no
    such field in that instruction format) are never selected. *)

val field_mask32 : field_scope -> int32 -> int32
(** Mask of encrypted bits for a 32-bit encoding, derived from its (always
    plaintext) opcode. *)

val field_mask16 : field_scope -> int -> int
(** Same for a 16-bit compressed parcel; [Imm_fields] leaves compressed
    parcels alone (their immediates interleave with register fields),
    [All_but_opcode] protects everything above the quadrant+funct3 bits,
    and [Control_flow] protects the displacement bits of [c.j] /
    [c.beqz] / [c.bnez] (quadrant and funct3 stay legible, so the
    decryptor can re-derive the mask from the ciphertext parcel). *)
