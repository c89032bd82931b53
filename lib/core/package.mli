(** The encrypted program package: what actually travels over the
    untrusted network.

    Wire layout (little-endian):
    {v
    off  size  field
    0    4     magic "EPKG"
    4    2     version
    6    1     mode tag (0=full, 1=partial, 2=field/imm,
                         3=field/all-but-opcode, 4=field/control-flow)
    7    1     flags (bit 0 = obfuscation metadata present; rest reserved)
    8    4     entry offset (bytes into text)
    12   4     text length (bytes)
    16   4     data length (bytes)
    20   4     BSS size (bytes)
    24   4     parcel count
    28   4     encryption-map length (bytes; 0 for full encryption)
    32   map   encryption map (1 bit per parcel, LSB-first)
    ..   9     obfuscation metadata, iff flag bit 0: pass mask (1 byte,
               low 5 bits assigned) + build seed (8 bytes LE)
    ..   text  encrypted text section
    ..   data  data section (plaintext)
    ..   32    encrypted signature
    v}

    Matching the paper's size accounting (Fig 5): full encryption adds only
    the 256-bit signature over a plain image; partial/field encryption adds
    the signature plus one map bit per parcel. *)

type mode_kind = M_full | M_partial | M_field of Config.field_scope

val kind_of_mode : Config.mode -> mode_kind

type t = {
  kind : mode_kind;
  entry_offset : int;
  bss_size : int;
  parcel_count : int;
  map : Eric_util.Bitvec.t option;  (** [None] iff [kind = M_full] *)
  obf : (int * int64) option;
      (** obfuscation provenance: (pass mask, build seed).  Recorded so
          tooling can tell which transforms produced the text it is
          holding and rebuild it byte-identically; covered by the
          signature like the rest of the header. *)
  enc_text : bytes;
  data : bytes;
  enc_signature : bytes;  (** 32 bytes, XORed with keystream at offset [text_len] *)
}

val header_size : int

val size : t -> int
(** Total wire size in bytes — the Fig-5 "program package size". *)

val authenticated_header : t -> bytes
(** The header bytes covered by the signature (everything up to and
    including the map and obfuscation metadata, with the signature
    region excluded by construction). *)

val authenticated_header_size : t -> int
(** [Bytes.length (authenticated_header t)], without building it. *)

val serialize : t -> bytes

val parse : bytes -> (t, string) result
(** Strict: every wire bit is either interpreted or rejected.  Beyond
    framing (magic, version, known mode tag, zero reserved flags, exact
    total length), the header must be internally consistent — the map is
    exactly [ceil(parcel_count/8)] bytes with zero padding bits (absent
    for full encryption), [2*parcel_count <= text_len <= 4*parcel_count]
    since parcels are 2 or 4 bytes, and the entry offset is
    parcel-aligned inside the text section. *)

val pp_summary : Format.formatter -> t -> unit
