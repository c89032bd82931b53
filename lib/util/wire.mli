(** The binary codec of REXE, EPKG, EFRG, the EFRS manifest and EHLP
    (little-endian), and the file layer every library and the CLI read,
    write and make directories through (see [docs/fleet.md]).

    A decoder is a function over a {!cursor}, run by {!decode} or
    {!decode_file}.  Each read checks that its bytes remain before it
    reads or allocates; a failed read or a {!fail} ends the decode with
    [Error], one handler per decode.  A truncated read names the format,
    the field and its offset: ["registry truncated reading helper blob
    (at byte 52)"]. *)

(** {1 Decoding} *)

type cursor

val decode : format:string -> bytes -> (cursor -> 'a) -> ('a, string) result
(** [decode ~format b f] runs [f] over [b]; [format] names the input in
    truncation messages.  Only the cursor's own failures are caught. *)

val decode_file : format:string -> string -> (cursor -> 'a) -> ('a, string) result
(** {!decode} over a file read through a buffered channel.  A decode
    failure is prefixed with the path; an I/O failure (a [Sys_error], also
    one raised by [f]) is returned as it is. *)

val fail : cursor -> string -> 'a
val remaining : cursor -> int
val u8 : cursor -> string -> int
val u16 : cursor -> string -> int

val i32 : cursor -> string -> int
(** Sign-extended: a set top bit reads negative. *)

val u64 : cursor -> string -> int64

val bytes : cursor -> int -> string -> bytes
(** [bytes c n field]; a negative [n] is a truncation. *)

val string : cursor -> int -> string -> string

val magic : cursor -> string -> string -> unit
(** [magic c lit msg] fails with [msg] unless the next bytes are [lit]. *)

val bitvec : cursor -> int -> string -> Bitvec.t
(** [bitvec c len field]: [ceil(len/8)] bytes packed as {!Bitvec.to_bytes}
    packs them.  A set padding bit past [len], which that never writes,
    fails with ["<field> has padding bits set"]. *)

(** {1 Encoding} *)

val add_u8 : Buffer.t -> int -> unit
val add_u16 : Buffer.t -> int -> unit

val add_u32 : Buffer.t -> int -> unit
(** The low 32 bits, so a negative [int] reads back through {!i32}. *)

val add_u64 : Buffer.t -> int64 -> unit

(** {1 Files} *)

val read_file : string -> (string, string) result

val ensure_dir : string -> (unit, string) result
(** Make the directory (mode 0o755) unless it exists. *)

val write_atomic : string -> (out_channel -> unit) -> (unit, string) result
(** [write_atomic path f] runs [f] on a new temp file beside [path],
    closes it and renames it over [path] (over the file a symlink at
    [path] points to).  The file keeps what [open_out_bin] would keep:
    an existing file's mode, and its owner and group where the writer
    may give them; a new file gets 0o666 less the umask.  A file the
    writer may not write is refused.  On a [Sys_error] the temp file is
    removed and [path] is untouched; another exception from [f] removes the temp file and is
    re-raised.  A [path] that exists and is not a regular file, such as
    [/dev/null] or a pipe, is written in place instead. *)

(** The same in steps, for a writer that fills several files at once. *)

type staged

val stage : string -> (staged, string) result
val channel : staged -> out_channel

val commit : staged -> (unit, string) result
(** Close and rename over the destination; on failure, {!discard}. *)

val discard : staged -> unit
