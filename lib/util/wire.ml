(* The one binary codec and file layer.  A decoder runs against a
   cursor; every failure inside it raises [Malformed], and the single
   handler in [decode] or [decode_file] turns that into [Error], so a
   field read costs no closure and no [Ok] block. *)

exception Malformed of string

type cursor = {
  buf : bytes; (* the input, or for a channel the scratch its reads land in *)
  ic : in_channel option;
  format : string;
  limit : int; (* length of the whole input *)
  mutable pos : int;
}

let fail _ msg = raise_notrace (Malformed msg)
let remaining c = c.limit - c.pos

let truncated c field =
  fail c (Printf.sprintf "%s truncated reading %s (at byte %d)" c.format field c.pos)

(* Every read checks that its bytes remain before it reads or
   allocates anything. *)
let need c n field = if n < 0 || n > c.limit - c.pos then truncated c field

let really_read c ic dst n field =
  match really_input ic dst 0 n with () -> () | exception End_of_file -> truncated c field

(* Step over the next [n <= 8] bytes; the offset they start at in
   [c.buf], so a buffer is read in place. *)
let window c n field =
  need c n field;
  let at =
    match c.ic with
    | None -> c.pos
    | Some ic ->
      really_read c ic c.buf n field;
      0
  in
  c.pos <- c.pos + n;
  at

let u8 c field = Bytes.get_uint8 c.buf (window c 1 field)
let u16 c field = Bytes.get_uint16_le c.buf (window c 2 field)
let u64 c field = Bytes.get_int64_le c.buf (window c 8 field)

(* Sign-extended from two [u16]s, so no [int32] is boxed. *)
let i32 c field =
  need c 4 field;
  let lo = u16 c field in
  let v = lo lor (u16 c field lsl 16) in
  (v lxor 0x8000_0000) - 0x8000_0000

let bytes c n field =
  need c n field;
  let out =
    match c.ic with
    | None -> Bytes.sub c.buf c.pos n
    | Some ic ->
      let out = Bytes.create n in
      really_read c ic out n field;
      out
  in
  c.pos <- c.pos + n;
  out

let string c n field = Bytes.unsafe_to_string (bytes c n field)

let magic c lit msg =
  if not (String.equal (string c (String.length lit) "magic") lit) then fail c msg

let bitvec c len field =
  let raw = bytes c ((len + 7) / 8) field in
  if len land 7 <> 0 && Char.code (Bytes.get raw (Bytes.length raw - 1)) lsr (len land 7) <> 0
  then fail c (field ^ " has padding bits set");
  Bitvec.of_bytes ~len raw

let decode ~format b f =
  match f { buf = b; ic = None; format; limit = Bytes.length b; pos = 0 } with
  | v -> Ok v
  | exception Malformed msg -> Error msg

let decode_file ~format path f =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
    match
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let limit = in_channel_length ic in
          f { buf = Bytes.create 8; ic = Some ic; format; limit; pos = 0 })
    with
    | v -> Ok v
    | exception Malformed msg -> Error (path ^ ": " ^ msg)
    | exception Sys_error msg -> Error msg)

(* -- encoding ------------------------------------------------------- *)

let add_u8 buf v = Buffer.add_uint8 buf (v land 0xFF)
let add_u16 buf v = Buffer.add_uint16_le buf (v land 0xFFFF)

let add_u32 buf v =
  add_u16 buf v;
  add_u16 buf (v lsr 16)

let add_u64 = Buffer.add_int64_le

(* -- files ---------------------------------------------------------- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error msg

let ensure_dir dir =
  match Sys.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> Ok ()
  | exception Sys_error msg -> Error msg

(* [temp] is [None] for a write in place: see [stage]. *)
type staged = { path : string; temp : string option; oc : out_channel }

let channel s = s.oc

let discard s =
  close_out_noerr s.oc;
  Option.iter (fun temp -> try Sys.remove temp with Sys_error _ -> ()) s.temp

(* A failed write, close or rename names no file: name the destination. *)
let failed s msg =
  discard s;
  Error (s.path ^ ": " ^ msg)

(* A regular file [old] (or a new one, [None]) is replaced by renaming a
   temp file over it, through any symlink to the file itself.  The temp
   gets what [open_out_bin] would keep: the old file's mode (it is
   created with no more, so the bytes are never more readable than the
   old file's) and, where the writer may give them, its owner and group;
   a new file's mode is 0o666 less the umask. *)
let replace path old =
  let path = try Unix.realpath path with Unix.Unix_error _ -> path in
  let dir = Filename.dirname path and prefix = "." ^ Filename.basename path ^ "." in
  let perms = match old with Some st -> st.Unix.st_perm | None -> 0o666 in
  match Filename.open_temp_file ~mode:[ Open_binary ] ~perms ~temp_dir:dir prefix ".tmp" with
  | exception Sys_error msg ->
    (* "<temp>: <reason>", the temp being [prefix] and a random part *)
    let temp = Filename.concat dir prefix and n = String.length msg in
    let reason =
      if String.starts_with ~prefix:temp msg then String.index_from_opt msg (String.length temp) ':'
      else None
    in
    Error (path ^ Option.fold reason ~none:(": " ^ msg) ~some:(fun i -> String.sub msg i (n - i)))
  | temp, oc ->
    (* Both are best effort: the temp already has no more than the old
       mode, the umask having taken at most some bits off it. *)
    Option.iter
      (fun st ->
        let fd = Unix.descr_of_out_channel oc in
        (try Unix.fchown fd st.Unix.st_uid st.Unix.st_gid with Unix.Unix_error _ -> ());
        try Unix.fchmod fd perms with Unix.Unix_error _ -> ())
      old;
    Ok { path; temp = Some temp; oc }

(* A regular file the writer may not write is refused, as [open_out_bin]
   refuses it.  Anything but a regular file, such as [/dev/null] or a
   pipe, is written in place: a rename would replace the device or the
   pipe with a plain file. *)
let stage path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_REG; _ } as st -> (
    match Unix.access path [ Unix.W_OK ] with
    | () -> replace path (Some st)
    | exception Unix.Unix_error (e, _, _) -> Error (path ^ ": " ^ Unix.error_message e))
  | exception Unix.Unix_error _ -> replace path None
  | _ -> (
    match open_out_bin path with
    | oc -> Ok { path; temp = None; oc }
    | exception Sys_error msg -> Error msg)

let commit s =
  match
    close_out s.oc;
    Option.iter (fun temp -> Sys.rename temp s.path) s.temp
  with
  | () -> Ok ()
  | exception Sys_error msg -> failed s msg

let write_atomic path f =
  match stage path with
  | Error _ as e -> e
  | Ok s -> (
    match f s.oc with
    | () -> commit s
    | exception Sys_error msg -> failed s msg
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      discard s;
      Printexc.raise_with_backtrace e bt)
