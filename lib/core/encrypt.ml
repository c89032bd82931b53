open Eric_rv

type stats = { parcels : int; encrypted_parcels : int; encrypted_bytes : int }

type error = Framing_failure of string | Signature_mismatch

let pp_error fmt = function
  | Framing_failure msg -> Format.fprintf fmt "framing failure: %s" msg
  | Signature_mismatch -> Format.pp_print_string fmt "signature mismatch"

(* The whole stream for text + signature trailer, generated once.  The
   hardware generates it block-by-block on the fly; the bytes are
   identical. *)
let stream_for ~key ~text_len =
  let ks = Eric_crypto.Keystream.create ~key in
  Eric_crypto.Keystream.take ks (text_len + Siggen.signature_size)

(* A parcel half (2 bytes) or a whole 32-bit parcel is one load, one XOR
   and one store; longer ranges take the 64-bit word loop. *)
let xor_range buf ks ~pos ~len =
  match len with
  | 2 ->
    Bytes.set_uint16_le buf pos (Bytes.get_uint16_le buf pos lxor Bytes.get_uint16_le ks pos)
  | 4 ->
    Bytes.set_int32_le buf pos
      (Int32.logxor (Bytes.get_int32_le buf pos) (Bytes.get_int32_le ks pos))
  | _ -> Eric_util.Bytesx.xor_range ~src:buf ~key:ks ~dst:buf ~pos ~len

let xor_field32 buf ks ~pos ~mask =
  let w = Eric_util.Bytesx.get_u32 buf pos in
  let kw = Eric_util.Bytesx.get_u32 ks pos in
  Eric_util.Bytesx.set_u32 buf pos (Int32.logxor w (Int32.logand kw mask))

let xor_field16 buf ks ~pos ~mask =
  let p = Eric_util.Bytesx.get_u16 buf pos in
  let kp = Eric_util.Bytesx.get_u16 ks pos in
  Eric_util.Bytesx.set_u16 buf pos (p lxor (kp land mask))

(* ------------------------------------------------------------------ *)
(* Encryption (software source side)                                   *)
(* ------------------------------------------------------------------ *)

(* Everything about a package that does not depend on the target's key:
   parcel selection, the package skeleton (header + map + plaintext
   sections) and the plaintext signature.  Computed once per (image, mode)
   and shared across every device the build is personalized for. *)
type prepared = {
  p_skeleton : Package.t;  (* enc_text still plaintext, signature zeroed *)
  p_signature : bytes;  (* plaintext signature over header, text, data *)
  p_parcels : Program.parcel array;
  p_offsets : int array;
  p_map : Eric_util.Bitvec.t;
  p_stats : stats;
}

let prepared_stats p = p.p_stats

let prepare_unmetered ?obf ~mode image =
  let text = Program.text_bytes image in
  let parcels = image.Program.text in
  let offsets = Program.parcel_offsets image in
  let map = Config.selection_bits mode ~parcels ~offsets in
  let kind = Package.kind_of_mode mode in
  let skeleton =
    {
      Package.kind;
      entry_offset = image.Program.entry_offset;
      bss_size = image.Program.bss_size;
      parcel_count = Array.length parcels;
      map = (match kind with Package.M_full -> None | _ -> Some map);
      obf;
      enc_text = text;
      (* plaintext; personalization works on a copy *)
      data = image.Program.data;
      enc_signature = Bytes.make Siggen.signature_size '\000';
    }
  in
  let signature =
    Siggen.signature
      ~authenticated:[ Package.authenticated_header skeleton; text; image.Program.data ]
  in
  if Eric_telemetry.Control.is_enabled () then
    Eric_telemetry.Registry.inc "build.signatures_total";
  let encrypted_parcels = ref 0 and encrypted_bytes = ref 0 in
  Array.iteri
    (fun i parcel ->
      if Eric_util.Bitvec.get map i then begin
        incr encrypted_parcels;
        encrypted_bytes := !encrypted_bytes + Program.parcel_size parcel
      end)
    parcels;
  {
    p_skeleton = skeleton;
    p_signature = signature;
    p_parcels = parcels;
    p_offsets = offsets;
    p_map = map;
    p_stats =
      {
        parcels = Array.length parcels;
        encrypted_parcels = !encrypted_parcels;
        encrypted_bytes = !encrypted_bytes;
      };
  }

let personalize_unmetered ~key p =
  let text = p.p_skeleton.Package.enc_text in
  let kind = p.p_skeleton.Package.kind in
  let ks = stream_for ~key ~text_len:(Bytes.length text) in
  let enc_text = Bytes.copy text in
  Array.iteri
    (fun i parcel ->
      if Eric_util.Bitvec.get p.p_map i then begin
        let pos = p.p_offsets.(i) in
        let len = Program.parcel_size parcel in
        match kind with
        | Package.M_full | Package.M_partial -> xor_range enc_text ks ~pos ~len
        | Package.M_field scope -> (
          match parcel with
          | Program.P32 w -> xor_field32 enc_text ks ~pos ~mask:(Config.field_mask32 scope w)
          | Program.P16 parc -> xor_field16 enc_text ks ~pos ~mask:(Config.field_mask16 scope parc))
      end)
    p.p_parcels;
  let enc_signature = Bytes.create Siggen.signature_size in
  Eric_util.Bytesx.xor_into ~src:p.p_signature
    ~key:(Bytes.sub ks (Bytes.length text) Siggen.signature_size)
    ~dst:enc_signature;
  ({ p.p_skeleton with Package.enc_text; enc_signature }, p.p_stats)

let prepare ?obf ~mode image =
  Eric_telemetry.Span.with_ ~cat:"core" ~name:"core.prepare" (fun () ->
      prepare_unmetered ?obf ~mode image)

let personalize ~key p =
  let r =
    Eric_telemetry.Span.with_ ~cat:"core" ~name:"core.personalize" (fun () ->
        personalize_unmetered ~key p)
  in
  if Eric_telemetry.Control.is_enabled () then
    Eric_telemetry.Registry.inc "build.personalizations_total";
  r

let encrypt_unmetered ?obf ~key ~mode image =
  personalize_unmetered ~key (prepare_unmetered ?obf ~mode image)

let encrypt ?obf ~key ~mode image =
  let ((_, stats) as r) =
    Eric_telemetry.Span.with_ ~cat:"core" ~name:"core.encrypt" (fun () ->
        encrypt_unmetered ?obf ~key ~mode image)
  in
  if Eric_telemetry.Control.is_enabled () then begin
    Eric_telemetry.Registry.inc "build.encrypts_total";
    Eric_telemetry.Registry.inc ~by:(Int64.of_int stats.parcels) "build.parcels_total";
    Eric_telemetry.Registry.inc ~by:(Int64.of_int stats.encrypted_parcels)
      "build.parcels_encrypted";
    Eric_telemetry.Registry.inc ~by:(Int64.of_int stats.encrypted_bytes) "build.bytes_encrypted"
  end;
  r

(* ------------------------------------------------------------------ *)
(* Decryption (HDE side)                                               *)
(* ------------------------------------------------------------------ *)

let decrypt_unmetered ~key (pkg : Package.t) =
  let text_len = Bytes.length pkg.enc_text in
  let ks = stream_for ~key ~text_len in
  let out = Bytes.copy pkg.enc_text in
  let map_bit idx =
    match pkg.map with
    | None -> true (* full encryption *)
    | Some m -> idx < Eric_util.Bitvec.length m && Eric_util.Bitvec.get m idx
  in
  let encrypted_parcels = ref 0 and encrypted_bytes = ref 0 in
  (* Streaming framing discovery: decrypt a parcel's low half, read its
     length bits, finish the parcel, move on. *)
  let rec walk off idx =
    if off = text_len then
      if idx = pkg.parcel_count then Ok ()
      else Error (Framing_failure "fewer parcels than the header promises")
    else if off + 2 > text_len then Error (Framing_failure "trailing odd byte")
    else if idx >= pkg.parcel_count then
      Error (Framing_failure "more parcels than the header promises")
    else begin
      let enc = map_bit idx in
      match pkg.kind with
      | Package.M_full | Package.M_partial ->
        if enc then xor_range out ks ~pos:off ~len:2;
        let half = Eric_util.Bytesx.get_u16 out off in
        let size = if half land 0b11 = 0b11 then 4 else 2 in
        if off + size > text_len then Error (Framing_failure "32-bit parcel runs past the end")
        else begin
          if enc then begin
            if size = 4 then xor_range out ks ~pos:(off + 2) ~len:2;
            incr encrypted_parcels;
            encrypted_bytes := !encrypted_bytes + size
          end;
          walk (off + size) (idx + 1)
        end
      | Package.M_field scope ->
        (* Opcode bits are plaintext by construction, so framing and mask
           derivation read the ciphertext directly. *)
        let half = Eric_util.Bytesx.get_u16 out off in
        let size = if half land 0b11 = 0b11 then 4 else 2 in
        if off + size > text_len then Error (Framing_failure "32-bit parcel runs past the end")
        else begin
          if enc then begin
            (if size = 4 then begin
               let w = Eric_util.Bytesx.get_u32 out off in
               xor_field32 out ks ~pos:off ~mask:(Config.field_mask32 scope w)
             end
             else xor_field16 out ks ~pos:off ~mask:(Config.field_mask16 scope half));
            incr encrypted_parcels;
            encrypted_bytes := !encrypted_bytes + size
          end;
          walk (off + size) (idx + 1)
        end
    end
  in
  match walk 0 0 with
  | Error e -> Error e
  | Ok () -> (
    (* Validation Unit: recompute the signature over the decrypted
       content, decrypt the travelling signature, compare. *)
    let recomputed =
      Siggen.signature ~authenticated:[ Package.authenticated_header pkg; out; pkg.data ]
    in
    let travelling = Bytes.create Siggen.signature_size in
    Eric_util.Bytesx.xor_into ~src:pkg.enc_signature
      ~key:(Bytes.sub ks text_len Siggen.signature_size)
      ~dst:travelling;
    if not (Eric_crypto.Ct.equal recomputed travelling) then Error Signature_mismatch
    else
      match Program.frame_text out with
      | None -> Error (Framing_failure "decrypted text does not tile")
      | Some parcels ->
        Ok
          ( {
              Program.text = parcels;
              data = pkg.data;
              bss_size = pkg.bss_size;
              entry_offset = pkg.entry_offset;
              symbols = [];
            },
            {
              parcels = pkg.parcel_count;
              encrypted_parcels = !encrypted_parcels;
              encrypted_bytes = !encrypted_bytes;
            } ))

let decrypt ~key (pkg : Package.t) =
  let r =
    Eric_telemetry.Span.with_ ~cat:"core" ~name:"ingest.decrypt" (fun () ->
        decrypt_unmetered ~key pkg)
  in
  if Eric_telemetry.Control.is_enabled () then begin
    match r with
    | Ok (_, stats) ->
      Eric_telemetry.Registry.inc ~by:(Int64.of_int stats.encrypted_parcels)
        "ingest.parcels_decrypted";
      Eric_telemetry.Registry.inc ~by:(Int64.of_int stats.encrypted_bytes)
        "ingest.bytes_decrypted";
      Eric_telemetry.Registry.inc ~labels:[ ("result", "ok") ] "ingest.signature_validations"
    | Error Signature_mismatch ->
      Eric_telemetry.Registry.inc
        ~labels:[ ("result", "mismatch") ]
        "ingest.signature_validations"
    | Error (Framing_failure _) -> () (* the Validation Unit never ran *)
  end;
  r

let decrypt_text_only ~key (pkg : Package.t) =
  let text_len = Bytes.length pkg.enc_text in
  let ks = stream_for ~key ~text_len in
  let out = Bytes.copy pkg.enc_text in
  xor_range out ks ~pos:0 ~len:text_len;
  out
