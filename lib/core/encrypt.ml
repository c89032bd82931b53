open Eric_rv

type stats = { parcels : int; encrypted_parcels : int; encrypted_bytes : int }

type error = Framing_failure of string | Signature_mismatch

let pp_error fmt = function
  | Framing_failure msg -> Format.fprintf fmt "framing failure: %s" msg
  | Signature_mismatch -> Format.pp_print_string fmt "signature mismatch"

module Keystream = Eric_crypto.Keystream

(* ------------------------------------------------------------------ *)
(* Encryption (software source side)                                   *)
(* ------------------------------------------------------------------ *)

(* Everything about a package that does not depend on the target's key:
   the package skeleton (header + map + plaintext sections), the
   plaintext signature, and the keystream mask: which text bits the
   selected parcels encrypt (all ones for full mode, each selected
   parcel's bytes for partial mode, its field mask for field mode).
   Computed once per (image, mode) and shared across every device the
   build is personalized for. *)
type prepared = {
  p_skeleton : Package.t;  (* enc_text still plaintext, signature zeroed *)
  p_signature : bytes;  (* plaintext signature over header, text, data *)
  p_mask : bytes;  (* as long as the text *)
  p_stats : stats;
}

let prepared_stats p = p.p_stats

let prepare_unmetered ?obf ~mode image =
  let text = Bytes.copy image.Program.text in
  let parcels = Program.parcels image in
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
  let mask = Bytes.make (Bytes.length text) '\000' in
  let encrypted_parcels = ref 0 and encrypted_bytes = ref 0 in
  Array.iteri
    (fun i parcel ->
      if Eric_util.Bitvec.get map i then begin
        let pos = offsets.(i) and size = Program.parcel_size parcel in
        incr encrypted_parcels;
        encrypted_bytes := !encrypted_bytes + size;
        match (kind, parcel) with
        | (Package.M_full | Package.M_partial), _ -> Bytes.fill mask pos size '\xff'
        | Package.M_field scope, Program.P32 w ->
          Bytes.set_int32_le mask pos (Config.field_mask32 scope w)
        | Package.M_field scope, Program.P16 v ->
          Bytes.set_uint16_le mask pos (Config.field_mask16 scope v)
      end)
    parcels;
  {
    p_skeleton = skeleton;
    p_signature = signature;
    p_mask = mask;
    p_stats =
      {
        parcels = Array.length parcels;
        encrypted_parcels = !encrypted_parcels;
        encrypted_bytes = !encrypted_bytes;
      };
  }

(* One masked pass over a copy of the text, then the signature trailer
   from the stream at [text_len]. *)
let personalize_unmetered ~key p =
  let ks = Keystream.create ~key in
  let enc_text = Bytes.copy p.p_skeleton.Package.enc_text in
  Keystream.xor_in_place ~mask:p.p_mask ks ~offset:0 enc_text;
  let enc_signature = Bytes.copy p.p_signature in
  Keystream.xor_in_place ks ~offset:(Bytes.length enc_text) enc_signature;
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

let framing msg = Error (Framing_failure msg)

(* Full mode: the whole text is already decrypted, so framing is one
   count over it, with the streaming walk's errors in the walk's order.
   Allocates nothing unless it fails. *)
let rec count_parcels out ~parcel_count off idx =
  let text_len = Bytes.length out in
  if off = text_len then
    if idx = parcel_count then Ok () else framing "fewer parcels than the header promises"
  else if off + 2 > text_len then framing "trailing odd byte"
  else if idx >= parcel_count then framing "more parcels than the header promises"
  else
    let size = if Bytes.get_uint16_le out off land 0b11 = 0b11 then 4 else 2 in
    if off + size > text_len then framing "32-bit parcel runs past the end"
    else count_parcels out ~parcel_count (off + size) (idx + 1)

(* The 16 bits at [off] lxor= the stream's, ANDed with [mask]. *)
let xor_half out ks off mask =
  Bytes.set_uint16_le out off (Bytes.get_uint16_le out off lxor (Keystream.half ks off land mask))

(* Partial and field modes: streaming framing discovery, as the hardware
   walks.  Decrypt a parcel's low half, read its length bits, finish the
   parcel, move on. *)
let walk (pkg : Package.t) ks out =
  let text_len = Bytes.length out in
  let map_bit idx =
    match pkg.map with
    | None -> true (* full encryption *)
    | Some m -> idx < Eric_util.Bitvec.length m && Eric_util.Bitvec.get m idx
  in
  let encrypted_parcels = ref 0 and encrypted_bytes = ref 0 in
  let rec go off idx =
    if off = text_len then
      if idx = pkg.parcel_count then
        Ok
          {
            parcels = pkg.parcel_count;
            encrypted_parcels = !encrypted_parcels;
            encrypted_bytes = !encrypted_bytes;
          }
      else framing "fewer parcels than the header promises"
    else if off + 2 > text_len then framing "trailing odd byte"
    else if idx >= pkg.parcel_count then framing "more parcels than the header promises"
    else begin
      let enc = map_bit idx in
      (match pkg.kind with
      | Package.M_field _ -> ()
      | Package.M_full | Package.M_partial -> if enc then xor_half out ks off 0xFFFF);
      (* Field modes leave the opcode bits plaintext by construction, so
         framing and mask derivation read the ciphertext directly. *)
      let half = Bytes.get_uint16_le out off in
      let size = if half land 0b11 = 0b11 then 4 else 2 in
      if off + size > text_len then framing "32-bit parcel runs past the end"
      else begin
        if enc then begin
          (match pkg.kind with
          | Package.M_full | Package.M_partial -> if size = 4 then xor_half out ks (off + 2) 0xFFFF
          | Package.M_field scope ->
            if size = 4 then begin
              let mask = Int32.to_int (Config.field_mask32 scope (Bytes.get_int32_le out off)) in
              xor_half out ks off (mask land 0xFFFF);
              xor_half out ks (off + 2) ((mask lsr 16) land 0xFFFF)
            end
            else xor_half out ks off (Config.field_mask16 scope half));
          incr encrypted_parcels;
          encrypted_bytes := !encrypted_bytes + size
        end;
        go (off + size) (idx + 1)
      end
    end
  in
  go 0 0

let decrypt_unmetered ~key (pkg : Package.t) =
  let text_len = Bytes.length pkg.enc_text in
  let ks = Keystream.create ~key in
  let out = Bytes.copy pkg.enc_text in
  let framed =
    match pkg.kind with
    | Package.M_full -> (
      Keystream.xor_in_place ks ~offset:0 out;
      match count_parcels out ~parcel_count:pkg.parcel_count 0 0 with
      | Error e -> Error e
      | Ok () ->
        Ok
          {
            parcels = pkg.parcel_count;
            encrypted_parcels = pkg.parcel_count;
            encrypted_bytes = text_len;
          })
    | Package.M_partial | Package.M_field _ -> walk pkg ks out
  in
  match framed with
  | Error e -> Error e
  | Ok stats ->
    (* Validation Unit: recompute the signature over the decrypted
       content, decrypt the travelling signature, compare. *)
    let recomputed =
      Siggen.signature ~authenticated:[ Package.authenticated_header pkg; out; pkg.data ]
    in
    let travelling = Bytes.copy pkg.enc_signature in
    Keystream.xor_in_place ks ~offset:text_len travelling;
    if not (Eric_crypto.Ct.equal recomputed travelling) then Error Signature_mismatch
    else
      Ok
        ( {
            Program.text = out;
            data = pkg.data;
            bss_size = pkg.bss_size;
            entry_offset = pkg.entry_offset;
            symbols = [];
          },
          stats )

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
  let out = Bytes.copy pkg.enc_text in
  Keystream.xor_in_place (Keystream.create ~key) ~offset:0 out;
  out
