(* Tests for the eric core library: key management, package wire format,
   encryption/decryption in every mode, the Validation Unit's rejection of
   every tampering scenario from the threat model, the two-way
   authentication protocol, and the attack-analysis metrics. *)

let check = Alcotest.check
let qtest ?(count = 100) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let test_source =
  {|
int main() {
  int s = 0;
  for (int i = 1; i <= 64; i = i + 1) { s = s + i * i; }
  println_int(s);
  return 0;
}
|}

let expected_output = "89440\n" (* sum of squares 1..64 *)

let image = lazy (Eric_cc.Driver.compile_exn test_source)

let device_key = Bytes.of_string "0123456789abcdef0123456789abcdef"
let other_key = Bytes.of_string "0123456789abcdef0123456789abcdeg"

let modes =
  [ ("full", Eric.Config.Full);
    ("partial-half", Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 11L }));
    ("partial-all", Eric.Config.Partial Eric.Config.Select_all);
    ("field-imm", Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all));
    ("field-abo", Eric.Config.Field (Eric.Config.All_but_opcode, Eric.Config.Select_all)) ]

(* ------------------------------------------------------------------ *)
(* Kmu                                                                 *)
(* ------------------------------------------------------------------ *)

let test_kmu_deterministic () =
  let k1 = Eric.Kmu.derive ~puf_key:(Bytes.of_string "puf!") Eric.Kmu.default_context in
  let k2 = Eric.Kmu.derive ~puf_key:(Bytes.of_string "puf!") Eric.Kmu.default_context in
  check Alcotest.string "same" (Eric_util.Bytesx.to_hex k1) (Eric_util.Bytesx.to_hex k2);
  check Alcotest.int "32 bytes" 32 (Bytes.length k1)

let test_kmu_context_separation () =
  let puf_key = Bytes.of_string "puf!" in
  let base = Eric.Kmu.derive ~puf_key Eric.Kmu.default_context in
  let epoch2 = Eric.Kmu.derive ~puf_key { Eric.Kmu.epoch = 2; label = "eric" } in
  let label2 = Eric.Kmu.derive ~puf_key { Eric.Kmu.epoch = 1; label = "other" } in
  check Alcotest.bool "epoch rotates key" false (Bytes.equal base epoch2);
  check Alcotest.bool "label scopes key" false (Bytes.equal base label2)

let kmu_derive_prop =
  (* Deterministic, and distinct contexts — different epoch or different
     label — must yield distinct keys (prefix-free KDF message). *)
  qtest ~count:300 "kmu derive separates contexts"
    QCheck.(
      triple
        (string_of_size (Gen.int_range 1 64))
        (pair small_nat small_printable_string)
        (pair small_nat small_printable_string))
    (fun (puf, (e1, l1), (e2, l2)) ->
      let puf_key = Bytes.of_string puf in
      let c1 = { Eric.Kmu.epoch = e1; label = l1 } in
      let c2 = { Eric.Kmu.epoch = e2; label = l2 } in
      let k1 = Eric.Kmu.derive ~puf_key c1 in
      let k2 = Eric.Kmu.derive ~puf_key c2 in
      Bytes.equal k1 (Eric.Kmu.derive ~puf_key c1)
      && Bytes.length k1 = 32
      && Bytes.equal k1 k2 = (e1 = e2 && String.equal l1 l2))

let test_kmu_device_key_matches_target () =
  let device = Eric_puf.Device.manufacture 5L in
  let target = Eric.Target.create device in
  check Alcotest.string "target caches the derived key"
    (Eric_util.Bytesx.to_hex (Eric.Kmu.device_key device))
    (Eric_util.Bytesx.to_hex (Eric.Target.derived_key target))

(* ------------------------------------------------------------------ *)
(* Package wire format                                                 *)
(* ------------------------------------------------------------------ *)

let build mode = fst (Eric.Encrypt.encrypt ~key:device_key ~mode (Lazy.force image))

let test_package_roundtrip_all_modes () =
  List.iter
    (fun (name, mode) ->
      let pkg = build mode in
      match Eric.Package.parse (Eric.Package.serialize pkg) with
      | Error e -> Alcotest.failf "%s: parse failed: %s" name e
      | Ok pkg' ->
        check Alcotest.bool (name ^ " kind") true (pkg'.Eric.Package.kind = pkg.Eric.Package.kind);
        check Alcotest.int (name ^ " entry") pkg.Eric.Package.entry_offset pkg'.Eric.Package.entry_offset;
        check Alcotest.int (name ^ " parcels") pkg.Eric.Package.parcel_count pkg'.Eric.Package.parcel_count;
        check Alcotest.bool (name ^ " map") true
          (match (pkg.Eric.Package.map, pkg'.Eric.Package.map) with
          | None, None -> true
          | Some a, Some b -> Eric_util.Bitvec.equal a b
          | _ -> false);
        check Alcotest.string (name ^ " text")
          (Eric_util.Bytesx.to_hex pkg.Eric.Package.enc_text)
          (Eric_util.Bytesx.to_hex pkg'.Eric.Package.enc_text);
        check Alcotest.int (name ^ " size") (Eric.Package.size pkg)
          (Bytes.length (Eric.Package.serialize pkg)))
    modes

let test_package_parse_rejects () =
  let pkg = build Eric.Config.Full in
  let wire = Eric.Package.serialize pkg in
  let is_err b = Result.is_error (Eric.Package.parse b) in
  check Alcotest.bool "truncated" true (is_err (Bytes.sub wire 0 (Bytes.length wire - 1)));
  check Alcotest.bool "extended" true (is_err (Bytes.cat wire (Bytes.make 1 'x')));
  let bad_magic = Bytes.copy wire in
  Bytes.set bad_magic 0 'X';
  check Alcotest.bool "magic" true (is_err bad_magic);
  let bad_version = Bytes.copy wire in
  Bytes.set bad_version 4 '\x09';
  check Alcotest.bool "version" true (is_err bad_version);
  let bad_mode = Bytes.copy wire in
  Bytes.set bad_mode 6 '\x07';
  check Alcotest.bool "mode tag" true (is_err bad_mode);
  check Alcotest.bool "empty" true (is_err Bytes.empty)

(* One regression test per malformed-package class: each must come back
   as a clean [Error] with a stable, distinct message — never an
   exception, never a misclassification. *)
let test_package_parse_malformed_classes () =
  let expect name expected b =
    match Eric.Package.parse b with
    | Ok _ -> Alcotest.failf "%s: expected parse error %S" name expected
    | Error msg -> check Alcotest.string name expected msg
  in
  let splice b ~at ~delete ~insert =
    Bytes.concat Bytes.empty
      [ Bytes.sub b 0 at; insert; Bytes.sub b (at + delete) (Bytes.length b - at - delete) ]
  in
  let with_u32 b off v =
    let c = Bytes.copy b in
    Bytes.set_int32_le c off (Int32.of_int v);
    c
  in
  let full_pkg = build Eric.Config.Full in
  let full = Eric.Package.serialize full_pkg in
  let partial = Eric.Package.serialize (build (Eric.Config.Partial Eric.Config.Select_all)) in
  let map_len = Int32.to_int (Bytes.get_int32_le partial 28) in
  let text_len = Int32.to_int (Bytes.get_int32_le partial 12) in
  let parcel_count = Int32.to_int (Bytes.get_int32_le partial 24) in
  check Alcotest.bool "fixture has a real map" true (map_len > 0);
  (* map one byte shorter than the parcel count needs *)
  expect "truncated map" "encryption map shorter than parcel count"
    (splice (with_u32 partial 28 (map_len - 1)) ~at:32 ~delete:1 ~insert:Bytes.empty);
  (* map one byte longer: the spare byte is zero, so only the length
     check can catch it *)
  expect "overlong map" "encryption map longer than parcel count"
    (splice
       (with_u32 partial 28 (map_len + 1))
       ~at:(32 + map_len) ~delete:0 ~insert:(Bytes.make 1 '\000'));
  (* a set bit in the map's padding (only exists when the parcel count
     is not a byte multiple) *)
  if parcel_count mod 8 <> 0 then begin
    let c = Bytes.copy partial in
    let last = 32 + map_len - 1 in
    Bytes.set c last (Char.chr (Char.code (Bytes.get c last) lor 0x80));
    expect "map padding bit" "encryption map has padding bits set" c
  end;
  (* a full-encryption package must not carry a map at all *)
  expect "full with map" "full-encryption package carries a map"
    (splice (with_u32 full 28 1) ~at:32 ~delete:0 ~insert:(Bytes.make 1 '\000'));
  (* parcel count no longer consistent with the text length *)
  expect "parcel count too large" "parcel count inconsistent with text length"
    (with_u32 full 24 (text_len + 1));
  expect "parcel count too small" "parcel count inconsistent with text length"
    (with_u32 full 24 ((text_len / 4) - 1));
  (* entry offset: odd (inside a parcel), or at/after the end of text *)
  expect "entry misaligned" "entry not parcel-aligned" (with_u32 full 8 1);
  expect "entry at text end" "entry out of range" (with_u32 full 8 text_len);
  expect "entry past text end" "entry out of range" (with_u32 full 8 (text_len + 2));
  (* u32 fields with the sign bit set *)
  expect "negative text length" "negative section length" (with_u32 full 12 (-4));
  (* reserved flag byte (bit 0 is the obfuscation-metadata flag, so the
     first *reserved* bit is bit 1) *)
  let flags = Bytes.copy full in
  Bytes.set flags 7 '\x02';
  expect "reserved flags" "reserved flags set" flags;
  (* truncated / overlong signature section: the total length no longer
     matches the header *)
  let starts_with_length_error b =
    match Eric.Package.parse b with
    | Error msg -> String.length msg >= 14 && String.sub msg 0 14 = "package length"
    | Ok _ -> false
  in
  check Alcotest.bool "truncated signature" true
    (starts_with_length_error (Bytes.sub full 0 (Bytes.length full - 5)));
  check Alcotest.bool "overlong signature" true
    (starts_with_length_error (Bytes.cat full (Bytes.make 3 '\000')))

let test_package_sizes_match_paper_accounting () =
  let img = Lazy.force image in
  let plain = Bytes.length (Eric_rv.Program.to_binary img) in
  let full = Eric.Package.size (build Eric.Config.Full) in
  let partial = Eric.Package.size (build (Eric.Config.Partial Eric.Config.Select_all)) in
  let parcels = Array.length (Eric_rv.Program.parcels img) in
  (* Full: header grows by 8 bytes vs the plain header, plus the 32-byte
     signature.  Partial: the same plus 1 bit per parcel. *)
  check Alcotest.int "full overhead" (plain + 8 + 32) full;
  check Alcotest.int "partial overhead" (full + ((parcels + 7) / 8)) partial


let package_parser_fuzz =
  qtest ~count:300 "parser never crashes on junk" QCheck.string (fun junk ->
      match Eric.Package.parse (Bytes.of_string junk) with
      | Ok _ | Error _ -> true)

let package_parser_fuzz_mutated =
  qtest ~count:300 "parser survives arbitrary mutations of a real package"
    QCheck.(pair small_nat (small_list (pair small_nat small_nat)))
    (fun (drop, edits) ->
      let wire = Eric.Package.serialize (build Eric.Config.Full) in
      let wire = Bytes.sub wire 0 (max 0 (Bytes.length wire - (drop mod Bytes.length wire))) in
      List.iter
        (fun (pos, value) ->
          if Bytes.length wire > 0 then
            Bytes.set wire (pos mod Bytes.length wire) (Char.chr (value land 0xFF)))
        edits;
      match Eric.Package.parse wire with
      | Ok pkg -> (
        (* structurally valid mutants must still never validate unless the
           mutation was a no-op *)
        match Eric.Encrypt.decrypt ~key:device_key pkg with
        | Ok _ -> Bytes.equal wire (Eric.Package.serialize (build Eric.Config.Full))
        | Error _ -> true)
      | Error _ -> true)

let package_flips =
  let labelled label pkg = (label, Eric.Package.serialize pkg) in
  let gen =
    QCheck.Gen.(
      map
        (fun (fraction, seed) ->
          labelled "random partial selection"
            (build
               (Eric.Config.Partial
                  (Eric.Config.Select_fraction { fraction; seed = Int64.of_int seed }))))
        (pair (float_bound_inclusive 1.0) nat))
  in
  Bit_flips.property ~name:"EPKG bit flips" ~random:4 ~gen
    ~corners:
      [ labelled "full" (build Eric.Config.Full);
        labelled "partial" (build (Eric.Config.Partial Eric.Config.Select_all));
        labelled "field"
          (build (Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all)));
        labelled "obf" { (build Eric.Config.Full) with Eric.Package.obf = Some (0x1F, 0x5EEDL) } ]
    ~roundtrip:(fun b ->
      Result.to_option (Result.map Eric.Package.serialize (Eric.Package.parse b)))

let test_authenticated_header_size () =
  List.iter
    (fun (name, pkg) ->
      check Alcotest.int name
        (Bytes.length (Eric.Package.authenticated_header pkg))
        (Eric.Package.authenticated_header_size pkg))
    (List.map (fun (name, mode) -> (name, build mode)) modes
    @ [ ("field-cf", build (Eric.Config.Field (Eric.Config.Control_flow, Eric.Config.Select_all)));
        ( "obfuscated",
          fst
            (Eric.Encrypt.encrypt ~obf:(0x1F, 0x5EEDL) ~key:device_key
               ~mode:(Eric.Config.Partial Eric.Config.Select_all) (Lazy.force image)) ) ])

(* ------------------------------------------------------------------ *)
(* Encrypt / decrypt                                                   *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_all_modes () =
  let img = Lazy.force image in
  List.iter
    (fun (name, mode) ->
      let pkg, stats = Eric.Encrypt.encrypt ~key:device_key ~mode img in
      match Eric.Encrypt.decrypt ~key:device_key pkg with
      | Error e -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Eric.Encrypt.pp_error e)
      | Ok (img', stats') ->
        check Alcotest.string (name ^ " text restored")
          (Eric_util.Bytesx.to_hex img.Eric_rv.Program.text)
          (Eric_util.Bytesx.to_hex img'.Eric_rv.Program.text);
        check Alcotest.int (name ^ " entry") img.Eric_rv.Program.entry_offset
          img'.Eric_rv.Program.entry_offset;
        check Alcotest.int (name ^ " bss") img.Eric_rv.Program.bss_size img'.Eric_rv.Program.bss_size;
        check Alcotest.int (name ^ " enc parcels agree") stats.Eric.Encrypt.encrypted_parcels
          stats'.Eric.Encrypt.encrypted_parcels)
    modes

let test_full_encrypts_everything () =
  let img = Lazy.force image in
  let _, stats = Eric.Encrypt.encrypt ~key:device_key ~mode:Eric.Config.Full img in
  check Alcotest.int "all parcels" stats.Eric.Encrypt.parcels stats.Eric.Encrypt.encrypted_parcels;
  check Alcotest.int "all bytes" (Eric_rv.Program.text_size img) stats.Eric.Encrypt.encrypted_bytes

let test_partial_fraction_plausible () =
  let img = Lazy.force image in
  let _, stats =
    Eric.Encrypt.encrypt ~key:device_key
      ~mode:(Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 1L }))
      img
  in
  let f = float_of_int stats.Eric.Encrypt.encrypted_parcels /. float_of_int stats.Eric.Encrypt.parcels in
  check Alcotest.bool "about half" true (f > 0.35 && f < 0.65)

let test_partial_ranges () =
  let img = Lazy.force image in
  let text_size = Eric_rv.Program.text_size img in
  let pkg, stats =
    Eric.Encrypt.encrypt ~key:device_key
      ~mode:(Eric.Config.Partial (Eric.Config.Select_ranges [ (0, 64) ]))
      img
  in
  check Alcotest.bool "only the range" true
    (stats.Eric.Encrypt.encrypted_bytes <= 68 && stats.Eric.Encrypt.encrypted_bytes >= 60);
  (* bytes outside the range are untouched ciphertext = plaintext *)
  let plain = img.Eric_rv.Program.text in
  check Alcotest.string "tail untouched"
    (Eric_util.Bytesx.to_hex (Bytes.sub plain 128 (text_size - 128)))
    (Eric_util.Bytesx.to_hex (Bytes.sub pkg.Eric.Package.enc_text 128 (text_size - 128)));
  match Eric.Encrypt.decrypt ~key:device_key pkg with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "range mode roundtrip"

let test_field_mode_keeps_opcodes () =
  let img = Lazy.force image in
  let plain = img.Eric_rv.Program.text in
  List.iter
    (fun scope ->
      let pkg, _ =
        Eric.Encrypt.encrypt ~key:device_key ~mode:(Eric.Config.Field (scope, Eric.Config.Select_all))
          img
      in
      let enc = pkg.Eric.Package.enc_text in
      (* Walk parcels of the plaintext and verify the opcode bits match in
         the ciphertext. *)
      let offsets = Eric_rv.Program.parcel_offsets img in
      Array.iteri
        (fun i parcel ->
          let pos = offsets.(i) in
          match parcel with
          | Eric_rv.Program.P32 _ ->
            let op_plain = Char.code (Bytes.get plain pos) land 0x7F in
            let op_enc = Char.code (Bytes.get enc pos) land 0x7F in
            check Alcotest.int "32-bit opcode preserved" op_plain op_enc
          | Eric_rv.Program.P16 _ ->
            let p = Bytes.get_uint16_le plain pos and e = Bytes.get_uint16_le enc pos in
            check Alcotest.int "16-bit opcode bits preserved" (p land 0xE003) (e land 0xE003))
        (Eric_rv.Program.parcels img))
    [ Eric.Config.Imm_fields; Eric.Config.All_but_opcode ]

let test_wrong_key_rejected () =
  List.iter
    (fun (name, mode) ->
      let pkg = build mode in
      match Eric.Encrypt.decrypt ~key:other_key pkg with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: wrong key accepted" name)
    modes

let test_every_bit_flip_detected () =
  (* Soft-error coverage: flip each byte of the serialised full package (a
     superset test of single bit flips at byte granularity) and require
     rejection or parse failure. *)
  let pkg = build Eric.Config.Full in
  let wire = Eric.Package.serialize pkg in
  let survived = ref 0 in
  for i = 0 to Bytes.length wire - 1 do
    let mutated = Bytes.copy wire in
    Bytes.set mutated i (Char.chr (Char.code (Bytes.get mutated i) lxor 0x40));
    match Eric.Package.parse mutated with
    | Error _ -> ()
    | Ok pkg' -> (
      match Eric.Encrypt.decrypt ~key:device_key pkg' with
      | Error _ -> ()
      | Ok _ -> incr survived)
  done;
  check Alcotest.int "no corruption survives" 0 !survived

let test_single_bit_flips_sampled () =
  let pkg = build (Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 3L })) in
  let wire = Eric.Package.serialize pkg in
  let rng = Eric_util.Prng.create ~seed:99L in
  for _ = 1 to 200 do
    let bit = Eric_util.Prng.int rng ~bound:(8 * Bytes.length wire) in
    let mutated = Bytes.copy wire in
    let pos = bit / 8 in
    Bytes.set mutated pos (Char.chr (Char.code (Bytes.get mutated pos) lxor (1 lsl (bit mod 8))));
    match Eric.Package.parse mutated with
    | Error _ -> ()
    | Ok pkg' -> (
      match Eric.Encrypt.decrypt ~key:device_key pkg' with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bit flip at %d survived validation" bit)
  done

let decrypt_roundtrip_random_keys =
  qtest ~count:50 "roundtrip under random keys" QCheck.(string_of_size (QCheck.Gen.return 16))
    (fun key_str ->
      let key = Bytes.of_string key_str in
      let img = Lazy.force image in
      let pkg, _ = Eric.Encrypt.encrypt ~key ~mode:Eric.Config.Full img in
      match Eric.Encrypt.decrypt ~key pkg with
      | Ok (img', _) ->
        Bytes.equal img.Eric_rv.Program.text img'.Eric_rv.Program.text
      | Error _ -> false)

(* The byte-at-a-time decryptor that the word XOR replaced, kept as its
   reference model: a keystream of one-shot SHA-256 blocks and an XOR
   walk, one byte at a time, that discovers the framing parcel by parcel
   in every mode.  The walk frames the whole decrypted text, so a
   validated image tiles. *)
let ref_stream ~key ~len =
  let blocks =
    List.init ((len + 31) / 32) (fun i ->
        let ctr = Bytes.create 8 in
        Bytes.set_int64_le ctr 0 (Int64.of_int i);
        Eric_crypto.Sha256.digest (Bytes.cat key ctr))
  in
  Bytes.sub (Bytes.concat Bytes.empty blocks) 0 len

let ref_decrypt ~key (pkg : Eric.Package.t) =
  let text_len = Bytes.length pkg.enc_text in
  let ks = ref_stream ~key ~len:(text_len + Eric.Siggen.signature_size) in
  let out = Bytes.copy pkg.enc_text in
  let xor_range ~pos ~len =
    for i = pos to pos + len - 1 do
      Bytes.set out i (Char.chr (Char.code (Bytes.get out i) lxor Char.code (Bytes.get ks i)))
    done
  in
  let map_bit idx =
    match pkg.map with
    | None -> true
    | Some m -> idx < Eric_util.Bitvec.length m && Eric_util.Bitvec.get m idx
  in
  let encrypted_parcels = ref 0 and encrypted_bytes = ref 0 in
  let fail msg = Error (Eric.Encrypt.Framing_failure msg) in
  let rec walk off idx =
    if off = text_len then
      if idx = pkg.parcel_count then Ok () else fail "fewer parcels than the header promises"
    else if off + 2 > text_len then fail "trailing odd byte"
    else if idx >= pkg.parcel_count then fail "more parcels than the header promises"
    else begin
      let enc = map_bit idx in
      let field = match pkg.kind with Eric.Package.M_field scope -> Some scope | _ -> None in
      if enc && field = None then xor_range ~pos:off ~len:2;
      let half = Bytes.get_uint16_le out off in
      let size = if half land 0b11 = 0b11 then 4 else 2 in
      if off + size > text_len then fail "32-bit parcel runs past the end"
      else begin
        if enc then begin
          (match field with
          | None -> if size = 4 then xor_range ~pos:(off + 2) ~len:2
          | Some scope ->
            if size = 4 then begin
              let w = Bytes.get_int32_le out off in
              let mask = Eric.Config.field_mask32 scope w in
              Bytes.set_int32_le out off
                (Int32.logxor w (Int32.logand (Bytes.get_int32_le ks off) mask))
            end
            else
              let mask = Eric.Config.field_mask16 scope half in
              Bytes.set_uint16_le out off (half lxor (Bytes.get_uint16_le ks off land mask)));
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
    let recomputed =
      Eric.Siggen.signature
        ~authenticated:[ Eric.Package.authenticated_header pkg; out; pkg.data ]
    in
    let travelling =
      Bytes.init Eric.Siggen.signature_size (fun i ->
          Char.chr
            (Char.code (Bytes.get pkg.enc_signature i)
            lxor Char.code (Bytes.get ks (text_len + i))))
    in
    if not (Bytes.equal recomputed travelling) then Error Eric.Encrypt.Signature_mismatch
    else
      Ok
        ( { Eric_rv.Program.text = out;
            data = pkg.data;
            bss_size = pkg.bss_size;
            entry_offset = pkg.entry_offset;
            symbols = [] },
          { Eric.Encrypt.parcels = pkg.parcel_count;
            encrypted_parcels = !encrypted_parcels;
            encrypted_bytes = !encrypted_bytes } ))

let all_modes =
  modes @ [ ("field-cf", Eric.Config.Field (Eric.Config.Control_flow, Eric.Config.Select_all)) ]

(* A package of one mode, mutated at the wire or the record level: byte
   edits and truncation that [Package.parse] may still accept, or record
   edits it would refuse (odd text lengths, wrong parcel counts, flipped
   map bits) so that every framing failure is reached. *)
type mutation =
  | Wire of (int * int) list * int
  | Text of (int * int) list * int
  | Count of int
  | Map_flip of int
  | Sig_flip of int

let gen_mutation =
  let edits = QCheck.Gen.(small_list (pair nat (int_bound 255))) in
  QCheck.Gen.(
    frequency
      [ (1, return (Wire ([], 0)));
        (3, map2 (fun e d -> Wire (e, d mod 4)) edits nat);
        (4, map2 (fun e d -> Text (e, d mod 5)) edits nat);
        (2, map (fun d -> Count (d mod 5 - 2)) nat);
        (2, map (fun i -> Map_flip i) nat);
        (1, map (fun i -> Sig_flip i) nat) ])

let apply_mutation pkg = function
  | Wire (edits, drop) -> (
    let wire = Eric.Package.serialize pkg in
    let wire = Bytes.sub wire 0 (Bytes.length wire - drop) in
    List.iter
      (fun (pos, v) -> Bytes.set wire (pos mod Bytes.length wire) (Char.chr v))
      edits;
    match Eric.Package.parse wire with Ok p -> Some p | Error _ -> None)
  | Text (edits, drop) ->
    let t = pkg.Eric.Package.enc_text in
    let t = Bytes.sub t 0 (max 0 (Bytes.length t - drop)) in
    if Bytes.length t > 0 then
      List.iter (fun (pos, v) -> Bytes.set t (pos mod Bytes.length t) (Char.chr v)) edits;
    Some { pkg with Eric.Package.enc_text = t }
  | Count d -> Some { pkg with Eric.Package.parcel_count = pkg.Eric.Package.parcel_count + d }
  | Map_flip i -> (
    match pkg.Eric.Package.map with
    | None -> None
    | Some m ->
      let bits = Eric_util.Bitvec.to_bool_array m in
      let i = i mod Array.length bits in
      bits.(i) <- not bits.(i);
      Some { pkg with Eric.Package.map = Some (Eric_util.Bitvec.of_bool_array bits) })
  | Sig_flip i ->
    let s = Bytes.copy pkg.Eric.Package.enc_signature in
    let i = i mod Bytes.length s in
    Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
    Some { pkg with Eric.Package.enc_signature = s }

let mode_packages =
  lazy (List.map (fun (name, mode) -> (name, build mode)) all_modes)

let decrypt_matches_reference =
  qtest ~count:400 "decrypt = byte-wise reference on mutated packages"
    QCheck.(
      make
        Gen.(triple (int_bound (List.length all_modes - 1)) gen_mutation bool))
    (fun (m, mutation, right_key) ->
      let _, pkg = List.nth (Lazy.force mode_packages) m in
      let key = if right_key then device_key else other_key in
      match apply_mutation pkg mutation with
      | None -> true
      | Some pkg -> Eric.Encrypt.decrypt ~key pkg = ref_decrypt ~key pkg)

(* Personalize's masked pass against the reference walk, under the
   selections the golden pins do not cover: a random workload, and a
   random partial selection or a field scope with one. *)
let workload_images =
  lazy
    (Array.of_list
       (List.map
          (fun (w : Eric_workloads.Workloads.t) ->
            (w.Eric_workloads.Workloads.name,
             Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source))
          Eric_workloads.Workloads.all))

let gen_selection =
  QCheck.Gen.(
    oneof
      [ map2
          (fun pct seed ->
            Eric.Config.Select_fraction
              { fraction = float_of_int pct /. 100.0; seed = Int64.of_int seed })
          (int_bound 100) nat;
        map
          (fun rs -> Eric.Config.Select_ranges (List.map (fun (lo, len) -> (lo, lo + len)) rs))
          (small_list (pair (int_bound 4096) (int_bound 512)));
        return Eric.Config.Select_all ])

let gen_selection_mode =
  QCheck.Gen.(
    oneof
      [ map (fun s -> Eric.Config.Partial s) gen_selection;
        map2
          (fun scope s -> Eric.Config.Field (scope, s))
          (oneofl [ Eric.Config.Imm_fields; Eric.Config.All_but_opcode; Eric.Config.Control_flow ])
          gen_selection ])

let personalize_matches_reference =
  qtest ~count:60 "personalize under random selections = byte-wise reference"
    QCheck.(
      make
        ~print:(fun (w, mode) -> Format.asprintf "workload %d, %a" w Eric.Config.pp_mode mode)
        Gen.(pair (int_bound (List.length Eric_workloads.Workloads.all - 1)) gen_selection_mode))
    (fun (w, mode) ->
      let _, image = (Lazy.force workload_images).(w) in
      let prepared = Eric.Encrypt.prepare ~mode image in
      let pkg, stats = Eric.Encrypt.personalize ~key:device_key prepared in
      let expected =
        Ok ({ image with Eric_rv.Program.symbols = [] }, Eric.Encrypt.prepared_stats prepared)
      in
      stats = Eric.Encrypt.prepared_stats prepared
      && ref_decrypt ~key:device_key pkg = expected
      && Eric.Encrypt.decrypt ~key:device_key pkg = expected)

(* An image's text is a buffer: no stage may write into one it did not
   allocate, nor hand out one that another holder can still write. *)
let test_personalize_leaves_image_and_skeleton () =
  List.iter
    (fun (name, mode) ->
      let img = Lazy.force image in
      let own = { img with Eric_rv.Program.text = Bytes.copy img.Eric_rv.Program.text } in
      let text = Bytes.copy own.Eric_rv.Program.text in
      let prepared = Eric.Encrypt.prepare ~mode own in
      let wire key = Eric.Package.serialize (fst (Eric.Encrypt.personalize ~key prepared)) in
      let first = wire device_key in
      ignore (wire other_key);
      check Alcotest.bool (name ^ ": image text unchanged") true
        (Bytes.equal text own.Eric_rv.Program.text);
      check Alcotest.bool (name ^ ": skeleton unchanged") true (Bytes.equal first (wire device_key));
      (* nor does the skeleton follow later edits of the image *)
      Bytes.set own.Eric_rv.Program.text 0 '\xAA';
      check Alcotest.bool (name ^ ": skeleton is its own copy") true
        (Bytes.equal first (wire device_key)))
    all_modes

let decrypted mode =
  let pkg = build mode in
  match Eric.Encrypt.decrypt ~key:device_key pkg with
  | Ok (img, _) -> (pkg, img)
  | Error e -> Alcotest.failf "%a" Eric.Encrypt.pp_error e

let test_package_edits_leave_image () =
  List.iter
    (fun (name, mode) ->
      let pkg, img = decrypted mode in
      let text = Bytes.copy img.Eric_rv.Program.text in
      Bytes.fill pkg.Eric.Package.enc_text 0 (Bytes.length pkg.Eric.Package.enc_text) '\x00';
      check Alcotest.bool (name ^ ": image unchanged") true
        (Bytes.equal text img.Eric_rv.Program.text))
    all_modes

let test_image_edits_leave_package () =
  List.iter
    (fun (name, mode) ->
      let pkg, img = decrypted mode in
      let wire = Eric.Package.serialize pkg in
      Bytes.fill img.Eric_rv.Program.text 0 (Bytes.length img.Eric_rv.Program.text) '\x00';
      check Alcotest.bool (name ^ ": package unchanged") true
        (Bytes.equal wire (Eric.Package.serialize pkg)))
    all_modes

(* Golden crypto pin, recorded before the package crypto was reworked:
   the SHA-256 of every serialized package and of its decrypted image,
   for every workload (large dataset) in four modes under [device_key].
   A keystream, signature or framing change that is self-consistent but
   different breaks every package already shipped; this catches it. *)
let golden_packages =
  [ "basicmath full pkg=71bcdb725a65939c9186c8d12b63da0898e1313e0eaf5ffc7096f4343efc5ed7 \
     image=d6e88e0a184f238f4e51f5799f98b50f65a1c89a113b579f820f67b30bd525f5";
    "basicmath partial pkg=fe1c732aa0e5cc94a656db4717d5d0f076bd7b37781e970599c9bc08463f8c0d \
     image=d6e88e0a184f238f4e51f5799f98b50f65a1c89a113b579f820f67b30bd525f5";
    "basicmath field-imm pkg=442cf2ac2211840fce40efda7f0580e9b41c1951857367df66023c78a8359776 \
     image=d6e88e0a184f238f4e51f5799f98b50f65a1c89a113b579f820f67b30bd525f5";
    "basicmath field-cf pkg=e99c220ba5b4abc9004ad34ce1ed5ba968e765042ab3f0b39eebdd427348be3b \
     image=d6e88e0a184f238f4e51f5799f98b50f65a1c89a113b579f820f67b30bd525f5";
    "bitcount full pkg=82f8a03ce87056519aa1c91a3f5d587ea196802d8113cec9bfbd2d928ad2c834 \
     image=4eafce64289bb43ae8c9f6c801213310cfcca0b03c34e2e2e4bdf1ebce92592a";
    "bitcount partial pkg=c8ce2d7842b81893eabe04778fa09a9942038cd8988ad945f5397bfa5b5d1004 \
     image=4eafce64289bb43ae8c9f6c801213310cfcca0b03c34e2e2e4bdf1ebce92592a";
    "bitcount field-imm pkg=ecf6245bedbe564e5ee61dc6b958e4528fbbdde597daaa9150ecb52437a148bf \
     image=4eafce64289bb43ae8c9f6c801213310cfcca0b03c34e2e2e4bdf1ebce92592a";
    "bitcount field-cf pkg=891bf504db1fba440524811d629cfdf045e29588099cd37a98ffd1cda826fbdd \
     image=4eafce64289bb43ae8c9f6c801213310cfcca0b03c34e2e2e4bdf1ebce92592a";
    "qsort full pkg=68abe29a5077087b873839eb541ceb20f54d39994c1f43b502a76f129b2a87b3 \
     image=bdcfa96175ef987c6143464e68079ff3e07c0bef1511a588f6b70472143e1d5b";
    "qsort partial pkg=5a0bf3879c3fd831bc99bd5355751a5633a50254abcdcb850d72cbc835feee7f \
     image=bdcfa96175ef987c6143464e68079ff3e07c0bef1511a588f6b70472143e1d5b";
    "qsort field-imm pkg=7a6b16b9e5394af87bfa4b27d58a30e3720ededd52e7d61c53d3f947bcc6d7dd \
     image=bdcfa96175ef987c6143464e68079ff3e07c0bef1511a588f6b70472143e1d5b";
    "qsort field-cf pkg=f4ead76b298a09ce3b52bd6bf7f4f9c2bfbeba50509932e73f97cfe043119cc0 \
     image=bdcfa96175ef987c6143464e68079ff3e07c0bef1511a588f6b70472143e1d5b";
    "dijkstra full pkg=48e37d2ed5b9c55d65db7916754da6f17d37d8fe06e1efa12e59cb2b6633d47e \
     image=6267fd0e192e78954c23b97a2c3f154ebdfe3d5853f06b4fa11eced72052f660";
    "dijkstra partial pkg=0acdaa464ff739cc98763518d9a967a2752717156b24f1182b6bb52fa4360bf5 \
     image=6267fd0e192e78954c23b97a2c3f154ebdfe3d5853f06b4fa11eced72052f660";
    "dijkstra field-imm pkg=98e92096a0a23a593878eedd0ecf46a92edfc5537ec7621834de2bd157b360a0 \
     image=6267fd0e192e78954c23b97a2c3f154ebdfe3d5853f06b4fa11eced72052f660";
    "dijkstra field-cf pkg=cd4b7067ee8e335975b28415cf4c92aa3e0d942d25573b0df3cd625a86363b92 \
     image=6267fd0e192e78954c23b97a2c3f154ebdfe3d5853f06b4fa11eced72052f660";
    "crc32 full pkg=86be9893b65d07282a332a437043f69be9ece632fc7643d01da03426d1874f5a \
     image=393221b6bfde2cc8d816acf1ba1f1106905de3a8dc4ddce3b242324ebb9dabf4";
    "crc32 partial pkg=7d553b629978cf889e6bbedd407ec4fecd112d41c5e1849530f5496bb2f22f5c \
     image=393221b6bfde2cc8d816acf1ba1f1106905de3a8dc4ddce3b242324ebb9dabf4";
    "crc32 field-imm pkg=d09f34df569dc51e422cd7bfc8a0ab16a924304ce027b09b49f792a7b68d3f22 \
     image=393221b6bfde2cc8d816acf1ba1f1106905de3a8dc4ddce3b242324ebb9dabf4";
    "crc32 field-cf pkg=fff1dc80b99350e4ba5509f415f8de586dfcc6abfc6722b537a2811e248ee3ae \
     image=393221b6bfde2cc8d816acf1ba1f1106905de3a8dc4ddce3b242324ebb9dabf4";
    "stringsearch full pkg=1dc56d5e7583bc37fa79c97578cdccef55ff464484105b5d9c18728b59cb4113 \
     image=ec8f25850514c6902f0e7fb538721ee7409381b978cbade014632de92dd38e4a";
    "stringsearch partial pkg=7b4f51e4afb2755adc81b5a565565b2aa14d8cf96a6a828c0fe0f6285a8adf38 \
     image=ec8f25850514c6902f0e7fb538721ee7409381b978cbade014632de92dd38e4a";
    "stringsearch field-imm pkg=0a06b1b0204a594f666787d487e2124659615e2250a8f9d9a17a11b67e22f97e \
     image=ec8f25850514c6902f0e7fb538721ee7409381b978cbade014632de92dd38e4a";
    "stringsearch field-cf pkg=04b0d95d07ed0a60f61eafa240e1104801f775c0bdaf9ad02a3701b34e4f813a \
     image=ec8f25850514c6902f0e7fb538721ee7409381b978cbade014632de92dd38e4a";
    "sha full pkg=48fc1f6802287c1f0736dc2e0408e8a1f50488d6c50df65c6727f40a1ada1791 \
     image=c4a2a4e07e213181c2348de5d6292b8c362dc7cb477087780f5f9e10b23cafe5";
    "sha partial pkg=5927f4a1cffd4d5ec4edac557aeb0fee39db8c321c6615137897db9c7a5a3407 \
     image=c4a2a4e07e213181c2348de5d6292b8c362dc7cb477087780f5f9e10b23cafe5";
    "sha field-imm pkg=0ccee7b59f7f3a35c98c4d5b30e3ec9a3c005e86827a92fecefbe8acc2645722 \
     image=c4a2a4e07e213181c2348de5d6292b8c362dc7cb477087780f5f9e10b23cafe5";
    "sha field-cf pkg=0de003696d6f6b50127843299a8b09abd690cc5c7ce69489554b82177105a967 \
     image=c4a2a4e07e213181c2348de5d6292b8c362dc7cb477087780f5f9e10b23cafe5";
    "adpcm full pkg=898b37a3c46b5efc0c488c1a1ea40bcff2204ab7498116e3375a7a8438443f53 \
     image=8264db496790d53ace015a270c9c6bbfc97cffd4151a52b40e3906d69f5c62e7";
    "adpcm partial pkg=df9ded9da4f3ba562a14fa4fc96618f8f3bf4e237fba7b82ccb4d13623efd0cf \
     image=8264db496790d53ace015a270c9c6bbfc97cffd4151a52b40e3906d69f5c62e7";
    "adpcm field-imm pkg=c75bc484cd4399802bfc48813b0929e8fb3b1c7b4d738df37b90d6b063887b46 \
     image=8264db496790d53ace015a270c9c6bbfc97cffd4151a52b40e3906d69f5c62e7";
    "adpcm field-cf pkg=60683c780e8b3b45eb342fd445354a31272f07361b91b6425aaa22b0b1f07fc4 \
     image=8264db496790d53ace015a270c9c6bbfc97cffd4151a52b40e3906d69f5c62e7";
    "rijndael full pkg=dd10760a2f33a483b25323949261a3818556c63b0ce4e4856a4a33e15798e7ed \
     image=bce796084c989246c34f2b7b21125c11eb810b299f5a6d99d7e2fcc5d0cd1c73";
    "rijndael partial pkg=e3c47bbccbb0310eb2c2f1cafb6d8d828c14fcc79596b2ed6a56ed882cde2e59 \
     image=bce796084c989246c34f2b7b21125c11eb810b299f5a6d99d7e2fcc5d0cd1c73";
    "rijndael field-imm pkg=f3391e74022ed9c4b9551f2489186d19190a764257ec5722dbe96bc703732447 \
     image=bce796084c989246c34f2b7b21125c11eb810b299f5a6d99d7e2fcc5d0cd1c73";
    "rijndael field-cf pkg=73af8c0253ca95fd1678631b745710df68eb7b62206e0eca408a326bb3e7b72e \
     image=bce796084c989246c34f2b7b21125c11eb810b299f5a6d99d7e2fcc5d0cd1c73";
    "fft full pkg=881434b66e6e85ba20aceaea75b05e3f1a1e4becc7b5b64bbe119b8fec6e1fe8 \
     image=34bf073a5b6a362d4085d596176982924bbfbce91d2244e0edd6bb7a42277b2b";
    "fft partial pkg=da3516cc72ca0152f3893c6609656a5cbd5b3fe01bfbcfdf7d756a5a99ed6db1 \
     image=34bf073a5b6a362d4085d596176982924bbfbce91d2244e0edd6bb7a42277b2b";
    "fft field-imm pkg=edbd1f43812774b4ca3a025682430844cfd7e60cab8d828def6852cfb6c6f3a5 \
     image=34bf073a5b6a362d4085d596176982924bbfbce91d2244e0edd6bb7a42277b2b";
    "fft field-cf pkg=1f85764464a433f1fa089736f659cb7a2b7c39eb936f96875b8e52fc9d33256f \
     image=34bf073a5b6a362d4085d596176982924bbfbce91d2244e0edd6bb7a42277b2b" ]

let golden_modes =
  [ ("full", Eric.Config.Full);
    ("partial", Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 11L }));
    ("field-imm", Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all));
    ("field-cf", Eric.Config.Field (Eric.Config.Control_flow, Eric.Config.Select_all)) ]

let test_golden_packages () =
  let rows =
    List.concat_map
      (fun (w : Eric_workloads.Workloads.t) ->
        let image = Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source in
        List.map
          (fun (mode_name, mode) ->
            let pkg, _ = Eric.Encrypt.encrypt ~key:device_key ~mode image in
            match Eric.Encrypt.decrypt ~key:device_key pkg with
            | Error e ->
              Alcotest.failf "%s %s: %a" w.Eric_workloads.Workloads.name mode_name
                Eric.Encrypt.pp_error e
            | Ok (decrypted, _) ->
              Printf.sprintf "%s %s pkg=%s image=%s" w.Eric_workloads.Workloads.name mode_name
                (Eric_crypto.Sha256.hex (Eric.Package.serialize pkg))
                (Eric_crypto.Sha256.hex (Eric_rv.Program.to_binary decrypted)))
          golden_modes)
      Eric_workloads.Workloads.all
  in
  check Alcotest.(list string) "golden packages" golden_packages rows

(* The images the golden packages do not reach, recorded before the
   compiler's analyses moved to dense temp sets: one SHA-256 over
   [Program.to_binary] of every small-dataset workload, with compression
   on and off, then of generated programs 1-200.  Register allocation
   breaks interval ties in a fixed order, and this pins it. *)
let test_golden_images () =
  let buf = Buffer.create (1 lsl 20) in
  let add options src =
    match Eric_cc.Driver.compile ~options src with
    | Ok img -> Buffer.add_bytes buf (Eric_rv.Program.to_binary img)
    | Error e -> Alcotest.fail e
  in
  let uncompressed = { Eric_cc.Driver.default_options with Eric_cc.Driver.compress = false } in
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      add Eric_cc.Driver.default_options w.Eric_workloads.Workloads.source_small;
      add uncompressed w.Eric_workloads.Workloads.source_small)
    Eric_workloads.Workloads.all;
  for seed = 1 to 200 do
    add Eric_cc.Driver.default_options
      (Eric_verif.Gen.generate ~seed:(Int64.of_int seed) ()).Eric_verif.Gen.source
  done;
  check Alcotest.string "images"
    "b0729c51d736b378f03556de379b6a6cafebf60abcc7896daf77cbd9c3338238"
    (Eric_crypto.Sha256.hex (Buffer.to_bytes buf))

(* ------------------------------------------------------------------ *)
(* Target / end-to-end execution                                       *)
(* ------------------------------------------------------------------ *)

let target = lazy (Eric.Target.of_id 1001L)

let test_execute_all_modes () =
  let t = Lazy.force target in
  let key = Eric.Target.derived_key t in
  List.iter
    (fun (name, mode) ->
      match Eric.Source.build ~mode ~key test_source with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok b -> (
        match Eric.Target.execute t b.Eric.Source.package with
        | Error e -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" Eric.Target.pp_load_error e)
        | Ok result ->
          check Alcotest.string (name ^ " output") expected_output result.Eric_sim.Soc.output;
          check Alcotest.bool (name ^ " exited 0") true
            (result.Eric_sim.Soc.status = Eric_sim.Cpu.Exited 0);
          check Alcotest.bool (name ^ " load cycles positive") true
            (Int64.compare result.Eric_sim.Soc.load_cycles 0L > 0)))
    modes

let test_encrypted_load_slower_than_plain () =
  let t = Lazy.force target in
  let key = Eric.Target.derived_key t in
  match Eric.Source.build ~mode:Eric.Config.Full ~key test_source with
  | Error e -> Alcotest.fail e
  | Ok b -> (
    match Eric.Target.execute t b.Eric.Source.package with
    | Error _ -> Alcotest.fail "execution failed"
    | Ok enc_result ->
      let plain_result = Eric_sim.Soc.run_program b.Eric.Source.image in
      check Alcotest.bool "hde load slower" true
        (Int64.compare enc_result.Eric_sim.Soc.load_cycles plain_result.Eric_sim.Soc.load_cycles
        > 0);
      check Alcotest.int64 "same exec cycles" plain_result.Eric_sim.Soc.exec_cycles
        enc_result.Eric_sim.Soc.exec_cycles)

let test_receive_reports_hde_breakdown () =
  let t = Lazy.force target in
  let key = Eric.Target.derived_key t in
  match Eric.Source.build ~mode:Eric.Config.Full ~key test_source with
  | Error e -> Alcotest.fail e
  | Ok b -> (
    match Eric.Target.receive t b.Eric.Source.package with
    | Error _ -> Alcotest.fail "receive failed"
    | Ok loaded ->
      let bd = loaded.Eric.Target.load in
      check Alcotest.bool "keystream dominates for full encryption" true
        (Int64.compare bd.Eric_hw.Hde.keystream_cycles bd.Eric_hw.Hde.dma_cycles > 0))

(* ------------------------------------------------------------------ *)
(* Protocol: two-way authentication                                    *)
(* ------------------------------------------------------------------ *)

let test_protocol_happy_path () =
  let t = Lazy.force target in
  let key = Eric.Protocol.provision t in
  match Eric.Source.build ~mode:Eric.Config.Full ~key test_source with
  | Error e -> Alcotest.fail e
  | Ok b -> (
    match Eric.Protocol.transmit ~source:b ~target:t () with
    | Eric.Protocol.Executed r -> check Alcotest.string "output" expected_output r.Eric_sim.Soc.output
    | Eric.Protocol.Refused _ -> Alcotest.fail "refused legit package")

let test_protocol_attacks_refused () =
  let t = Lazy.force target in
  let key = Eric.Protocol.provision t in
  match Eric.Source.build ~mode:Eric.Config.Full ~key test_source with
  | Error e -> Alcotest.fail e
  | Ok b ->
    let refused attack =
      match Eric.Protocol.transmit ~attack ~source:b ~target:t () with
      | Eric.Protocol.Refused _ -> true
      | Eric.Protocol.Executed _ -> false
    in
    check Alcotest.bool "bit flips" true (refused (Eric.Protocol.Bit_flips { count = 3; seed = 5L }));
    check Alcotest.bool "truncate" true (refused (Eric.Protocol.Truncate 10));
    check Alcotest.bool "splice" true
      (refused (Eric.Protocol.Splice { payload = Bytes.make 16 '\xAA'; at = 100 }));
    (* replay of a package built for a different device *)
    let other = Eric.Target.of_id 2002L in
    (match Eric.Source.build ~mode:Eric.Config.Full ~key:(Eric.Protocol.provision other) test_source with
    | Error e -> Alcotest.fail e
    | Ok foreign ->
      check Alcotest.bool "replayed foreign package" true
        (refused (Eric.Protocol.Replay (Eric.Package.serialize foreign.Eric.Source.package))))

(* The whole pipeline is instrumented: a successful transmit must leave
   decrypt/validation counts in the telemetry registry, and every refusal
   must land in the refused_total family under its reason. *)
let test_protocol_populates_telemetry () =
  Eric_telemetry.Snapshot.reset_all ();
  Eric_telemetry.Control.enable ();
  Fun.protect
    ~finally:(fun () ->
      Eric_telemetry.Control.disable ();
      Eric_telemetry.Snapshot.reset_all ())
    (fun () ->
      let t = Lazy.force target in
      let key = Eric.Protocol.provision t in
      match Eric.Source.build ~mode:Eric.Config.Full ~key test_source with
      | Error e -> Alcotest.fail e
      | Ok b ->
        (match Eric.Protocol.transmit ~source:b ~target:t () with
        | Eric.Protocol.Executed _ -> ()
        | Eric.Protocol.Refused _ -> Alcotest.fail "refused legit package");
        let counter ?labels name = Int64.to_int (Eric_telemetry.Registry.counter ?labels name) in
        check Alcotest.bool "parcels decrypted" true (counter "ingest.parcels_decrypted" > 0);
        check Alcotest.bool "bytes in" true (counter "ingest.bytes_in" > 0);
        check Alcotest.int "signature validated ok" 1
          (counter ~labels:[ ("result", "ok") ] "ingest.signature_validations");
        check Alcotest.int "no refusals yet" 0
          (Int64.to_int (Eric_telemetry.Registry.counter_family_total "ingest.refused_total"));
        (* a truncated transmission fails framing *)
        (match Eric.Protocol.transmit ~attack:(Eric.Protocol.Truncate 10) ~source:b ~target:t () with
        | Eric.Protocol.Refused _ -> ()
        | Eric.Protocol.Executed _ -> Alcotest.fail "truncation executed");
        check Alcotest.int "refusal reason counted" 1
          (counter ~labels:[ ("reason", "malformed") ] "ingest.refused_total"
          + counter ~labels:[ ("reason", "framing") ] "ingest.refused_total");
        (* a package for another device fails its signature or framing *)
        let other = Eric.Target.of_id 2002L in
        (match Eric.Source.build ~mode:Eric.Config.Full ~key:(Eric.Protocol.provision other) test_source with
        | Error e -> Alcotest.fail e
        | Ok foreign -> (
          match Eric.Protocol.transmit ~source:foreign ~target:t () with
          | Eric.Protocol.Refused _ -> ()
          | Eric.Protocol.Executed _ -> Alcotest.fail "foreign package executed"));
        check Alcotest.int "both refusals in family" 2
          (Int64.to_int (Eric_telemetry.Registry.counter_family_total "ingest.refused_total"));
        (* the compiler and simulator stages left spans behind *)
        let span_names =
          List.map (fun (e : Eric_telemetry.Span.event) -> e.Eric_telemetry.Span.name)
            (Eric_telemetry.Span.completed ())
        in
        List.iter
          (fun needed ->
            check Alcotest.bool ("span " ^ needed) true (List.mem needed span_names))
          [ "cc.compile"; "core.encrypt"; "transit.transmit"; "ingest.receive"; "sim.execute" ])

let test_protocol_cross_check_diagonal () =
  let targets = List.map (fun id -> (Printf.sprintf "dev%Ld" id, Eric.Target.of_id id)) [ 1L; 2L; 3L ] in
  let keys = List.map (fun (n, t) -> (n, Eric.Protocol.provision t)) targets in
  match Eric.Source.build_multi ~mode:Eric.Config.Full ~keys test_source with
  | Error e -> Alcotest.fail e
  | Ok builds ->
    let matrix = Eric.Protocol.cross_check ~builds ~targets in
    List.iter
      (fun (bname, tname, ok) ->
        check Alcotest.bool (Printf.sprintf "%s on %s" bname tname) (bname = tname) ok)
      matrix

let test_build_multi_shares_work () =
  (* One compile, one signature, one layout — the key-independent work
     must run once no matter how many devices are personalized, and every
     build must share the plaintext image *physically*, not by copy. *)
  let keys =
    List.map
      (fun id -> (Printf.sprintf "dev%Ld" id, Eric.Target.derived_key (Eric.Target.of_id id)))
      [ 501L; 502L; 503L; 504L ]
  in
  Eric_telemetry.Snapshot.reset_all ();
  Eric_telemetry.Control.enable ();
  Fun.protect
    ~finally:(fun () ->
      Eric_telemetry.Control.disable ();
      Eric_telemetry.Snapshot.reset_all ())
    (fun () ->
      match Eric.Source.build_multi ~mode:Eric.Config.Full ~keys test_source with
      | Error e -> Alcotest.fail e
      | Ok builds ->
        let counter name = Int64.to_int (Eric_telemetry.Registry.counter name) in
        check Alcotest.int "signature computed once total" 1 (counter "build.signatures_total");
        check Alcotest.int "one personalization per device" 4
          (counter "build.personalizations_total");
        let images = List.map (fun (_, b) -> b.Eric.Source.image) builds in
        let first = List.hd images in
        List.iter
          (fun img -> check Alcotest.bool "plaintext image physically shared" true (img == first))
          images;
        (* each personalized build is byte-identical to a direct build *)
        let name0, key0 = List.hd keys in
        let direct =
          match Eric.Source.build ~mode:Eric.Config.Full ~key:key0 test_source with
          | Ok b -> b
          | Error e -> Alcotest.fail e
        in
        check Alcotest.string "equivalent to Source.build"
          (Eric_util.Bytesx.to_hex (Eric.Package.serialize direct.Eric.Source.package))
          (Eric_util.Bytesx.to_hex
             (Eric.Package.serialize (List.assoc name0 builds).Eric.Source.package)))

let test_protocol_cross_check_fleet () =
  (* Fleet scale: 31 distinct devices plus one deliberate clone of device
     16 (same silicon id, so the same PUF and the same derived key). The
     execute matrix must be exactly the diagonal plus the clone pair —
     the only off-diagonal entries that may execute. *)
  let named id name = (name, Eric.Target.of_id id) in
  let targets =
    List.init 31 (fun i ->
        let id = Int64.of_int (i + 1) in
        named id (Printf.sprintf "dev%Ld" id))
    @ [ named 16L "clone16" ]
  in
  let keys = List.map (fun (n, t) -> (n, Eric.Protocol.provision t)) targets in
  match Eric.Source.build_multi ~mode:Eric.Config.Full ~keys test_source with
  | Error e -> Alcotest.fail e
  | Ok builds ->
    let matrix = Eric.Protocol.cross_check ~builds ~targets in
    check Alcotest.int "full matrix" (32 * 32) (List.length matrix);
    List.iter
      (fun (bname, tname, ok) ->
        let clone_pair =
          (bname = "dev16" && tname = "clone16") || (bname = "clone16" && tname = "dev16")
        in
        check Alcotest.bool (Printf.sprintf "%s on %s" bname tname)
          (bname = tname || clone_pair) ok)
      matrix

let test_epoch_rotation_revokes () =
  (* A package built for epoch 1 must not run after the device rotates its
     KMU context to epoch 2. *)
  let device = Eric_puf.Device.manufacture 77L in
  let t1 = Eric.Target.create ~context:{ Eric.Kmu.epoch = 1; label = "eric" } device in
  let t2 = Eric.Target.create ~context:{ Eric.Kmu.epoch = 2; label = "eric" } device in
  match Eric.Source.build ~mode:Eric.Config.Full ~key:(Eric.Protocol.provision t1) test_source with
  | Error e -> Alcotest.fail e
  | Ok b ->
    (match Eric.Protocol.transmit ~source:b ~target:t1 () with
    | Eric.Protocol.Executed _ -> ()
    | Eric.Protocol.Refused _ -> Alcotest.fail "epoch 1 should accept");
    (match Eric.Protocol.transmit ~source:b ~target:t2 () with
    | Eric.Protocol.Refused _ -> ()
    | Eric.Protocol.Executed _ -> Alcotest.fail "epoch 2 should refuse")



let test_provision_over_network () =
  let t = Lazy.force target in
  let rng = Eric_util.Prng.create ~seed:404L in
  let source_key = Eric_crypto.Rsa.generate ~bits:384 rng in
  (* happy path: the source recovers exactly the device's derived key *)
  (match Eric.Protocol.provision_over_network ~rng ~source_key t with
  | Ok key ->
    check Alcotest.string "recovered key" 
      (Eric_util.Bytesx.to_hex (Eric.Target.derived_key t))
      (Eric_util.Bytesx.to_hex key)
  | Error e -> Alcotest.fail e);
  (* tampered wire: padding validation rejects (or at worst yields a key
     that matches nothing) *)
  (match
     Eric.Protocol.provision_over_network
       ~attack:(Eric.Protocol.Bit_flips { count = 2; seed = 9L })
       ~rng ~source_key t
   with
  | Error _ -> ()
  | Ok key ->
    check Alcotest.bool "corrupted provisioning never yields the real key" false
      (Bytes.equal key (Eric.Target.derived_key t)));
  (* end to end: provision in band, then build + execute *)
  match Eric.Protocol.provision_over_network ~rng ~source_key t with
  | Error e -> Alcotest.fail e
  | Ok key -> (
    match Eric.Source.build ~mode:Eric.Config.Full ~key test_source with
    | Error e -> Alcotest.fail e
    | Ok b -> (
      match Eric.Protocol.transmit ~source:b ~target:t () with
      | Eric.Protocol.Executed r ->
        check Alcotest.string "runs with network-provisioned key" expected_output
          r.Eric_sim.Soc.output
      | Eric.Protocol.Refused _ -> Alcotest.fail "refused"))

(* ------------------------------------------------------------------ *)
(* Environment-bound keys                                              *)
(* ------------------------------------------------------------------ *)

let puf_key = Bytes.of_string "envbind-puf-key!"
let ctx = Eric.Kmu.default_context

let test_envbind_unconstrained_is_base () =
  check Alcotest.string "matches plain KMU derivation"
    (Eric_util.Bytesx.to_hex (Eric.Kmu.derive ~puf_key ctx))
    (Eric_util.Bytesx.to_hex (Eric.Envbind.derive ~puf_key ~context:ctx Eric.Envbind.unconstrained))

let test_envbind_same_window_same_key () =
  let wanted =
    { Eric.Envbind.hour_slot = Some 100; temperature_band = Some 2; frequency_mhz = Some 25 }
  in
  let key_at env =
    Eric.Envbind.derive ~puf_key ~context:ctx (Eric.Envbind.observe ~window_hours:4 env wanted)
  in
  let a = key_at { Eric.Envbind.unix_hours = 400; temperature_c = 20; clock_mhz = 25 } in
  let b = key_at { Eric.Envbind.unix_hours = 403; temperature_c = 29; clock_mhz = 25 } in
  check Alcotest.string "same window+band keys equal" (Eric_util.Bytesx.to_hex a)
    (Eric_util.Bytesx.to_hex b);
  let late = key_at { Eric.Envbind.unix_hours = 404; temperature_c = 20; clock_mhz = 25 } in
  check Alcotest.bool "next window differs" false (Bytes.equal a late);
  let hot = key_at { Eric.Envbind.unix_hours = 400; temperature_c = 31; clock_mhz = 25 } in
  check Alcotest.bool "other band differs" false (Bytes.equal a hot);
  let fast = key_at { Eric.Envbind.unix_hours = 400; temperature_c = 20; clock_mhz = 26 } in
  check Alcotest.bool "other frequency differs" false (Bytes.equal a fast)

let test_envbind_unbound_sensors_ignored () =
  (* Binding only the frequency: time and temperature must not matter. *)
  let wanted =
    { Eric.Envbind.hour_slot = None; temperature_band = None; frequency_mhz = Some 25 }
  in
  let key_at env =
    Eric.Envbind.derive ~puf_key ~context:ctx (Eric.Envbind.observe ~window_hours:4 env wanted)
  in
  let a = key_at { Eric.Envbind.unix_hours = 1; temperature_c = -40; clock_mhz = 25 } in
  let b = key_at { Eric.Envbind.unix_hours = 999999; temperature_c = 85; clock_mhz = 25 } in
  check Alcotest.string "only the bound sensor matters" (Eric_util.Bytesx.to_hex a)
    (Eric_util.Bytesx.to_hex b)

let test_envbind_negative_temperature_bands () =
  (* Floor semantics: -1C is in band -1, not band 0 (no -0 collision). *)
  let cold = Eric.Envbind.observe ~window_hours:1
      { Eric.Envbind.unix_hours = 0; temperature_c = -1; clock_mhz = 25 }
      { Eric.Envbind.hour_slot = None; temperature_band = Some 0; frequency_mhz = None }
  in
  let zero = Eric.Envbind.observe ~window_hours:1
      { Eric.Envbind.unix_hours = 0; temperature_c = 1; clock_mhz = 25 }
      { Eric.Envbind.hour_slot = None; temperature_band = Some 0; frequency_mhz = None }
  in
  check Alcotest.bool "bands straddle zero" false (cold = zero)

let test_envbind_end_to_end () =
  let device = Eric_puf.Device.manufacture 808L in
  let pk = Eric_puf.Device.puf_key device in
  let wanted =
    { Eric.Envbind.hour_slot = Some 10; temperature_band = Some 2; frequency_mhz = None }
  in
  let bound = Eric.Envbind.derive ~puf_key:pk ~context:ctx wanted in
  let pkg, _ = Eric.Encrypt.encrypt ~key:bound ~mode:Eric.Config.Full (Lazy.force image) in
  (* right conditions decrypt *)
  let good = Eric.Envbind.observe ~window_hours:4
      { Eric.Envbind.unix_hours = 41; temperature_c = 25; clock_mhz = 25 } wanted
  in
  check Alcotest.bool "decrypts in window" true
    (Result.is_ok (Eric.Encrypt.decrypt ~key:(Eric.Envbind.derive ~puf_key:pk ~context:ctx good) pkg));
  (* wrong window refused *)
  let late = Eric.Envbind.observe ~window_hours:4
      { Eric.Envbind.unix_hours = 60; temperature_c = 25; clock_mhz = 25 } wanted
  in
  check Alcotest.bool "refused after the window" true
    (Result.is_error
       (Eric.Encrypt.decrypt ~key:(Eric.Envbind.derive ~puf_key:pk ~context:ctx late) pkg))

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Fuzzy-extractor boot path                                           *)
(* ------------------------------------------------------------------ *)

let enrolled_device id =
  let device = Eric_puf.Device.manufacture id in
  match Eric_puf.Enroll.enroll device with
  | Ok e -> (device, e)
  | Error e -> Alcotest.fail (Printf.sprintf "device %Ld refused enrollment: %s" id e)

let tampered_helper (e : Eric_puf.Enroll.enrollment) =
  let tag = Bytes.copy e.Eric_puf.Enroll.helper.Eric_puf.Enroll.tag in
  Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
  { e.Eric_puf.Enroll.helper with Eric_puf.Enroll.tag = tag }

let test_kmu_boot_key () =
  let device, e = enrolled_device 7100L in
  (match Eric.Kmu.boot_key device e.Eric_puf.Enroll.helper with
  | Eric.Kmu.Key_ready key ->
    (* the booted key is derive(enrolled puf key, context) *)
    check Alcotest.string "boot key = derived enrolled key"
      (Eric_util.Bytesx.to_hex
         (Eric.Kmu.derive ~puf_key:e.Eric_puf.Enroll.key Eric.Kmu.default_context))
      (Eric_util.Bytesx.to_hex key)
  | Eric.Kmu.Key_reconstruction_failed f ->
    Alcotest.fail (Eric_puf.Fuzzy.failure_to_string f));
  match Eric.Kmu.boot_key device (tampered_helper e) with
  | Eric.Kmu.Key_ready _ -> Alcotest.fail "tampered helper booted a key"
  | Eric.Kmu.Key_reconstruction_failed (Eric_puf.Fuzzy.Exhausted _) -> ()
  | Eric.Kmu.Key_reconstruction_failed f ->
    Alcotest.fail ("expected exhaustion, got " ^ Eric_puf.Fuzzy.failure_to_string f)

let test_target_helper_boot_end_to_end () =
  (* The production path: enroll, boot through the extractor, ship a
     package personalized to the reconstructed key, run it. *)
  let device, e = enrolled_device 7101L in
  let t = Eric.Target.create_with_helper device e.Eric_puf.Enroll.helper in
  let key = match Eric.Target.key_state t with
    | Ok key -> key
    | Error f -> Alcotest.fail (Eric_puf.Fuzzy.failure_to_string f)
  in
  check Alcotest.string "key_state = derived_key" (Eric_util.Bytesx.to_hex key)
    (Eric_util.Bytesx.to_hex (Eric.Target.derived_key t));
  let build =
    match Eric.Source.build ~mode:Eric.Config.Full ~key test_source with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  (match Eric.Target.execute t build.Eric.Source.package with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Eric.Target.pp_load_error e)
  | Ok r -> check Alcotest.string "program output" expected_output r.Eric_sim.Soc.output);
  (* a helper boot pays reconstruction (reads + tag hashing) in its
     key-setup accounting, which dominates the legacy majority vote *)
  let fixed target build =
    match Eric.Target.receive target build.Eric.Source.package with
    | Error e -> Alcotest.fail (Format.asprintf "%a" Eric.Target.pp_load_error e)
    | Ok loaded -> loaded.Eric.Target.load.Eric_hw.Hde.fixed_cycles
  in
  let plain_target = Eric.Target.create device in
  let plain_build =
    match
      Eric.Source.build ~mode:Eric.Config.Full
        ~key:(Eric.Target.derived_key plain_target) test_source
    with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "reconstruction costs more than a majority vote" true
    (fixed t build > fixed plain_target plain_build)

let test_target_key_unavailable_refuses () =
  let device, e = enrolled_device 7102L in
  let t = Eric.Target.create_with_helper device (tampered_helper e) in
  (match Eric.Target.key_state t with
  | Ok _ -> Alcotest.fail "tampered helper produced a key"
  | Error _ -> ());
  (* derived_key is the provisioning-path accessor; on a failed boot it
     must raise, not return garbage *)
  (match Eric.Target.derived_key t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "derived_key returned despite failed reconstruction");
  (* every load refuses with the typed error and a distinct refusal
     reason, never executes *)
  let key =
    Eric.Kmu.derive ~puf_key:e.Eric_puf.Enroll.key Eric.Kmu.default_context
  in
  let build =
    match Eric.Source.build ~mode:Eric.Config.Full ~key test_source with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  match Eric.Target.receive t build.Eric.Source.package with
  | Ok _ -> Alcotest.fail "keyless target accepted a load"
  | Error (Eric.Target.Key_unavailable _ as err) ->
    check Alcotest.string "refusal reason" "key-reconstruction"
      (Eric.Target.refusal_reason err)
  | Error err ->
    Alcotest.fail
      (Format.asprintf "expected Key_unavailable, got %a" Eric.Target.pp_load_error err)

let test_static_analysis_contrast () =
  let img = Lazy.force image in
  let plain = img.Eric_rv.Program.text in
  let pkg = build Eric.Config.Full in
  let rp = Eric.Analysis.static_analysis plain in
  let rc = Eric.Analysis.static_analysis pkg.Eric.Package.enc_text in
  check Alcotest.bool "plaintext decodes fully" true (rp.Eric.Analysis.valid_fraction > 0.99);
  check Alcotest.bool "plaintext has call edges" true (rp.Eric.Analysis.call_edges > 0);
  check Alcotest.bool "plaintext reveals function boundaries" true
    (rp.Eric.Analysis.prologue_candidates >= 2);
  check Alcotest.bool "encryption hides most boundaries" true
    (rc.Eric.Analysis.prologue_candidates * 2 <= rp.Eric.Analysis.prologue_candidates
     || rc.Eric.Analysis.prologue_candidates <= 2);
  check Alcotest.bool "ciphertext decodes worse" true
    (rc.Eric.Analysis.valid_fraction < rp.Eric.Analysis.valid_fraction -. 0.2);
  check Alcotest.bool "call graph destroyed" true
    (rc.Eric.Analysis.call_edges < rp.Eric.Analysis.call_edges)

let test_byte_entropy_contrast () =
  let img = Lazy.force image in
  let plain = img.Eric_rv.Program.text in
  let pkg = build Eric.Config.Full in
  let ep = Eric.Analysis.byte_entropy plain in
  let ec = Eric.Analysis.byte_entropy pkg.Eric.Package.enc_text in
  check Alcotest.bool "ciphertext entropy higher" true (ec > ep +. 0.5);
  check Alcotest.bool "ciphertext near random" true (ec > 7.0)

let test_diffusion_near_half () =
  let pkg = build Eric.Config.Full in
  let d = Eric.Analysis.diffusion ~key:device_key pkg in
  check Alcotest.bool "diffusion ~0.5" true (d > 0.45 && d < 0.55)

let test_field_imm_hides_offsets_only () =
  (* Under Imm_fields the ciphertext still decodes almost fully (opcodes
     and registers intact) but memory-access offsets change. *)
  let img = Lazy.force image in
  let pkg, _ =
    Eric.Encrypt.encrypt ~key:device_key
      ~mode:(Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all))
      img
  in
  let r = Eric.Analysis.static_analysis pkg.Eric.Package.enc_text in
  check Alcotest.bool "still decodes (stealthy)" true (r.Eric.Analysis.valid_fraction > 0.9);
  check Alcotest.bool "text differs from plaintext" false
    (Bytes.equal pkg.Eric.Package.enc_text img.Eric_rv.Program.text)

let () =
  Alcotest.run "eric_core"
    [ ( "kmu",
        [ Alcotest.test_case "deterministic" `Quick test_kmu_deterministic;
          Alcotest.test_case "context separation" `Quick test_kmu_context_separation;
          Alcotest.test_case "device key" `Quick test_kmu_device_key_matches_target;
          kmu_derive_prop ] );
      ( "package",
        [ Alcotest.test_case "roundtrip all modes" `Quick test_package_roundtrip_all_modes;
          Alcotest.test_case "parse rejects" `Quick test_package_parse_rejects;
          Alcotest.test_case "malformed classes" `Quick test_package_parse_malformed_classes;
          Alcotest.test_case "size accounting" `Quick test_package_sizes_match_paper_accounting;
          package_parser_fuzz;
          package_parser_fuzz_mutated;
          package_flips;
          Alcotest.test_case "authenticated header size" `Quick test_authenticated_header_size ] );
      ( "encrypt",
        [ Alcotest.test_case "roundtrip all modes" `Quick test_roundtrip_all_modes;
          Alcotest.test_case "full covers everything" `Quick test_full_encrypts_everything;
          Alcotest.test_case "partial fraction" `Quick test_partial_fraction_plausible;
          Alcotest.test_case "partial ranges" `Quick test_partial_ranges;
          Alcotest.test_case "field keeps opcodes" `Quick test_field_mode_keeps_opcodes;
          Alcotest.test_case "wrong key rejected" `Quick test_wrong_key_rejected;
          Alcotest.test_case "every byte corruption detected" `Slow test_every_bit_flip_detected;
          Alcotest.test_case "single bit flips" `Quick test_single_bit_flips_sampled;
          decrypt_roundtrip_random_keys;
          decrypt_matches_reference;
          Alcotest.test_case "golden packages" `Quick test_golden_packages;
          Alcotest.test_case "golden images" `Quick test_golden_images;
          personalize_matches_reference;
          Alcotest.test_case "personalize leaves image and skeleton" `Quick
            test_personalize_leaves_image_and_skeleton;
          Alcotest.test_case "package edits leave the decrypted image" `Quick
            test_package_edits_leave_image;
          Alcotest.test_case "image edits leave the package" `Quick
            test_image_edits_leave_package ] );
      ( "target",
        [ Alcotest.test_case "execute all modes" `Quick test_execute_all_modes;
          Alcotest.test_case "hde load slower than plain" `Quick test_encrypted_load_slower_than_plain;
          Alcotest.test_case "hde breakdown" `Quick test_receive_reports_hde_breakdown ] );
      ( "protocol",
        [ Alcotest.test_case "happy path" `Quick test_protocol_happy_path;
          Alcotest.test_case "attacks refused" `Quick test_protocol_attacks_refused;
          Alcotest.test_case "populates telemetry" `Quick test_protocol_populates_telemetry;
          Alcotest.test_case "cross-check diagonal" `Quick test_protocol_cross_check_diagonal;
          Alcotest.test_case "build_multi shares work" `Quick test_build_multi_shares_work;
          Alcotest.test_case "cross-check fleet + clone" `Slow test_protocol_cross_check_fleet;
          Alcotest.test_case "epoch rotation revokes" `Quick test_epoch_rotation_revokes;
          Alcotest.test_case "RSA in-band provisioning" `Slow test_provision_over_network ] );
      ( "boot",
        [ Alcotest.test_case "kmu boot_key" `Quick test_kmu_boot_key;
          Alcotest.test_case "helper boot end to end" `Quick test_target_helper_boot_end_to_end;
          Alcotest.test_case "key unavailable refuses" `Quick
            test_target_key_unavailable_refuses ] );
      ( "envbind",
        [ Alcotest.test_case "unconstrained = base" `Quick test_envbind_unconstrained_is_base;
          Alcotest.test_case "window/band/frequency" `Quick test_envbind_same_window_same_key;
          Alcotest.test_case "unbound sensors ignored" `Quick test_envbind_unbound_sensors_ignored;
          Alcotest.test_case "negative temperatures" `Quick test_envbind_negative_temperature_bands;
          Alcotest.test_case "end to end" `Quick test_envbind_end_to_end ] );
      ( "analysis",
        [ Alcotest.test_case "static contrast" `Quick test_static_analysis_contrast;
          Alcotest.test_case "byte entropy" `Quick test_byte_entropy_contrast;
          Alcotest.test_case "diffusion" `Quick test_diffusion_near_half;
          Alcotest.test_case "field imm stealth" `Quick test_field_imm_hides_offsets_only ] ) ]
