(* Partial and field-level encryption: protecting exactly what matters.

   The paper's selective methods: encrypt only a critical function (using
   the image's symbol table to find its byte range), or encrypt only chosen
   bit-fields — e.g. the address offsets of memory instructions, which
   hides the memory-access pattern while the program still *looks* like an
   ordinary unencrypted binary to a disassembler.

     dune exec examples/partial_encryption.exe *)

let program =
  {|
// public helper: nothing secret here
int scale(int x) { return 3 * x + 1; }

// the function worth protecting
int royalty_rate(int units) {
  int rate = 17;
  if (units > 1000) { rate = 11; }
  if (units > 10000) { rate = 7; }
  return units * rate;
}

int main() {
  println_int(scale(14));
  println_int(royalty_rate(500));
  println_int(royalty_rate(20000));
  return 0;
}
|}

let find_function_range image name =
  (* The function's label up to the next label that is not one of its own
     internal block labels (those are named ".L_<function>_..."). *)
  let symbols = image.Eric_rv.Program.symbols in
  let start = List.assoc name symbols in
  let own_prefix = ".L_" ^ name ^ "_" in
  let is_own label =
    String.length label >= String.length own_prefix
    && String.sub label 0 (String.length own_prefix) = own_prefix
  in
  let next =
    List.fold_left
      (fun acc (label, off) -> if off > start && off < acc && not (is_own label) then off else acc)
      (Eric_rv.Program.text_size image)
      symbols
  in
  (start, next)

let () =
  let target = Eric.Target.of_id 808L in
  let key = Eric.Protocol.provision target in
  let image =
    match Eric_cc.Driver.compile program with Ok i -> i | Error e -> failwith e
  in

  (* --- Variant A: encrypt just the royalty_rate function ------------- *)
  let lo, hi = find_function_range image "royalty_rate" in
  Printf.printf "royalty_rate occupies text bytes [0x%x, 0x%x)\n" lo hi;
  let ranged = Eric.Config.Partial (Eric.Config.Select_ranges [ (lo, hi) ]) in
  let build_a = Eric.Source.package_image ~mode:ranged ~key image in
  Printf.printf "variant A (function-scoped): %d of %d parcels encrypted\n"
    build_a.Eric.Source.stats.Eric.Encrypt.encrypted_parcels
    build_a.Eric.Source.stats.Eric.Encrypt.parcels;

  (* --- Variant B: encrypt only memory/branch offsets everywhere ------ *)
  let field = Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all) in
  let build_b = Eric.Source.package_image ~mode:field ~key image in
  let report text = Eric.Analysis.static_analysis text in
  let plain_r = report image.Eric_rv.Program.text in
  let b_r = report build_b.Eric.Source.package.Eric.Package.enc_text in
  Printf.printf
    "variant B (field-level): ciphertext still decodes %.0f%% (vs %.0f%% plaintext) — \
     encryption is hard to even notice, but offsets are scrambled\n"
    (100.0 *. b_r.Eric.Analysis.valid_fraction)
    (100.0 *. plain_r.Eric.Analysis.valid_fraction);

  (* Both variants must decrypt and behave identically on the device. *)
  List.iter
    (fun (name, build) ->
      match Eric.Protocol.transmit ~source:build ~target () with
      | Eric.Protocol.Executed r ->
        Printf.printf "%s executed; output: %s\n" name
          (String.concat " " (String.split_on_char '\n' (String.trim r.Eric_sim.Soc.output)))
      | Eric.Protocol.Refused e ->
        Format.printf "%s refused: %a@." name Eric.Target.pp_load_error e)
    [ ("variant A", build_a); ("variant B", build_b) ];

  (* And the package-size price list of the three methods: *)
  let plain = Bytes.length (Eric_rv.Program.to_binary image) in
  let price mode =
    let b = Eric.Source.package_image ~mode ~key image in
    b.Eric.Source.package_size
  in
  Printf.printf "\nsizes: plain binary %d B | full %d B | function-scoped %d B | field-level %d B\n"
    plain (price Eric.Config.Full) (price ranged) (price field)
