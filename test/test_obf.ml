(* The obfuscation pass family: semantics preservation (differential
   oracle + verifier cleanliness), reproducibility of the seed contract,
   decoy provenance and Jaccard grading, the control-flow field-class,
   and the package obfuscation-metadata wire format. *)

let check = Alcotest.check

module Obf = Eric_obf.Obf
module Driver = Eric_cc.Driver
module Leakage = Eric_lint.Leakage

let full_cfg = { Obf.passes = Obf.all_passes; seed = Obf.default_seed }

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let compile_obf ?(cfg = full_cfg) source =
  let t, annot = Obf.hook cfg in
  let options = { Driver.default_options with Driver.transform = Some t } in
  (Driver.compile_exn ~options source, annot)

(* ------------------------------------------------------------------ *)
(* Pass-list plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let test_pass_parsing () =
  (match Obf.passes_of_string "flatten,opaque" with
  | Ok [ Obf.Opaque; Obf.Flatten ] -> ()
  | Ok _ -> Alcotest.fail "expected canonical order opaque < flatten"
  | Error e -> Alcotest.fail e);
  (match Obf.passes_of_string "dummy,dummy,constants" with
  | Ok [ Obf.Constants; Obf.Dummy ] -> ()
  | Ok _ -> Alcotest.fail "expected deduplicated canonical list"
  | Error e -> Alcotest.fail e);
  (match Obf.passes_of_string "flatten,bogus" with
  | Error msg -> check Alcotest.bool "error names the pass" true (contains msg "bogus")
  | Ok _ -> Alcotest.fail "unknown pass accepted")

let test_mask_round_trip () =
  List.iter
    (fun passes ->
      let mask = Obf.mask_of_passes passes in
      check
        Alcotest.(list string)
        "mask round-trips"
        (List.map Obf.pass_name passes)
        (List.map Obf.pass_name (Obf.passes_of_mask mask)))
    [ Obf.all_passes; [ Obf.Flatten ]; [ Obf.Constants; Obf.Dummy ]; [] ];
  check Alcotest.int "five pass bits" 0x1F (Obf.mask_of_passes Obf.all_passes)

(* ------------------------------------------------------------------ *)
(* Semantics: differential oracle over generated programs              *)
(* ------------------------------------------------------------------ *)

(* Every pass subset would be 31 oracle campaigns; the singletons catch
   per-pass breakage and the full stack catches composition breakage. *)
let combos =
  [ [ Obf.Constants ]; [ Obf.Arith ]; [ Obf.Opaque ]; [ Obf.Dummy ]; [ Obf.Flatten ];
    Obf.all_passes ]

let test_oracle_equivalence () =
  List.iteri
    (fun ci passes ->
      let options = Obf.options { Obf.passes; seed = Obf.default_seed } in
      for i = 0 to 5 do
        let seed = Int64.of_int ((ci * 101) + i + 7) in
        let g = Eric_verif.Gen.generate ~size:20 ~seed () in
        match Eric_verif.Oracle.run ~options g.Eric_verif.Gen.source with
        | Error msg -> Alcotest.failf "seed %Ld failed to compile: %s" seed msg
        | Ok report when Eric_verif.Oracle.exhausted report -> ()
        | Ok report ->
          if not (Eric_verif.Oracle.agree report) then
            Alcotest.failf "passes [%s] seed %Ld diverge:@.%a@.%s"
              (String.concat "," (List.map Obf.pass_name passes))
              seed Eric_verif.Oracle.pp_report report g.Eric_verif.Gen.source
      done)
    combos

(* Beyond the oracle: the qcheck property covers ALL 31 non-empty pass
   combinations at the IR level, where a run is cheap — interpreter
   output of the obfuscated IR must equal that of the plain IR. *)
let test_qcheck_interp_equivalence () =
  let interp ir =
    match Eric_cc.Ir_interp.run ~max_steps:8_000_000 ir with
    | o -> `Done (o.Eric_cc.Ir_interp.exit_code, o.Eric_cc.Ir_interp.output)
    | exception Eric_cc.Ir_interp.Runtime_error "interpreter out of fuel" -> `Fuel
    | exception Eric_cc.Ir_interp.Runtime_error msg -> `Trap msg
  in
  let ir_of ?transform source =
    let options = { Driver.default_options with Driver.transform } in
    match Driver.compile_to_ir ~options source with
    | Ok ir -> ir
    | Error e -> Alcotest.failf "generated program failed to compile: %s" e
  in
  let test =
    QCheck.Test.make ~count:93 ~name:"interp equivalence over all pass combos"
      QCheck.(pair (int_bound 1_000_000) (int_range 1 31))
      (fun (s, combo) ->
        let g = Eric_verif.Gen.generate ~size:16 ~seed:(Int64.of_int (s + 13)) () in
        let source = g.Eric_verif.Gen.source in
        let passes = Obf.passes_of_mask combo in
        let transform = Obf.transform { Obf.passes; seed = Obf.default_seed } in
        match (interp (ir_of source), interp (ir_of ~transform source)) with
        | `Fuel, _ | _, `Fuel -> true (* incomparable, not a divergence *)
        | `Trap _, `Trap _ -> true (* messages are layer-specific *)
        | a, b -> a = b)
  in
  QCheck.Test.check_exn test

let test_workload_outputs_unchanged () =
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let plain = Driver.compile_exn w.source_small in
      let image, _ = compile_obf w.source_small in
      let a = Eric_sim.Soc.run_program plain in
      let b = Eric_sim.Soc.run_program image in
      check Alcotest.string (w.name ^ ": same output") a.Eric_sim.Soc.output
        b.Eric_sim.Soc.output;
      check Alcotest.bool (w.name ^ ": same status") true
        (a.Eric_sim.Soc.status = b.Eric_sim.Soc.status))
    Eric_workloads.Workloads.all

(* ------------------------------------------------------------------ *)
(* Reproducibility: the seed contract                                  *)
(* ------------------------------------------------------------------ *)

(* Under `dune runtest` the cwd is _build/default/test, next to the
   copied examples; a direct run starts at the workspace root. *)
let example name =
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "../examples" name; Filename.concat "examples" name ]
  with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.failf "example %s not found" name

let test_reproducible_builds () =
  let w = List.hd Eric_workloads.Workloads.all in
  let a, _ = compile_obf w.source in
  let b, _ = compile_obf w.source in
  check Alcotest.bool "same seed, byte-identical image" true
    (Eric_rv.Program.text_bytes a = Eric_rv.Program.text_bytes b);
  let c, _ = compile_obf ~cfg:{ full_cfg with Obf.seed = 0xDEADBEEFL } w.source in
  check Alcotest.bool "different seed, different image" false
    (Eric_rv.Program.text_bytes a = Eric_rv.Program.text_bytes c);
  (* the whole wire package, as `eric build --obfuscate=... --obf-seed
     0xE51C` writes it for device 1 *)
  let cfg = { full_cfg with Obf.seed = 0xE51CL } in
  let package () =
    let key = Eric.Protocol.provision (Eric.Target.of_id 1L) in
    match
      Eric.Source.build ~options:(Obf.options cfg)
        ~obf:(Obf.mask_of_passes cfg.Obf.passes, cfg.Obf.seed)
        ~mode:Eric.Config.Full ~key (example "checksum.c")
    with
    | Ok b -> Eric.Package.serialize b.Eric.Source.package
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "same seed, byte-identical package" true
    (Bytes.equal (package ()) (package ()))

let test_annot_counters_seeded_golden () =
  (* Golden provenance counters for one pinned (workload, seed): any
     drift in the PRNG stream derivation or pass order shows up here
     before it silently changes every "reproducible" build. *)
  let w = List.hd Eric_workloads.Workloads.all in
  let _, annot = compile_obf w.source in
  check Alcotest.int "passes run" 5 annot.Eric_obf.Annot.passes_run;
  check Alcotest.bool "constants encoded" true (annot.Eric_obf.Annot.constants_encoded > 0);
  check Alcotest.bool "arith rewrites" true (annot.Eric_obf.Annot.arith_rewrites > 0);
  check Alcotest.bool "decoy blocks planted" true (annot.Eric_obf.Annot.blocks_inserted > 0);
  check Alcotest.bool "dummy functions added" true (annot.Eric_obf.Annot.functions_added >= 4);
  check Alcotest.bool "functions flattened" true (annot.Eric_obf.Annot.functions_flattened > 0);
  let _, again = compile_obf w.source in
  check Alcotest.int "counters reproduce: blocks" annot.Eric_obf.Annot.blocks_inserted
    again.Eric_obf.Annot.blocks_inserted;
  check Alcotest.int "counters reproduce: constants" annot.Eric_obf.Annot.constants_encoded
    again.Eric_obf.Annot.constants_encoded;
  check Alcotest.int "counters reproduce: arith" annot.Eric_obf.Annot.arith_rewrites
    again.Eric_obf.Annot.arith_rewrites

(* ------------------------------------------------------------------ *)
(* Verifier cleanliness                                                *)
(* ------------------------------------------------------------------ *)

let test_verifiers_clean () =
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let cfg = full_cfg in
      let t, _ = Obf.hook cfg in
      let options = { Driver.default_options with Driver.transform = Some t; verify_ir = false } in
      (match Driver.compile_to_ir ~options w.source with
      | Error e -> Alcotest.failf "%s: %s" w.name e
      | Ok ir ->
        check Alcotest.int (w.name ^ ": ir_verify error-clean") 0
          (List.length (Eric_cc.Ir_verify.errors (Eric_cc.Ir_verify.verify ir))));
      let image = Driver.compile_exn ~options:{ options with Driver.verify_ir = true } w.source in
      check Alcotest.int (w.name ^ ": mc_verify clean") 0
        (List.length (Eric_lint.Mc_verify.verify image)))
    Eric_workloads.Workloads.all

(* ------------------------------------------------------------------ *)
(* Grading: decoy subtraction and the leakage bar                      *)
(* ------------------------------------------------------------------ *)

let test_grade_under_bar_all_workloads () =
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let image, annot = compile_obf w.source in
      let s = Obf.grade ~annot ~attacker:Leakage.Recursive image in
      if s.Leakage.structure_score > 0.6 then
        Alcotest.failf "%s: recursive attacker scores %.3f > 0.6" w.name
          s.Leakage.structure_score)
    Eric_workloads.Workloads.all

let test_plain_image_grades_full_recovery () =
  (* Jaccard == plain recall == 1.0 when nothing was planted: the scale's
     top anchor. *)
  let w = List.hd Eric_workloads.Workloads.all in
  let image = Driver.compile_exn w.source in
  let annot = Eric_obf.Annot.create () in
  let s = Obf.grade ~annot ~attacker:Leakage.Recursive image in
  check (Alcotest.float 0.0001) "plain image scores 1.0" 1.0 s.Leakage.structure_score

let test_truth_restrict () =
  let w = List.hd Eric_workloads.Workloads.all in
  let image = Driver.compile_exn w.source in
  let t = Eric_cc.Truth.of_image image in
  let all = Eric_cc.Truth.restrict ~keep:(fun _ -> true) t in
  check Alcotest.int "keep-all preserves code"
    (Leakage.Iset.cardinal t.Eric_cc.Truth.truth.Leakage.t_code)
    (Leakage.Iset.cardinal all.Eric_cc.Truth.truth.Leakage.t_code);
  let none = Eric_cc.Truth.restrict ~keep:(fun _ -> false) t in
  check Alcotest.int "keep-none empties code" 0
    (Leakage.Iset.cardinal none.Eric_cc.Truth.truth.Leakage.t_code);
  check Alcotest.int "keep-none empties edges" 0
    (Leakage.Eset.cardinal none.Eric_cc.Truth.truth.Leakage.t_call_edges);
  check Alcotest.int "keep-none empties functions" 0 (List.length none.Eric_cc.Truth.functions)

(* ------------------------------------------------------------------ *)
(* Control-flow field-class encryption                                 *)
(* ------------------------------------------------------------------ *)

let cf_mode = Eric.Config.Field (Eric.Config.Control_flow, Eric.Config.Select_all)

let test_control_flow_masks () =
  let m32 op = Eric.Config.field_mask32 Eric.Config.Control_flow (Int32.of_int op) in
  (* branch (opcode 1100011): S-type immediate bits *)
  check Alcotest.bool "beq imm masked" true (m32 0b1100011 <> 0l);
  (* jal (1101111) and jalr (1100111): offset bits *)
  check Alcotest.bool "jal imm masked" true (m32 0b1101111 <> 0l);
  check Alcotest.bool "jalr imm masked" true (m32 0b1100111 <> 0l);
  (* arithmetic stays plaintext under this class *)
  check Alcotest.int32 "add untouched" 0l (m32 0b0110011);
  let m16 p = Eric.Config.field_mask16 Eric.Config.Control_flow p in
  (* c.j (quadrant 1, funct3 5) and c.beqz (1,6) carry offsets *)
  check Alcotest.bool "c.j offset masked" true (m16 ((5 lsl 13) lor 1) <> 0);
  check Alcotest.bool "c.beqz offset masked" true (m16 ((6 lsl 13) lor 1) <> 0);
  (* c.addiw (1,1) is NOT control flow on RV64 *)
  check Alcotest.int "c.addiw untouched" 0 (m16 ((1 lsl 13) lor 1))

let test_field_cf_round_trip () =
  let source = "int main() { int s = 0; for (int i = 0; i < 9; i++) { s += i; } println_int(s); return 0; }" in
  match Eric_verif.Oracle.run ~mode:cf_mode source with
  | Error e -> Alcotest.fail e
  | Ok report ->
    check Alcotest.bool "field-cf round-trips through HDE" true
      (Eric_verif.Oracle.agree report)

let test_field_cf_hides_branch_offsets () =
  let w = List.hd Eric_workloads.Workloads.all in
  let image = Driver.compile_exn w.source in
  let report, _ = Eric.Policy_lint.lint ~mode:cf_mode image in
  check Alcotest.int "no branch offsets legible" 0
    report.Leakage.branch_offsets_plaintext;
  check Alcotest.bool "opcodes stay visible (field class)" true
    (report.Leakage.opcode_visible_fraction > 0.9)

(* ------------------------------------------------------------------ *)
(* Package metadata wire format                                        *)
(* ------------------------------------------------------------------ *)

let build_pkg ?obf () =
  let target = Eric.Target.of_id 0xE51CL in
  let key = Eric.Target.derived_key target in
  let source = "int main() { println_int(41); return 0; }" in
  match Eric.Source.build ?obf ~mode:Eric.Config.Full ~key source with
  | Ok b -> b.Eric.Source.package
  | Error e -> Alcotest.fail e

let test_package_obf_metadata_round_trip () =
  let mask = Obf.mask_of_passes Obf.all_passes in
  let pkg = build_pkg ~obf:(mask, Obf.default_seed) () in
  let wire = Eric.Package.serialize pkg in
  (match Eric.Package.parse wire with
  | Error e -> Alcotest.fail e
  | Ok parsed -> (
    match parsed.Eric.Package.obf with
    | Some (m, s) ->
      check Alcotest.int "pass mask survives the wire" mask m;
      check Alcotest.int64 "seed survives the wire" Obf.default_seed s
    | None -> Alcotest.fail "obfuscation metadata lost on the wire"));
  let plain = build_pkg () in
  match Eric.Package.parse (Eric.Package.serialize plain) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    check Alcotest.bool "no metadata when not obfuscated" true
      (parsed.Eric.Package.obf = None)

let test_package_obf_metadata_malformed () =
  let mask = Obf.mask_of_passes [ Obf.Flatten ] in
  let pkg = build_pkg ~obf:(mask, 1L) () in
  let wire = Eric.Package.serialize pkg in
  (* Full mode: no selection map, so the metadata block sits directly
     after the fixed header. *)
  let expect what needle bytes =
    match Eric.Package.parse bytes with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg ->
      check Alcotest.bool
        (Printf.sprintf "%s: %S mentions %S" what msg needle)
        true (contains msg needle)
  in
  let with_byte off v =
    let b = Bytes.copy wire in
    Bytes.set b off (Char.chr v);
    b
  in
  expect "reserved pass bits" "reserved obfuscation pass bits"
    (with_byte Eric.Package.header_size 0xFF);
  expect "flag without passes" "obfuscation metadata without passes"
    (with_byte Eric.Package.header_size 0x00);
  (* signature covers the metadata: a flipped seed byte must not verify *)
  let tampered_seed = with_byte (Eric.Package.header_size + 3) 0x55 in
  match Eric.Package.parse tampered_seed with
  | Ok parsed ->
    let target = Eric.Target.of_id 0xE51CL in
    (match Eric.Target.execute target parsed with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "tampered obf seed executed")
  | Error _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "eric_obf"
    [ ( "plumbing",
        [ Alcotest.test_case "pass parsing" `Quick test_pass_parsing;
          Alcotest.test_case "mask round trip" `Quick test_mask_round_trip ] );
      ( "semantics",
        [ Alcotest.test_case "oracle equivalence" `Slow test_oracle_equivalence;
          Alcotest.test_case "qcheck interp equivalence" `Slow test_qcheck_interp_equivalence;
          Alcotest.test_case "workload outputs" `Slow test_workload_outputs_unchanged ] );
      ( "reproducibility",
        [ Alcotest.test_case "byte-identical builds" `Quick test_reproducible_builds;
          Alcotest.test_case "seeded counters" `Quick test_annot_counters_seeded_golden ] );
      ( "verifiers",
        [ Alcotest.test_case "ir+mc clean" `Slow test_verifiers_clean ] );
      ( "grading",
        [ Alcotest.test_case "all workloads under 0.6" `Slow test_grade_under_bar_all_workloads;
          Alcotest.test_case "plain anchors at 1.0" `Quick test_plain_image_grades_full_recovery;
          Alcotest.test_case "truth restrict" `Quick test_truth_restrict ] );
      ( "field-cf",
        [ Alcotest.test_case "masks" `Quick test_control_flow_masks;
          Alcotest.test_case "round trip" `Quick test_field_cf_round_trip;
          Alcotest.test_case "hides branch offsets" `Quick test_field_cf_hides_branch_offsets ] );
      ( "package",
        [ Alcotest.test_case "metadata round trip" `Quick test_package_obf_metadata_round_trip;
          Alcotest.test_case "metadata malformed" `Quick test_package_obf_metadata_malformed ] ) ]
