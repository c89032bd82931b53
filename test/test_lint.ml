(* Tests for the lint subsystem: the diagnostics engine (sorting, tables,
   JSONL, telemetry), the IR verifier on well-formed and seeded-defect
   IR, the machine-code verifier on workload images and hand-broken
   programs, and the encryption-policy leakage lint. *)

open Eric_lint
module Ir = Eric_cc.Ir

let check = Alcotest.check

let diag_ids ds = List.map (fun d -> d.Diag.check) ds

let has_check id ds = List.exists (fun d -> d.Diag.check = id) ds

let compile_workload (w : Eric_workloads.Workloads.t) =
  Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source

(* ------------------------------------------------------------------ *)
(* Diagnostics engine                                                  *)
(* ------------------------------------------------------------------ *)

let test_sort_and_counts () =
  let ds =
    [ Diag.notef ~check:"c.note" "n";
      Diag.errorf ~loc:(Diag.Mc_loc { offset = 8 }) ~check:"b.err" "late";
      Diag.warningf ~check:"a.warn" "w";
      Diag.errorf ~loc:(Diag.Mc_loc { offset = 4 }) ~check:"b.err" "early" ]
  in
  let sorted = Diag.sort ds in
  check (Alcotest.list Alcotest.string) "severity then location order"
    [ "b.err"; "b.err"; "a.warn"; "c.note" ] (diag_ids sorted);
  (match sorted with
  | first :: second :: _ ->
    check Alcotest.string "offsets ascending within severity" "early" first.Diag.message;
    check Alcotest.string "later offset second" "late" second.Diag.message
  | _ -> Alcotest.fail "expected 4 diagnostics");
  let e, w, n = Diag.counts ds in
  check Alcotest.(triple int int int) "counts" (2, 1, 1) (e, w, n);
  check Alcotest.(option bool) "max severity" (Some true)
    (Option.map (fun s -> s = Diag.Error) (Diag.max_severity ds));
  check Alcotest.(option bool) "empty max severity" None
    (Option.map (fun _ -> true) (Diag.max_severity []))

let test_jsonl_roundtrip () =
  let ds =
    [ Diag.errorf
        ~loc:(Diag.Ir_loc { func = "main"; block = 3; index = Some 1 })
        ~check:"ir.temp.undef" "t9 is read but never assigned";
      Diag.warningf ~loc:(Diag.Parcel_loc { index = 2; offset = 6 }) ~check:"leak.text.plaintext"
        "x";
      Diag.notef ~check:"mc.jalr.indirect" "y" ]
  in
  let lines = String.split_on_char '\n' (String.trim (Diag.to_jsonl ds)) in
  check Alcotest.int "one line per diagnostic" 3 (List.length lines);
  List.iter2
    (fun line d ->
      match Eric_telemetry.Json.of_string line with
      | Error e -> Alcotest.fail ("jsonl line does not parse: " ^ e)
      | Ok json ->
        let str k = Option.bind (Eric_telemetry.Json.member k json) Eric_telemetry.Json.to_str in
        check Alcotest.(option string) "severity field"
          (Some (Diag.severity_name d.Diag.severity))
          (str "severity");
        check Alcotest.(option string) "check field" (Some d.Diag.check) (str "check");
        check Alcotest.(option string) "message field" (Some d.Diag.message) (str "message"))
    lines ds;
  (* Location fields survive the round-trip. *)
  match Eric_telemetry.Json.of_string (List.hd lines) with
  | Ok json ->
    let num k =
      Option.bind (Eric_telemetry.Json.member k json) Eric_telemetry.Json.to_float
    in
    check Alcotest.(option (float 0.0)) "block" (Some 3.0) (num "block");
    check Alcotest.(option (float 0.0)) "index" (Some 1.0) (num "index")
  | Error e -> Alcotest.fail e

let test_diagnostics_counter () =
  Eric_telemetry.Snapshot.reset_all ();
  Eric_telemetry.Control.enable ();
  Fun.protect
    ~finally:(fun () ->
      Eric_telemetry.Control.disable ();
      Eric_telemetry.Snapshot.reset_all ())
    (fun () ->
      ignore (Diag.errorf ~check:"mc.decode.invalid" "a");
      ignore (Diag.errorf ~check:"mc.decode.invalid" "b");
      ignore (Diag.warningf ~check:"leak.text.plaintext" "c");
      check Alcotest.int64 "per-check instance" 2L
        (Eric_telemetry.Registry.counter
           ~labels:[ ("severity", "error"); ("check", "mc.decode.invalid") ]
           "lint.diagnostics");
      check Alcotest.int64 "family total" 3L
        (Eric_telemetry.Registry.counter_family_total "lint.diagnostics"))

let test_engine_filter_and_gate () =
  let ds =
    [ Diag.errorf ~check:"mc.decode.invalid" "x";
      Diag.warningf ~check:"leak.text.plaintext" "y";
      Diag.notef ~check:"ir.cfg.unreachable-block" "z" ]
  in
  check Alcotest.int "prefix filter" 1 (List.length (Engine.filter ~checks:[ "leak." ] ds));
  check Alcotest.int "no prefixes keeps all" 3 (List.length (Engine.filter ds));
  check Alcotest.bool "fails on error" true (Engine.fails ds);
  check Alcotest.bool "warning gate" true
    (Engine.fails ~fail_on:Diag.Warning (Engine.filter ~checks:[ "leak." ] ds));
  check Alcotest.bool "notes never gate" false
    (Engine.fails ~fail_on:Diag.Warning (Engine.filter ~checks:[ "ir." ] ds));
  check Alcotest.int "exit code" 1 (Engine.exit_code ds)

let test_check_catalogue () =
  (* Every check id the checkers can emit is documented, unique, and
     carries its documented default severity. *)
  let ids = List.map (fun i -> i.Checks.id) Checks.all in
  check Alcotest.int "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      match Checks.find id with
      | Some _ -> ()
      | None -> Alcotest.fail ("undocumented check id: " ^ id))
    [ "ir.cfg.unresolved-label"; "mc.cfg.target-misaligned"; "leak.policy.empty" ];
  check Alcotest.bool "catalogue renders" true
    (String.length (Format.asprintf "%a" Checks.pp_catalogue ()) > 200)

(* ------------------------------------------------------------------ *)
(* IR verifier                                                         *)
(* ------------------------------------------------------------------ *)

let func_of ?(params = []) ?(slots = []) ~temps blocks =
  { Ir.f_name = "f"; f_params = params; f_blocks = blocks; f_slots = slots; f_temp_count = temps }

let program_of fs = { Ir.p_funcs = fs; p_data = []; p_bss = [] }

let verify_one ?params ?slots ~temps blocks =
  let f = func_of ?params ?slots ~temps blocks in
  Eric_cc.Ir_verify.verify_func (program_of [ f ]) f

let block label body term = { Ir.b_label = label; body; term }

let test_ir_clean () =
  let diags =
    verify_one ~temps:2
      [ block 0 [ Ir.Move (0, Ir.Imm 1L); Ir.Bin (Ir.Add, 1, Ir.Temp 0, Ir.Imm 2L) ]
          (Ir.Ret (Some (Ir.Temp 1))) ]
  in
  check (Alcotest.list Alcotest.string) "no diagnostics" [] (diag_ids diags)

let test_ir_unresolved_label () =
  (* The seeded "truncated terminator" defect: a branch to a block that
     does not exist. *)
  let diags =
    verify_one ~temps:1
      [ block 0 [ Ir.Move (0, Ir.Imm 0L) ] (Ir.Br (Ir.Temp 0, 1, 7)) ]
  in
  check Alcotest.bool "unresolved label reported" true
    (List.exists
       (fun d ->
         d.Diag.check = "ir.cfg.unresolved-label"
         && d.Diag.severity = Diag.Error
         && d.Diag.loc = Diag.Ir_loc { func = "f"; block = 0; index = None })
       diags);
  (* Both missing targets are reported. *)
  check Alcotest.int "two missing targets" 2
    (List.length (List.filter (fun d -> d.Diag.check = "ir.cfg.unresolved-label") diags))

let test_ir_cfg_defects () =
  check Alcotest.bool "empty function" true
    (has_check "ir.cfg.empty" (verify_one ~temps:0 []));
  let dup =
    verify_one ~temps:0
      [ block 0 [] (Ir.Jmp 1); block 1 [] (Ir.Ret None); block 1 [] (Ir.Ret None) ]
  in
  check Alcotest.bool "duplicate label" true (has_check "ir.cfg.duplicate-label" dup);
  let unreachable =
    verify_one ~temps:0 [ block 0 [] (Ir.Ret None); block 1 [] (Ir.Ret None) ]
  in
  check Alcotest.bool "unreachable block noted" true
    (List.exists
       (fun d -> d.Diag.check = "ir.cfg.unreachable-block" && d.Diag.severity = Diag.Note)
       unreachable)

let test_ir_temp_defects () =
  let undef =
    verify_one ~temps:2 [ block 0 [] (Ir.Ret (Some (Ir.Temp 1))) ]
  in
  check Alcotest.bool "never-assigned read is an error" true
    (List.exists
       (fun d -> d.Diag.check = "ir.temp.undef" && d.Diag.severity = Diag.Error)
       undef);
  let maybe =
    (* t1 is assigned on the then-path only, then read at the join. *)
    verify_one ~params:[ 0 ] ~temps:2
      [ block 0 [] (Ir.Br (Ir.Temp 0, 1, 2));
        block 1 [ Ir.Move (1, Ir.Imm 5L) ] (Ir.Jmp 2);
        block 2 [] (Ir.Ret (Some (Ir.Temp 1))) ]
  in
  check Alcotest.bool "path-dependent read is a warning" true
    (List.exists
       (fun d -> d.Diag.check = "ir.temp.maybe-undef" && d.Diag.severity = Diag.Warning)
       maybe);
  check Alcotest.bool "dominating definition is clean" false
    (has_check "ir.temp.maybe-undef"
       (verify_one ~params:[ 0 ] ~temps:2
          [ block 0 [ Ir.Move (1, Ir.Imm 5L) ] (Ir.Br (Ir.Temp 0, 1, 2));
            block 1 [] (Ir.Jmp 2);
            block 2 [] (Ir.Ret (Some (Ir.Temp 1))) ]));
  check Alcotest.bool "out-of-range temp" true
    (has_check "ir.temp.out-of-range"
       (verify_one ~temps:1 [ block 0 [ Ir.Move (4, Ir.Imm 0L) ] (Ir.Ret None) ]))

let test_ir_slot_and_call_defects () =
  check Alcotest.bool "unresolved slot" true
    (has_check "ir.slot.unresolved"
       (verify_one ~temps:1 [ block 0 [ Ir.Addr_local (0, 3) ] (Ir.Ret None) ]));
  let callee =
    { Ir.f_name = "g"; f_params = [ 0; 1 ]; f_blocks = [ block 0 [] (Ir.Ret None) ];
      f_slots = []; f_temp_count = 2 }
  in
  let caller arity_args =
    func_of ~temps:1 [ block 0 [ Ir.Call (None, "g", arity_args) ] (Ir.Ret None) ]
  in
  let p args =
    let f = caller args in
    Eric_cc.Ir_verify.verify_func (program_of [ f; callee ]) f
  in
  check Alcotest.bool "arity mismatch" true
    (has_check "ir.call.arity" (p [ Ir.Imm 1L ]));
  check Alcotest.bool "matching arity is clean" false
    (has_check "ir.call.arity" (p [ Ir.Imm 1L; Ir.Imm 2L ]));
  check Alcotest.bool "unknown callee" true
    (has_check "ir.call.unknown"
       (let f = func_of ~temps:0 [ block 0 [ Ir.Call (None, "nope", []) ] (Ir.Ret None) ] in
        Eric_cc.Ir_verify.verify_func (program_of [ f ]) f))

let test_driver_rejects_broken_ir () =
  let f = func_of ~temps:1 [ block 0 [] (Ir.Jmp 9) ] in
  let errs = Eric_cc.Ir_verify.errors (Eric_cc.Ir_verify.verify (program_of [ f ])) in
  check Alcotest.bool "errors surfaced" true (errs <> []);
  (* Legal MiniC never lowers to such IR, but a transform can leave it:
     the driver must refuse it, naming the stage and the check. *)
  let break_main =
    { Eric_cc.Driver.t_tag = "break-main";
      t_apply =
        (fun p ->
          List.iter
            (fun f -> if f.Ir.f_name = "main" then f.Ir.f_blocks <- [ block 0 [] (Ir.Jmp 9) ])
            p.Ir.p_funcs;
          p) }
  in
  let options = { Eric_cc.Driver.default_options with transform = Some break_main } in
  let mentions s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let rejected what = function
    | Ok () -> Alcotest.failf "%s accepted a jump to a missing label" what
    | Error msg ->
      List.iter
        (fun sub -> check Alcotest.bool (what ^ " names " ^ sub) true (mentions msg sub))
        [ "transform break-main"; "ir.cfg.unresolved-label" ]
  in
  let source = "int main() { return 0; }" in
  rejected "compile_to_ir" (Result.map ignore (Eric_cc.Driver.compile_to_ir ~options source));
  rejected "compile" (Result.map ignore (Eric_cc.Driver.compile ~options source))

(* Satellite (a): every workload flows through the driver with the IR
   verifier enabled after lowering and after each opt-pass iteration
   (the default options), and the converged IR is diagnostic-free. *)
let test_workloads_ir_clean () =
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let source = w.Eric_workloads.Workloads.source in
      match Eric_cc.Driver.compile_to_ir source with
      | Error msg -> Alcotest.fail (w.Eric_workloads.Workloads.name ^ ": " ^ msg)
      | Ok ir ->
        let diags = Eric_cc.Ir_verify.verify ir in
        if diags <> [] then
          Alcotest.fail
            (Printf.sprintf "%s: unexpected IR diagnostics after opt: %s"
               w.Eric_workloads.Workloads.name
               (String.concat "; " (List.map Diag.to_string diags))))
    Eric_workloads.Workloads.all

(* ------------------------------------------------------------------ *)
(* Machine-code verifier                                               *)
(* ------------------------------------------------------------------ *)

let image_of_parcels ?(entry = 0) parcels =
  { (Parcel_image.of_parcels (Array.of_list parcels)) with
    Eric_rv.Program.entry_offset = entry }

let p32 i = Eric_rv.Program.P32 (Eric_rv.Encode.encode i)

let exit_stub code =
  [ p32 (Eric_rv.Inst.I (Addi, Eric_rv.Reg.a 0, Eric_rv.Reg.x0, code));
    p32 (Eric_rv.Inst.I (Addi, Eric_rv.Reg.a 7, Eric_rv.Reg.x0, 93));
    p32 Eric_rv.Inst.Ecall ]

let test_mc_workloads_clean () =
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let image = compile_workload w in
      let diags = Mc_verify.verify image in
      if diags <> [] then
        Alcotest.fail
          (Printf.sprintf "%s: unexpected MC diagnostics: %s" w.Eric_workloads.Workloads.name
             (String.concat "; " (List.map Diag.to_string diags))))
    Eric_workloads.Workloads.all

let test_mc_misaligned_branch () =
  (* The seeded "branch into a mis-aligned parcel" defect: target +6 lands
     in the middle of the 4-byte parcel at +4. *)
  let image =
    image_of_parcels
      (p32 (Eric_rv.Inst.Branch (Beq, Eric_rv.Reg.x0, Eric_rv.Reg.x0, 6)) :: exit_stub 0)
  in
  let diags = Mc_verify.verify image in
  check Alcotest.bool "misaligned target reported" true
    (List.exists
       (fun d ->
         d.Diag.check = "mc.cfg.target-misaligned"
         && d.Diag.severity = Diag.Error
         && d.Diag.loc = Diag.Mc_loc { offset = 0 })
       diags)

let test_mc_target_out_of_section () =
  let image =
    image_of_parcels (p32 (Eric_rv.Inst.Jal (Eric_rv.Reg.x0, 64)) :: exit_stub 0)
  in
  check Alcotest.bool "out-of-section target" true
    (has_check "mc.cfg.target-out-of-section" (Mc_verify.verify image))

let test_mc_fallthrough_end () =
  let image =
    image_of_parcels [ p32 (Eric_rv.Inst.I (Addi, Eric_rv.Reg.a 0, Eric_rv.Reg.x0, 1)) ]
  in
  check Alcotest.bool "fallthrough off the end" true
    (has_check "mc.cfg.fallthrough-end" (Mc_verify.verify image))

let test_mc_unbalanced_stack () =
  (* A leaf that returns without popping its frame.  Reached via a call so
     the region is not the (exempt) entry. *)
  let leaf =
    [ p32 (Eric_rv.Inst.I (Addi, Eric_rv.Reg.sp, Eric_rv.Reg.sp, -16));
      p32 (Eric_rv.Inst.Jalr (Eric_rv.Reg.x0, Eric_rv.Reg.ra, 0)) ]
  in
  let image =
    image_of_parcels ((p32 (Eric_rv.Inst.Jal (Eric_rv.Reg.ra, 16)) :: exit_stub 0) @ leaf)
  in
  let diags = Mc_verify.verify image in
  check Alcotest.bool "unbalanced return" true
    (List.exists
       (fun d -> d.Diag.check = "mc.stack.unbalanced" && d.Diag.loc = Diag.Mc_loc { offset = 20 })
       diags)

let test_mc_undecodable_parcel () =
  (* All-ones is not a valid RV64GC encoding. *)
  let image = image_of_parcels (exit_stub 0 @ [ Eric_rv.Program.P32 0xFFFFFFFFl ]) in
  check Alcotest.bool "undecodable parcel" true
    (has_check "mc.decode.invalid" (Mc_verify.verify image))

let test_mc_callee_clobber () =
  (* A called function that writes s1 with no prologue save. *)
  let leaf =
    [ p32 (Eric_rv.Inst.I (Addi, Eric_rv.Reg.s 1, Eric_rv.Reg.x0, 7));
      p32 (Eric_rv.Inst.Jalr (Eric_rv.Reg.x0, Eric_rv.Reg.ra, 0)) ]
  in
  let image =
    image_of_parcels ((p32 (Eric_rv.Inst.Jal (Eric_rv.Reg.ra, 16)) :: exit_stub 0) @ leaf)
  in
  check Alcotest.bool "clobbered callee-saved" true
    (has_check "mc.reg.callee-clobbered" (Mc_verify.verify image))

(* ------------------------------------------------------------------ *)
(* Leakage lint                                                        *)
(* ------------------------------------------------------------------ *)

let test_leakage_modes () =
  let image = compile_workload (List.hd Eric_workloads.Workloads.all) in
  (* Full encryption: nothing legible, nothing to report. *)
  let r_full, d_full = Eric.Policy_lint.lint ~mode:Eric.Config.Full image in
  check (Alcotest.list Alcotest.string) "full mode silent" [] (diag_ids d_full);
  check Alcotest.int "full mode: zero plaintext parcels" 0 r_full.Leakage.plaintext_parcels;
  check Alcotest.int "full mode: zero visible opcodes" 0 r_full.Leakage.opcode_visible;
  (* The seeded "all-plaintext policy" defect. *)
  let _, d_none =
    Eric.Policy_lint.lint ~mode:(Eric.Config.Partial (Eric.Config.Select_ranges [])) image
  in
  check Alcotest.bool "empty policy is an error" true
    (List.exists
       (fun d -> d.Diag.check = "leak.policy.empty" && d.Diag.severity = Diag.Error)
       d_none);
  (* Field mode with immediate scope: opcodes legible, warned above the
     advisory threshold; strict --max-leakage escalates. *)
  let mode = Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all) in
  let r_field, d_field = Eric.Policy_lint.lint ~mode image in
  check Alcotest.bool "opcode histogram leak warned" true
    (List.exists
       (fun d -> d.Diag.check = "leak.opcode.visible" && d.Diag.severity = Diag.Warning)
       d_field);
  check Alcotest.int "field-imm hides every 32-bit call edge" 0
    r_field.Leakage.call_edges_plaintext;
  let _, d_strict = Eric.Policy_lint.lint ~max_leakage:0.1 ~mode image in
  check Alcotest.bool "gate escalates to error" true
    (List.exists
       (fun d -> d.Diag.check = "leak.opcode.visible" && d.Diag.severity = Diag.Error)
       d_strict)

let test_leakage_partial_fraction () =
  let image = compile_workload (List.hd Eric_workloads.Workloads.all) in
  let mode =
    Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 0x5EEDL })
  in
  let r, _ = Eric.Policy_lint.lint ~mode image in
  let f = r.Leakage.plaintext_fraction in
  check Alcotest.bool "about half the parcels stay plaintext" true (f > 0.3 && f < 0.7);
  (* The report agrees with the encryption unit's own accounting. *)
  let _, stats = Eric.Encrypt.encrypt ~key:(Bytes.make 32 '\x2a') ~mode image in
  check Alcotest.int "selection agrees with Encrypt"
    stats.Eric.Encrypt.encrypted_parcels
    (r.Leakage.parcels - r.Leakage.plaintext_parcels)

let () =
  Alcotest.run "eric_lint"
    [ ( "diag",
        [ Alcotest.test_case "sort and counts" `Quick test_sort_and_counts;
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "telemetry counter" `Quick test_diagnostics_counter;
          Alcotest.test_case "engine filter and gate" `Quick test_engine_filter_and_gate;
          Alcotest.test_case "check catalogue" `Quick test_check_catalogue ] );
      ( "ir-verify",
        [ Alcotest.test_case "clean function" `Quick test_ir_clean;
          Alcotest.test_case "unresolved label" `Quick test_ir_unresolved_label;
          Alcotest.test_case "cfg defects" `Quick test_ir_cfg_defects;
          Alcotest.test_case "temp defects" `Quick test_ir_temp_defects;
          Alcotest.test_case "slot and call defects" `Quick test_ir_slot_and_call_defects;
          Alcotest.test_case "driver gate" `Quick test_driver_rejects_broken_ir;
          Alcotest.test_case "workloads clean" `Quick test_workloads_ir_clean ] );
      ( "mc-verify",
        [ Alcotest.test_case "workloads clean" `Quick test_mc_workloads_clean;
          Alcotest.test_case "misaligned branch" `Quick test_mc_misaligned_branch;
          Alcotest.test_case "target out of section" `Quick test_mc_target_out_of_section;
          Alcotest.test_case "fallthrough end" `Quick test_mc_fallthrough_end;
          Alcotest.test_case "unbalanced stack" `Quick test_mc_unbalanced_stack;
          Alcotest.test_case "undecodable parcel" `Quick test_mc_undecodable_parcel;
          Alcotest.test_case "callee clobber" `Quick test_mc_callee_clobber ] );
      ( "leakage",
        [ Alcotest.test_case "modes" `Quick test_leakage_modes;
          Alcotest.test_case "partial fraction" `Quick test_leakage_partial_fraction ] ) ]
