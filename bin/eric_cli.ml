(* eric: command-line front end to the framework.

   Subcommands mirror the paper's workflow:
     compile   MiniC -> plain RV64 image (the baseline toolchain)
     build     MiniC -> encrypted package for one device (compiler + ERIC)
     inspect   describe a plain image or an encrypted package
     disasm    disassemble a plain image (what a static attacker does)
     analyze   static-analysis metrics of an image or package text
     run       execute a plain image, or a package on its device
     puf       show a device's PUF identity and derived key
     fleet     enroll devices, run deployment campaigns, rotate keys
     verif     differential fuzzing and fault-injection campaigns
     serve     simulated OTA update service with SLO accounting

   Exit codes are uniform across subcommands:
     0    success
     1    internal error (compilation failure, I/O, ...)
     2    command-line usage error (cmdliner)
     3    campaign found failures or did not complete
     4    malformed input (unparseable package or image)
     5    the device's validation unit refused a package
     124  the executed program faulted
     125  the executed program ran out of fuel *)

open Cmdliner

(* Exit codes, as documented in every subcommand's EXIT STATUS section. *)
let exit_internal = 1
let exit_failures = 3
let exit_malformed = 4
let exit_refused = 5

let die ?(code = exit_internal) msg =
  Printf.eprintf "error: %s\n" msg;
  exit code

let or_die = function Ok v -> v | Error msg -> die msg

let or_die_malformed = function Ok v -> v | Error msg -> die ~code:exit_malformed msg

let read_file path = or_die (Eric_util.Wire.read_file path)

(* An output is written to a temp file and renamed into place. *)
let write_file path data = Eric_util.Wire.write_atomic path (fun oc -> output_string oc data)

let load_error_code = function
  | Eric.Target.Malformed _ -> exit_malformed
  | Eric.Target.Rejected _ -> exit_refused
  | Eric.Target.Key_unavailable _ -> exit_refused

let campaign_exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info exit_internal ~doc:"on internal errors (compilation failure, I/O).";
    Cmd.Exit.info exit_failures ~doc:"when the campaign found failures or did not complete.";
    Cmd.Exit.info exit_malformed ~doc:"when an input file is malformed.";
  ]

let run_exits =
  [
    Cmd.Exit.info 0 ~doc:"on success (the program's own exit code otherwise).";
    Cmd.Exit.info exit_malformed
      ~doc:"when the input is neither a well-formed package nor a plain image.";
    Cmd.Exit.info exit_refused
      ~doc:"when the device's validation unit refused the package (framing or signature).";
    Cmd.Exit.info 124 ~doc:"when the program faulted.";
    Cmd.Exit.info 125 ~doc:"when the program ran out of fuel.";
  ]

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let source_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE.mc" ~doc:"MiniC source file.")

let output_arg ~default =
  Arg.(value & opt string default & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

(* Device ids travel as strings and are parsed in the term body, not by an
   Arg.conv: a malformed id is malformed *input* (exit 4, like a garbage
   package), not a command-line usage error (exit 2). *)
let device_id_of_string s =
  match Int64.of_string_opt s with
  | Some id -> id
  | None ->
    die ~code:exit_malformed
      (Printf.sprintf "malformed device id %S (expected decimal or 0x-prefixed hex)" s)

let device_id_arg =
  Term.(
    const device_id_of_string
    $ Arg.(
        value
        & opt string "1"
        & info [ "device-id" ] ~docv:"ID"
            ~doc:
              "Target device identity (simulated silicon seed), decimal or 0x-prefixed \
               hex."))

let no_compress_arg =
  Arg.(value & flag & info [ "no-compress" ] ~doc:"Disable RVC compression.")

let no_optimize_arg =
  Arg.(value & flag & info [ "no-optimize" ] ~doc:"Disable IR optimisation passes.")

let mode_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "full" ] -> Ok Eric.Config.Full
    | [ "partial" ] -> Ok (Eric.Config.Partial Eric.Config.Select_all)
    | [ "partial"; frac ] -> (
      match float_of_string_opt frac with
      | Some fraction when fraction >= 0.0 && fraction <= 1.0 ->
        Ok (Eric.Config.Partial (Eric.Config.Select_fraction { fraction; seed = 0x5EEDL }))
      | _ -> Error (`Msg "partial:<fraction in 0..1>"))
    | [ "field-imm" ] -> Ok (Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all))
    | [ "field-all" ] ->
      Ok (Eric.Config.Field (Eric.Config.All_but_opcode, Eric.Config.Select_all))
    | [ "field-cf" ] ->
      Ok (Eric.Config.Field (Eric.Config.Control_flow, Eric.Config.Select_all))
    | _ -> Error (`Msg "expected full | partial[:frac] | field-imm | field-all | field-cf")
  in
  Arg.conv (parse, fun fmt m -> Eric.Config.pp_mode fmt m)

let mode_arg_with default =
  Arg.(
    value
    & opt mode_conv default
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Encryption mode: full, partial[:frac], field-imm, field-all, field-cf.")

let mode_arg = mode_arg_with Eric.Config.Full

let options_of ~no_compress ~no_optimize =
  { Eric_cc.Driver.default_options with
    Eric_cc.Driver.compress = not no_compress;
    optimize = not no_optimize }

let obfuscate_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obfuscate" ] ~docv:"PASSES"
        ~doc:
          "Comma-separated obfuscation passes applied to the optimised IR: constants, \
           arith, opaque, dummy, flatten.  Passes always run in that canonical order \
           regardless of how the list is spelled.")

let obf_seed_arg =
  Arg.(
    value
    & opt int64 Eric_obf.Obf.default_seed
    & info [ "obf-seed" ] ~docv:"SEED"
        ~doc:
          "Obfuscation build seed; all pass randomness derives from it, so equal \
           seed + source + passes reproduce a byte-identical image.")

(* Parse --obfuscate; an unknown pass name is an input error (exit 4),
   the same class as a malformed file. *)
let obf_config_of ~obfuscate ~obf_seed =
  match obfuscate with
  | None -> None
  | Some spec -> (
    match Eric_obf.Obf.passes_of_string spec with
    | Error msg -> die ~code:exit_malformed msg
    | Ok passes -> Some { Eric_obf.Obf.passes; seed = obf_seed })

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let telemetry_format_conv =
  let parse = function
    | "table" -> Ok `Table
    | "jsonl" -> Ok `Jsonl
    | "trace" -> Ok `Trace
    | s -> Error (`Msg (Printf.sprintf "unknown telemetry format %S (expected table, jsonl or trace)" s))
  in
  let print fmt f =
    Format.pp_print_string fmt (match f with `Table -> "table" | `Jsonl -> "jsonl" | `Trace -> "trace")
  in
  Arg.conv (parse, print)

let telemetry_arg =
  Arg.(
    value
    & opt ~vopt:(Some `Table) (some telemetry_format_conv) None
    & info [ "telemetry" ] ~docv:"FORMAT"
        ~doc:
          "Record pipeline telemetry (spans, counters, gauges) and report it when the command \
           finishes.  FORMAT is table (default), jsonl, or trace (Chrome trace_event JSON for \
           about:tracing / Perfetto).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the telemetry report to FILE instead of stderr.")

(* Enable recording now and export at process exit, so even the [exit]-ing
   run command reports.  [at_exit] fires exactly once on every exit path. *)
let setup_telemetry format trace_out =
  match format with
  | None -> ()
  | Some format ->
    Eric_telemetry.Control.enable ();
    at_exit (fun () ->
        let snapshot = Eric_telemetry.Snapshot.capture () in
        let rendered =
          match format with
          | `Table -> Format.asprintf "%a" Eric_telemetry.Export.pp_table snapshot
          | `Jsonl -> Eric_telemetry.Export.to_jsonl snapshot
          | `Trace -> Eric_telemetry.Export.to_chrome_trace snapshot
        in
        match trace_out with
        | Some path -> or_die (write_file path rendered)
        | None ->
          prerr_string rendered;
          flush stderr)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_format_conv =
  let parse s =
    match Eric_lint.Engine.format_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown lint format %S (expected table or jsonl)" s))
  in
  Arg.conv (parse, fun fmt f -> Format.pp_print_string fmt (Eric_lint.Engine.format_name f))

let lint_format_arg =
  Arg.(
    value
    & opt lint_format_conv Eric_lint.Engine.Table
    & info [ "lint-format" ] ~docv:"FORMAT" ~doc:"Diagnostics rendering: table or jsonl.")

let max_leakage_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-leakage" ] ~docv:"FRACTION"
        ~doc:
          "Escalate a leakage metric (plaintext/opcode/branch-offset fraction, legible call \
           edges or prologues) above FRACTION to an error.")

let checks_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checks" ] ~docv:"PREFIXES"
        ~doc:"Comma-separated check-id prefixes to keep, e.g. 'mc.,leak.cfg'.")

let lint_flag_arg =
  Arg.(value & flag & info [ "lint" ] ~doc:"Run the machine-code and leakage linters and report.")

let attacker_conv =
  let parse s =
    match Eric_lint.Leakage.attacker_of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown attacker %S (expected linear or recursive)" s))
  in
  Arg.conv
    (parse, fun fmt a -> Format.pp_print_string fmt (Eric_lint.Leakage.attacker_to_string a))

let attacker_arg =
  Arg.(
    value
    & opt (some attacker_conv) None
    & info [ "attacker" ] ~docv:"MODEL"
        ~doc:
          "Simulate an attacker against the policy's plaintext bits and score the program \
           structure it recovers: 'linear' (sweep classification) or 'recursive' \
           (recursive descent from the entry point with value-set resolution of computed \
           jumps).  The score participates in the --max-leakage gate.")

let taint_arg =
  Arg.(
    value & flag
    & info [ "taint" ]
        ~doc:
          "Check the secret-taint obligation over the build pipeline: KMU-derived key \
           material must never reach a plaintext package field or telemetry output.  Any \
           finding is an error.")

let lint_error_arg =
  Arg.(
    value & flag
    & info [ "lint-error" ]
        ~doc:"Run the linters and fail on any warning-or-error diagnostic (implies --lint).")

(* Machine-code verification plus leakage prediction for one policy on one
   plain image — what build/analyze/lint all share. *)
let lint_image ?max_leakage ?attacker ~mode image =
  let mc = Eric_lint.Mc_verify.verify image in
  let report, leak = Eric.Policy_lint.lint ?max_leakage ~mode image in
  let structure =
    Option.map (fun a -> Eric.Policy_lint.recover ~mode ~attacker:a image) attacker
  in
  let struct_diags =
    match structure with
    | Some s -> Eric_lint.Leakage.structure_diags ?max_leakage s
    | None -> []
  in
  (mc @ leak @ struct_diags, report, structure)

let lint_source ?max_leakage ?attacker ?obf ~mode ~options source =
  (* The driver rejects IR with error findings, so the IR it returns
     carries at most warnings and notes: list them, then build the image
     from that same IR and verify it. *)
  let hook = Option.map Eric_obf.Obf.hook obf in
  let options =
    match hook with
    | None -> options
    | Some (t, _) -> { options with Eric_cc.Driver.transform = Some t }
  in
  let ( let* ) = Result.bind in
  let* ir = Eric_cc.Driver.compile_to_ir ~options source in
  let ir_diags = Eric_cc.Ir_verify.verify ir in
  let* image = Eric_cc.Driver.compile_ir ~options ir in
  match hook with
  | None ->
    let mc_leak, report, structure = lint_image ?max_leakage ?attacker ~mode image in
    Ok (ir_diags @ mc_leak, report, structure)
  | Some (_, annot) ->
    (* Obfuscated build: the attacker is graded Jaccard-style against
       the decoy-subtracted ground truth, so swallowed decoys *lower*
       the score and --max-leakage gates the residual leakage. *)
    let mc_leak, report, _ = lint_image ?max_leakage ~mode image in
    let structure =
      Option.map (fun a -> Eric_obf.Obf.grade ~annot ~attacker:a image) attacker
    in
    let struct_diags =
      match structure with
      | Some s -> Eric_lint.Leakage.structure_diags ?max_leakage s
      | None -> []
    in
    Ok (ir_diags @ mc_leak @ struct_diags, report, structure)

let pp_leakage_report fmt (r : Eric_lint.Leakage.report) =
  Format.fprintf fmt
    "leakage: %.0f%% parcels plaintext, %.0f%% opcodes visible, %d/%d branch offsets, %d/%d \
     call edges, %d/%d prologues legible@."
    (100. *. r.Eric_lint.Leakage.plaintext_fraction)
    (100. *. r.Eric_lint.Leakage.opcode_visible_fraction)
    r.Eric_lint.Leakage.branch_offsets_plaintext r.Eric_lint.Leakage.branch_sites
    r.Eric_lint.Leakage.call_edges_plaintext r.Eric_lint.Leakage.call_sites
    r.Eric_lint.Leakage.prologues_plaintext r.Eric_lint.Leakage.prologues

let render_diags ~format ~checks diags =
  let checks =
    match checks with
    | None -> []
    | Some s -> List.filter (fun p -> p <> "") (String.split_on_char ',' s)
  in
  let diags = Eric_lint.Engine.filter ~checks diags in
  Eric_lint.Engine.render format Format.std_formatter (Eric_lint.Diag.sort diags);
  diags

let pp_structure fmt (s : Eric_lint.Leakage.structure) =
  Format.fprintf fmt
    "structure (%s): score %.2f, code %d/%d, functions %d/%d, branch targets %d/%d, call \
     edges %d/%d, indirect resolved %d/%d@."
    (Eric_lint.Leakage.attacker_to_string s.Eric_lint.Leakage.s_attacker)
    s.Eric_lint.Leakage.structure_score s.Eric_lint.Leakage.code_found
    s.Eric_lint.Leakage.code_total s.Eric_lint.Leakage.functions_found
    s.Eric_lint.Leakage.functions_total s.Eric_lint.Leakage.branch_targets_found
    s.Eric_lint.Leakage.branch_targets_total s.Eric_lint.Leakage.call_edges_found
    s.Eric_lint.Leakage.call_edges_total s.Eric_lint.Leakage.indirect_resolved
    s.Eric_lint.Leakage.indirect_total

let lint_cmd =
  let run path workloads mode max_leakage attacker taint format checks lint_error no_compress
      no_optimize obfuscate obf_seed telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let options = options_of ~no_compress ~no_optimize in
    let obf = obf_config_of ~obfuscate ~obf_seed in
    let lint_one label (diags, report, structure) =
      if workloads <> [] || path = None then Format.printf "== %s ==@." label;
      let diags = render_diags ~format ~checks diags in
      if format = Eric_lint.Engine.Table then pp_leakage_report Format.std_formatter report;
      (match (structure, format) with
      | Some s, Eric_lint.Engine.Table -> pp_structure Format.std_formatter s
      | Some s, Eric_lint.Engine.Jsonl ->
        print_endline
          (Eric_telemetry.Json.to_string
             (Eric_telemetry.Json.Obj
                [ ("structure", Eric_lint.Leakage.structure_to_json s);
                  ("label", Eric_telemetry.Json.Str label) ]))
      | None, _ -> ());
      diags
    in
    let inputs =
      match (workloads, path) with
      | [], None when not taint ->
        Printf.eprintf "error: give a FILE or --workloads\n";
        exit 2
      | [], None -> []
      | [], Some path ->
        let data = read_file path in
        let result =
          match Eric.Package.parse (Bytes.of_string data) with
          | Ok pkg ->
            (match pkg.Eric.Package.obf with
            | Some (mask, seed) ->
              Format.printf "package obfuscation: passes %s, seed 0x%Lx@."
                (String.concat ","
                   (List.map Eric_obf.Obf.pass_name (Eric_obf.Obf.passes_of_mask mask)))
                seed
            | None -> Format.printf "package obfuscation: none@.");
            Error "cannot lint an encrypted package; lint runs before packaging"
          | Error _ -> (
            match Eric_rv.Program.of_binary (Bytes.of_string data) with
            | Ok image ->
              Ok (lint_image ?max_leakage ?attacker ~mode image)
            | Error _ -> lint_source ?max_leakage ?attacker ?obf ~mode ~options data)
        in
        [ (path, result) ]
      | names, _ ->
        List.map
          (fun name ->
            match Eric_workloads.Workloads.by_name name with
            | None -> (name, Error (Printf.sprintf "unknown workload %s" name))
            | Some w ->
              ( name,
                lint_source ?max_leakage ?attacker ?obf ~mode ~options
                  w.Eric_workloads.Workloads.source ))
          (if names = [ "all" ] then Eric_workloads.Workloads.names else names)
    in
    let all_diags =
      List.concat_map (fun (label, result) -> lint_one label (or_die result)) inputs
    in
    let taint_diags =
      if not taint then []
      else begin
        let result, diags = Eric.Pipeline_taint.lint () in
        if workloads <> [] || path = None then Format.printf "== pipeline taint ==@.";
        let diags = render_diags ~format ~checks diags in
        (if diags = [] && format = Eric_lint.Engine.Table then
           Format.printf "taint: obligation holds (%d values tainted, 0 reach a sink)@."
             (List.length result.Eric_lint.Taint.tainted));
        diags
      end
    in
    let all_diags = all_diags @ taint_diags in
    let fail_on = if lint_error then Eric_lint.Diag.Warning else Eric_lint.Diag.Error in
    exit (Eric_lint.Engine.exit_code ~fail_on all_diags)
  in
  let path_arg =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"MiniC source or plain image (.rexe).")
  in
  let workloads_arg =
    Arg.(
      value
      & opt ~vopt:[ "all" ] (list string) []
      & info [ "workloads" ] ~docv:"NAMES"
          ~doc:"Lint the named built-in workloads ('all' or no value = every one).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Verify IR (for sources), machine code and encryption-policy leakage; exit 1 on \
          errors (with --lint-error, also on warnings).")
    Term.(
      const run $ path_arg $ workloads_arg $ mode_arg $ max_leakage_arg $ attacker_arg
      $ taint_arg $ lint_format_arg $ checks_arg $ lint_error_arg $ no_compress_arg
      $ no_optimize_arg $ obfuscate_arg $ obf_seed_arg $ telemetry_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let run source output no_compress no_optimize =
    let options = options_of ~no_compress ~no_optimize in
    let image = or_die (Eric_cc.Driver.compile ~options (read_file source)) in
    or_die
      (write_file output (Bytes.to_string (Eric_rv.Program.to_binary ~with_symbols:true image)));
    Format.printf "%s: %a@." output Eric_rv.Program.pp_summary image
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile MiniC to a plain RV64 image (with symbols; see disasm).")
    Term.(const run $ source_arg $ output_arg ~default:"a.rexe" $ no_compress_arg $ no_optimize_arg)

let build_cmd =
  let run source output device_id mode lint lint_error max_leakage format checks no_compress
      no_optimize obfuscate obf_seed telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let options = options_of ~no_compress ~no_optimize in
    let obf_cfg = obf_config_of ~obfuscate ~obf_seed in
    let options =
      match obf_cfg with None -> options | Some cfg -> Eric_obf.Obf.options ~base:options cfg
    in
    (* Pass mask + seed ride in the (signed) package header so any later
       consumer can tell how the image was produced. *)
    let obf =
      Option.map
        (fun cfg ->
          (Eric_obf.Obf.mask_of_passes cfg.Eric_obf.Obf.passes, cfg.Eric_obf.Obf.seed))
        obf_cfg
    in
    let target = Eric.Target.of_id device_id in
    let key = Eric.Protocol.provision target in
    let build = or_die (Eric.Source.build ~options ?obf ~mode ~key (read_file source)) in
    if lint || lint_error then begin
      let diags, report, _ = lint_image ?max_leakage ~mode build.Eric.Source.image in
      let diags = render_diags ~format ~checks diags in
      if format = Eric_lint.Engine.Table then pp_leakage_report Format.std_formatter report;
      if lint_error && Eric_lint.Engine.fails ~fail_on:Eric_lint.Diag.Warning diags then begin
        Printf.eprintf "error: lint diagnostics with --lint-error\n";
        exit 1
      end
    end;
    or_die
      (write_file output (Bytes.to_string (Eric.Package.serialize build.Eric.Source.package)));
    Format.printf "%s: %a@." output Eric.Package.pp_summary build.Eric.Source.package;
    Format.printf "plain %d B -> package %d B (%+.2f%%), %d/%d parcels encrypted@."
      build.Eric.Source.plain_size build.Eric.Source.package_size
      (100.0
      *. float_of_int (build.Eric.Source.package_size - build.Eric.Source.plain_size)
      /. float_of_int build.Eric.Source.plain_size)
      build.Eric.Source.stats.Eric.Encrypt.encrypted_parcels
      build.Eric.Source.stats.Eric.Encrypt.parcels
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Compile and encrypt a package for one device.")
    Term.(
      const run $ source_arg $ output_arg ~default:"a.epkg" $ device_id_arg $ mode_arg
      $ lint_flag_arg $ lint_error_arg $ max_leakage_arg $ lint_format_arg $ checks_arg
      $ no_compress_arg $ no_optimize_arg $ obfuscate_arg $ obf_seed_arg $ telemetry_arg
      $ trace_out_arg)

let emit_asm_cmd =
  let run source output no_compress no_optimize =
    let options = options_of ~no_compress ~no_optimize in
    let text = or_die (Eric_cc.Driver.compile_to_assembly ~options (read_file source)) in
    if output = "-" then print_string text
    else begin
      or_die (write_file output text);
      Printf.printf "%s: %d lines of assembly\n" output
        (List.length (String.split_on_char '\n' text))
    end
  in
  Cmd.v
    (Cmd.info "emit-asm" ~doc:"Compile MiniC to assembly text (-S mode; '-o -' for stdout).")
    Term.(const run $ source_arg $ output_arg ~default:"a.s" $ no_compress_arg $ no_optimize_arg)

let asm_cmd =
  let run source output no_compress entry =
    let image =
      or_die (Eric_rv.Asm.assemble ?entry ~compress:(not no_compress) (read_file source))
    in
    or_die
      (write_file output (Bytes.to_string (Eric_rv.Program.to_binary ~with_symbols:true image)));
    Format.printf "%s: %a@." output Eric_rv.Program.pp_summary image
  in
  let entry_arg =
    Arg.(
      value & opt (some string) None
      & info [ "entry" ] ~docv:"LABEL" ~doc:"Entry label (default _start or first label).")
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble RISC-V assembly text to a plain image.")
    Term.(
      const run
      $ Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE.s" ~doc:"Assembly file.")
      $ output_arg ~default:"a.rexe" $ no_compress_arg $ entry_arg)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Image (.rexe) or package (.epkg).")

(* A package when the file parses as one, else a plain image; exit 4
   when it is neither. *)
let read_input path =
  let data = Bytes.of_string (read_file path) in
  match Eric.Package.parse data with
  | Ok pkg -> `Package pkg
  | Error _ -> `Image (or_die_malformed (Eric_rv.Program.of_binary data))

let inspect_cmd =
  let run path =
    match read_input path with
    | `Package pkg -> Format.printf "%a@." Eric.Package.pp_summary pkg
    | `Image image -> Format.printf "%a@." Eric_rv.Program.pp_summary image
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Describe an image or package.") Term.(const run $ file_arg)

let disasm_cmd =
  let run path =
    let image = or_die_malformed (Eric_rv.Program.of_binary (Bytes.of_string (read_file path))) in
    let lines = Eric_rv.Disasm.disassemble_stream image.Eric_rv.Program.text in
    match image.Eric_rv.Program.symbols with
    | [] -> Format.printf "%a" Eric_rv.Disasm.pp_listing lines
    | symbols -> Format.printf "%a" (Eric_rv.Disasm.pp_listing_symbols ~symbols) lines
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a plain image (symbolised when the image carries symbols).")
    Term.(const run $ file_arg)

let analyze_cmd =
  let run path mode lint lint_error max_leakage format checks telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let text, image =
      match read_input path with
      | `Package pkg -> (pkg.Eric.Package.enc_text, None)
      | `Image image -> (image.Eric_rv.Program.text, Some image)
    in
    Format.printf "%a@." Eric.Analysis.pp_static_report (Eric.Analysis.static_analysis text);
    Format.printf "byte entropy: %.2f bits/byte@." (Eric.Analysis.byte_entropy text);
    if lint || lint_error then begin
      match image with
      | None ->
        Printf.eprintf "error: cannot lint an encrypted package; lint runs before packaging\n";
        exit 1
      | Some image ->
        let diags, report, _ = lint_image ?max_leakage ~mode image in
        let diags = render_diags ~format ~checks diags in
        if format = Eric_lint.Engine.Table then pp_leakage_report Format.std_formatter report;
        if lint_error && Eric_lint.Engine.fails ~fail_on:Eric_lint.Diag.Warning diags then
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Static-analysis metrics of a text section.")
    Term.(
      const run $ file_arg $ mode_arg $ lint_flag_arg $ lint_error_arg $ max_leakage_arg
      $ lint_format_arg $ checks_arg $ telemetry_arg $ trace_out_arg)

let run_cmd =
  let run path device_id fuel trace telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let run_image image memory load_cycles =
      let trace =
        if trace > 0 then begin
          let remaining = ref trace in
          Some
            (fun ~pc inst ->
              if !remaining > 0 then begin
                decr remaining;
                Printf.eprintf "%8x:  %s\n" pc (Eric_rv.Disasm.inst_to_string inst)
              end)
        end
        else None
      in
      Eric_sim.Soc.run_loaded ~fuel ?trace ~load_cycles image memory
    in
    let result =
      match read_input path with
      | `Package pkg -> (
        let target = Eric.Target.of_id device_id in
        match Eric.Target.receive target pkg with
        | Error e ->
          Printf.eprintf "error: %s\n" (Format.asprintf "%a" Eric.Target.pp_load_error e);
          exit (load_error_code e)
        | Ok loaded ->
          let image = loaded.Eric.Target.image in
          run_image image (Eric_sim.Soc.load image)
            loaded.Eric.Target.load.Eric_hw.Hde.total_cycles)
      | `Image image ->
        run_image image (Eric_sim.Soc.load image) (Eric_sim.Soc.plain_load_cycles image)
    in
    print_string result.Eric_sim.Soc.output;
    Format.eprintf "load %Ld + exec %Ld = %Ld cycles, %Ld instructions@."
      result.Eric_sim.Soc.load_cycles result.Eric_sim.Soc.exec_cycles
      (Eric_sim.Soc.total_cycles result)
      result.Eric_sim.Soc.instructions;
    match result.Eric_sim.Soc.status with
    | Eric_sim.Cpu.Exited code -> exit code
    | Eric_sim.Cpu.Faulted msg ->
      Printf.eprintf "fault: %s\n" msg;
      exit 124
    | Eric_sim.Cpu.Integrity_fault msg ->
      Printf.eprintf "integrity fault: %s\n" msg;
      exit 123
    | Eric_sim.Cpu.Running -> exit 125
  in
  let fuel_arg =
    Arg.(
      value & opt int 200_000_000
      & info [ "fuel" ] ~docv:"N" ~doc:"Maximum instructions to execute.")
  in
  let trace_arg =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"N" ~doc:"Print the first N executed instructions to stderr.")
  in
  Cmd.v
    (Cmd.info "run" ~exits:run_exits ~doc:"Run an image, or a package on its device.")
    Term.(const run $ file_arg $ device_id_arg $ fuel_arg $ trace_arg $ telemetry_arg $ trace_out_arg)

let corner_conv =
  let parse s =
    match Eric_puf.Env.of_name s with
    | Some env -> Ok env
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown corner %S (expected %s)" s
             (String.concat ", " (List.map fst Eric_puf.Env.corners))))
  in
  Arg.conv (parse, Eric_puf.Env.pp)

let corner_arg =
  Arg.(
    value
    & opt corner_conv Eric_puf.Env.nominal
    & info [ "corner" ] ~docv:"NAME"
        ~doc:
          "Operating corner: nominal, cold, hot, low-voltage, cold-lowv, hot-lowv, aged, \
           aged-hot-lowv.")

(* ------------------------------------------------------------------ *)
(* Fleet                                                               *)
(* ------------------------------------------------------------------ *)

let registry_arg =
  Arg.(
    value & opt string "fleet.efrg"
    & info [ "registry" ] ~docv:"PATH"
        ~doc:"Device registry: an EFRG file or a sharded registry directory.")

let open_registry path =
  if not (Sys.file_exists path) then
    die (Printf.sprintf "registry %s does not exist (run 'eric fleet enroll' first)" path);
  or_die (Eric_fleet.Registry_shard.load path)

let scheduler_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Eric_engine.Engine.scheduler_of_string s)
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Eric_engine.Engine.scheduler_label s))

let scheduler_arg =
  Arg.(
    value
    & opt scheduler_conv Eric_engine.Engine.Deterministic
    & info [ "scheduler" ] ~docv:"SCHED"
        ~doc:
          "Work-queue scheduler: deterministic (reference, index order) or domains[:N] \
           (OCaml-5 domain pool; identical outcomes, only timing differs).")

let channel_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Eric_fleet.Channel.of_string s) in
  Arg.conv (parse, fun fmt c -> Format.pp_print_string fmt (Eric_fleet.Channel.name c))

let channel_arg =
  Arg.(
    value
    & opt channel_conv Eric_fleet.Channel.clean
    & info [ "channel" ] ~docv:"SPEC"
        ~doc:"Delivery channel model: clean, drop-first:N, or flaky:P[:SEED].")

let epoch_arg ~default =
  Arg.(value & opt int default & info [ "epoch" ] ~docv:"N" ~doc:"KMU key epoch.")

let label_arg =
  Arg.(
    value & opt (some string) None
    & info [ "label" ] ~docv:"LABEL" ~doc:"KMU deployment-scope label.")

let fleet_enroll_cmd =
  let run registry count start_id epoch label factory shards quiet telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let store =
      or_die
        (if Sys.file_exists registry then Eric_fleet.Registry_shard.load registry
         else Eric_fleet.Registry_shard.create ~shards registry)
    in
    let enroll_one =
      if factory then Eric_fleet.Registry_shard.enroll_legacy ~epoch ?label store
      else Eric_fleet.Registry_shard.enroll ~epoch ?label store
    in
    for i = 0 to count - 1 do
      let id = Int64.add start_id (Int64.of_int i) in
      let entry = or_die (enroll_one id) in
      if not quiet then Format.printf "%a@." Eric_fleet.Registry.pp_entry entry
    done;
    or_die (Eric_fleet.Registry_shard.save store);
    Format.printf "%s: %s@." registry (or_die (Eric_fleet.Registry_shard.summary store))
  in
  let count_arg =
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"N" ~doc:"Number of devices to enroll.")
  in
  let start_id_arg =
    Term.(
      const device_id_of_string
      $ Arg.(
          value & opt string "1"
          & info [ "start-id" ] ~docv:"ID"
              ~doc:"First device id (decimal or 0x-prefixed hex); ids are consecutive."))
  in
  let factory_arg =
    Arg.(
      value & flag
      & info [ "factory" ]
          ~doc:
            "Fast factory path: plain majority-vote key at nominal conditions, no helper \
             data (the legacy v1 flow) — about 5x faster per device than full reliability \
             screening.")
  in
  let shards_arg =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "When creating a new registry, make it a sharded directory with N shards \
             instead of a single EFRG file.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Do not print one line per device.")
  in
  Cmd.v
    (Cmd.info "enroll" ~doc:"Manufacture, provision and register devices.")
    Term.(
      const run $ registry_arg $ count_arg $ start_id_arg $ epoch_arg ~default:0 $ label_arg
      $ factory_arg $ shards_arg $ quiet_arg $ telemetry_arg $ trace_out_arg)

let fleet_campaign_cmd =
  let run source registry mode channel max_attempts execute fuel cache_dir firmware devices
      scheduler report_out no_compress no_optimize telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let store = open_registry registry in
    let policy =
      or_die
        (Eric_fleet.Backoff.validate
           { Eric_fleet.Backoff.default with Eric_fleet.Backoff.max_attempts })
    in
    let cache = Eric_fleet.Artifact_cache.create ?dir:cache_dir () in
    let config =
      { Eric_fleet.Campaign.options = options_of ~no_compress ~no_optimize;
        mode;
        policy;
        channel;
        execute;
        fuel;
        firmware_epoch = firmware;
        scheduler }
    in
    let source = read_file source in
    (* The report file is staged before the campaign stamps firmware
       epochs, so an unwritable path fails with the registry unchanged. *)
    let report_file =
      Option.map (fun path -> (path, or_die (Eric_util.Wire.stage path))) report_out
    in
    let discard () = Option.iter (fun (_, staged) -> Eric_util.Wire.discard staged) report_file in
    let report =
      match Eric_fleet.Campaign.deploy_sharded ~config ~cache ~shards:store source with
      | Ok report -> report
      | Error msg ->
        discard ();
        die msg
      | exception e ->
        discard ();
        raise e
    in
    if devices then Format.printf "%a" Eric_fleet.Campaign.pp_devices report;
    Format.printf "%a@." Eric_fleet.Campaign.pp_report report;
    Option.iter
      (fun (path, staged) ->
        let json = Eric_telemetry.Json.to_string (Eric_fleet.Campaign.report_to_json report) in
        match output_string (Eric_util.Wire.channel staged) (json ^ "\n") with
        | () -> or_die (Eric_util.Wire.commit staged)
        | exception Sys_error msg ->
          Eric_util.Wire.discard staged;
          die (path ^ ": " ^ msg))
      report_file;
    if report.Eric_fleet.Campaign.delivered <> List.length report.Eric_fleet.Campaign.devices
    then exit exit_failures
  in
  let max_attempts_arg =
    Arg.(
      value
      & opt int Eric_fleet.Backoff.default.Eric_fleet.Backoff.max_attempts
      & info [ "max-attempts" ] ~docv:"N" ~doc:"Delivery attempts per device.")
  in
  let execute_arg =
    Arg.(value & flag & info [ "execute" ] ~doc:"Run each delivered package on its device's SoC.")
  in
  let fuel_arg =
    Arg.(
      value & opt (some int) None
      & info [ "fuel" ] ~docv:"N" ~doc:"Instruction budget when --execute is given.")
  in
  let cache_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Persist compiled artifacts to DIR across runs.")
  in
  let firmware_arg =
    Arg.(
      value & opt (some int) None
      & info [ "firmware" ] ~docv:"N"
          ~doc:"Firmware epoch to stamp on delivered devices (default: auto-increment).")
  in
  let devices_arg =
    Arg.(value & flag & info [ "devices" ] ~doc:"Print one line per device delivery.")
  in
  let report_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "report-out" ] ~docv:"FILE"
          ~doc:
            "Write the campaign report as canonical JSON (simulation-deterministic fields \
             only — byte-identical across schedulers).")
  in
  Cmd.v
    (Cmd.info "campaign" ~exits:campaign_exits
       ~doc:
         "Deploy a workload to every active device: compile once, personalize per device, ship \
          with retry/backoff.  Exits 3 unless every device was delivered.")
    Term.(
      const run $ source_arg $ registry_arg $ mode_arg $ channel_arg $ max_attempts_arg
      $ execute_arg $ fuel_arg $ cache_dir_arg $ firmware_arg $ devices_arg $ scheduler_arg
      $ report_out_arg $ no_compress_arg $ no_optimize_arg $ telemetry_arg $ trace_out_arg)

let fleet_rotate_cmd =
  let run registry epoch label rsa_bits seed scheduler telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let store = open_registry registry in
    let method_ =
      match rsa_bits with
      | None -> Eric_fleet.Rotation.Local
      | Some bits -> Eric_fleet.Rotation.rsa ~bits ~seed
    in
    let failed =
      or_die
        (Eric_fleet.Registry_shard.walk store ~f:(fun reg ->
             let report = Eric_fleet.Rotation.rotate ~scheduler ~method_ ?label ~epoch reg in
             Format.printf "%a@." Eric_fleet.Rotation.pp_report report;
             Ok (report.Eric_fleet.Rotation.failed <> [])))
    in
    if List.mem true failed then exit exit_failures
  in
  let rsa_arg =
    Arg.(
      value
      & opt ~vopt:(Some 768) (some int) None
      & info [ "rsa" ] ~docv:"BITS"
          ~doc:"Re-provision in-band under RSA (default 768-bit) instead of out-of-band.")
  in
  let seed_arg =
    Arg.(
      value & opt int64 0xE41CL
      & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed for RSA key generation and padding.")
  in
  Cmd.v
    (Cmd.info "rotate" ~exits:campaign_exits
       ~doc:
         "Rotate every device to a new key epoch, re-provisioning keys and reactivating \
          quarantined devices.  Exits 3 if any device failed to re-provision.")
    Term.(
      const run $ registry_arg $ epoch_arg ~default:1 $ label_arg $ rsa_arg $ seed_arg
      $ scheduler_arg $ telemetry_arg $ trace_out_arg)

let fleet_reenroll_cmd =
  let run registry threshold votes env scheduler telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let store = open_registry registry in
    let config =
      {
        Eric_fleet.Reenroll.default_config with
        Eric_fleet.Reenroll.threshold_ppm = threshold;
        survey_votes = votes;
        survey_env = env;
      }
    in
    let failed =
      or_die
        (Eric_fleet.Registry_shard.walk store ~f:(fun reg ->
             let report = Eric_fleet.Reenroll.run ~scheduler ~config reg in
             Format.printf "%a@." Eric_fleet.Reenroll.pp_report report;
             Ok (report.Eric_fleet.Reenroll.failed <> [])))
    in
    if List.mem true failed then exit exit_failures
  in
  let threshold_arg =
    Arg.(
      value
      & opt int Eric_fleet.Reenroll.default_config.Eric_fleet.Reenroll.threshold_ppm
      & info [ "threshold" ] ~docv:"PPM"
          ~doc:"Re-enroll devices whose surveyed worst-bit instability exceeds PPM.")
  in
  let votes_arg =
    Arg.(
      value
      & opt int Eric_fleet.Reenroll.default_config.Eric_fleet.Reenroll.survey_votes
      & info [ "votes" ] ~docv:"N" ~doc:"Reads per enrolled challenge during the survey.")
  in
  let survey_corner_arg =
    Arg.(
      value
      & opt corner_conv Eric_puf.Env.stress
      & info [ "corner" ] ~docv:"NAME"
          ~doc:"Survey operating corner (default: the cold-lowv stress corner).")
  in
  Cmd.v
    (Cmd.info "reenroll" ~exits:campaign_exits
       ~doc:
         "Survey every device's helper data at a stress corner and re-enroll drifting \
          devices, upgrade legacy entries to the fuzzy-extractor boot path and reactivate \
          key-reconstruction quarantines.  Exits 3 if any device failed re-enrollment.")
    Term.(
      const run $ registry_arg $ threshold_arg $ votes_arg $ survey_corner_arg $ scheduler_arg
      $ telemetry_arg $ trace_out_arg)

let fleet_status_cmd =
  let run registry devices =
    let store = open_registry registry in
    if devices then
      or_die
        (Eric_fleet.Registry_shard.fold_entries store ~init:() ~f:(fun () e ->
             Format.printf "%a@." Eric_fleet.Registry.pp_entry e));
    Format.printf "%s: %s@." registry (or_die (Eric_fleet.Registry_shard.summary store))
  in
  let devices_arg =
    Arg.(value & flag & info [ "devices" ] ~doc:"Print one line per enrolled device.")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Summarise a device registry (single-file or sharded).")
    Term.(const run $ registry_arg $ devices_arg)

let fleet_shard_migrate_cmd =
  let run registry dir shards telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let sh = or_die (Eric_fleet.Registry_shard.migrate ~file:registry ~dir ~shards) in
    Format.printf "%s -> %s: %s@." registry dir (or_die (Eric_fleet.Registry_shard.summary sh))
  in
  let dir_arg =
    Arg.(
      required & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Destination directory for the sharded registry.")
  in
  let shards_arg =
    Arg.(value & opt int 16 & info [ "shards" ] ~docv:"N" ~doc:"Number of shards (1-65535).")
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Stream a single-file EFRG registry into a hash-partitioned sharded directory.  The \
          source file is decoded one entry at a time and never fully resident, so fleets \
          larger than memory migrate fine.")
    Term.(const run $ registry_arg $ dir_arg $ shards_arg $ telemetry_arg $ trace_out_arg)

let fleet_shard_cmd =
  Cmd.group
    (Cmd.info "shard" ~doc:"Sharded registry maintenance.")
    [ fleet_shard_migrate_cmd ]

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Fleet management: enroll devices, run deployment campaigns, rotate keys, re-enroll \
          drifting PUFs, inspect the registry.")
    [ fleet_enroll_cmd; fleet_campaign_cmd; fleet_rotate_cmd; fleet_reenroll_cmd;
      fleet_status_cmd; fleet_shard_cmd ]

(* ------------------------------------------------------------------ *)
(* Verification: differential fuzzing and fault injection              *)
(* ------------------------------------------------------------------ *)

let verif_seed_arg ~default =
  Arg.(value & opt int64 default & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign PRNG seed.")

let verif_count_arg ~default ~doc =
  Arg.(value & opt int default & info [ "count" ] ~docv:"N" ~doc)

let verif_fuel_arg =
  Arg.(
    value
    & opt int Eric_verif.Oracle.default_fuel
    & info [ "fuel" ] ~docv:"N" ~doc:"Instruction budget per execution.")

let regions_conv =
  let parse s =
    match s with
    | "wire" -> Ok Eric_verif.Inject.wire_regions
    | "all" -> Ok Eric_verif.Inject.all_regions
    | s -> (
      let rec build acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
          match Eric_verif.Inject.region_of_string name with
          | Ok r -> build (r :: acc) rest
          | Error e -> Error (`Msg e))
      in
      build [] (String.split_on_char ',' s))
  in
  let print fmt regions =
    Format.pp_print_string fmt
      (String.concat "," (List.map Eric_verif.Inject.region_name regions))
  in
  Arg.conv (parse, print)

let verif_fuzz_cmd =
  let run count seed size mode device_id fuel corpus mutate_pct shrink_budget max_failures
      obfuscate obf_seed quiet telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let options =
      match obf_config_of ~obfuscate ~obf_seed with
      | None -> Eric_cc.Driver.default_options
      | Some cfg -> Eric_obf.Obf.options cfg
    in
    let config =
      {
        Eric_verif.Fuzz.count;
        seed;
        size;
        mode;
        device_id;
        fuel;
        corpus_dir = corpus;
        mutate_pct;
        shrink_budget;
        max_failures;
        options;
      }
    in
    let on_progress n =
      if not quiet then Format.eprintf "... %d/%d programs@." n count
    in
    let outcome = Eric_verif.Fuzz.run ~config ~on_progress () in
    Format.printf "%a@." Eric_verif.Fuzz.pp_stats outcome.Eric_verif.Fuzz.stats;
    List.iter
      (fun f -> Format.printf "@.%a@." Eric_verif.Fuzz.pp_failure f)
      outcome.Eric_verif.Fuzz.failures;
    if outcome.Eric_verif.Fuzz.failures <> [] then exit exit_failures
  in
  let size_arg =
    Arg.(
      value & opt int Eric_verif.Fuzz.default_config.Eric_verif.Fuzz.size
      & info [ "size" ] ~docv:"N" ~doc:"Generator size budget (statements per program).")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Persist minimised reproducers to DIR.")
  in
  let mutate_pct_arg =
    Arg.(
      value & opt int Eric_verif.Fuzz.default_config.Eric_verif.Fuzz.mutate_pct
      & info [ "mutate-pct" ] ~docv:"PCT"
          ~doc:"Percentage of programs produced by trace mutation instead of fresh generation.")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int Eric_verif.Fuzz.default_config.Eric_verif.Fuzz.shrink_budget
      & info [ "shrink-budget" ] ~docv:"N" ~doc:"Maximum oracle runs per finding while shrinking.")
  in
  let max_failures_arg =
    Arg.(
      value & opt int Eric_verif.Fuzz.default_config.Eric_verif.Fuzz.max_failures
      & info [ "max-failures" ] ~docv:"N" ~doc:"Stop the campaign after N findings.")
  in
  let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output.") in
  Cmd.v
    (Cmd.info "fuzz" ~exits:campaign_exits
       ~doc:
         "Differential fuzzing: generate MiniC programs and compare the IR interpreter, the \
          plain compiled image and the full encrypt-ship-decrypt-validate path.  With \
          --obfuscate the machine paths run the obfuscated build while the interpreter runs \
          the pristine IR, so the campaign proves the passes semantics-preserving.  Any \
          divergence is shrunk to a minimal reproducer.  Exits 3 if anything diverged.")
    Term.(
      const run
      $ verif_count_arg ~default:1000 ~doc:"Programs to generate and run."
      $ verif_seed_arg ~default:0xF22DL $ size_arg
      $ mode_arg $ device_id_arg $ verif_fuel_arg $ corpus_arg $ mutate_pct_arg
      $ shrink_budget_arg $ max_failures_arg $ obfuscate_arg $ obf_seed_arg $ quiet_arg
      $ telemetry_arg $ trace_out_arg)

let verif_inject_cmd =
  let run source_opt regions count seed mode device_id fuel corpus guard sweep json out
      min_coverage telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let source =
      match source_opt with
      | Some path -> read_file path
      | None -> Eric_verif.Inject.default_source
    in
    let guard = Eric_hw.Guard.default guard in
    let config =
      { Eric_verif.Inject.fuel; mode; device_id; seed; count; regions; guard }
    in
    let gate coverage =
      match min_coverage with
      | Some floor when coverage *. 100.0 < floor ->
        die ~code:exit_failures
          (Printf.sprintf "detection coverage %.2f%% below required %.2f%%"
             (100.0 *. coverage) floor)
      | _ -> ()
    in
    match sweep with
    | Some mechanisms -> (
      match Eric_verif.Inject.dram_sweep ~config ~mechanisms source with
      | Error msg -> die msg
      | Ok points ->
        let rendered =
          Eric_telemetry.Json.to_string (Eric_verif.Inject.sweep_to_json points) ^ "\n"
        in
        Option.iter (fun path -> or_die (write_file path rendered)) out;
        if json then print_string rendered
        else
          List.iter
            (fun p ->
              Format.printf "%-16s %6d injections  %8.2f%% coverage  %6.3f overhead@."
                (Eric_hw.Guard.mechanism_name p.Eric_verif.Inject.sp_mechanism)
                p.Eric_verif.Inject.sp_injections
                (100.0 *. p.Eric_verif.Inject.sp_coverage)
                p.Eric_verif.Inject.sp_overhead)
            points;
        let best =
          List.fold_left
            (fun acc p -> Float.max acc p.Eric_verif.Inject.sp_coverage)
            0.0 points
        in
        gate best)
    | None -> (
      match Eric_verif.Inject.campaign ~config source with
      | Error msg -> die msg
      | Ok report ->
        let rendered =
          Eric_telemetry.Json.to_string (Eric_verif.Inject.report_to_json config report)
          ^ "\n"
        in
        Option.iter (fun path -> or_die (write_file path rendered)) out;
        if json then print_string rendered
        else Format.printf "%a@." Eric_verif.Inject.pp_report report;
        let escaped_protected =
          List.filter
            (fun e -> e.Eric_verif.Inject.e_region <> Eric_verif.Inject.Dram)
            report.Eric_verif.Inject.escapes
        in
        (match corpus with
        | None -> ()
        | Some dir ->
          List.iter
            (fun e ->
              let entry =
                {
                  Eric_verif.Corpus.kind =
                    Eric_verif.Corpus.Injection_escape
                      {
                        region = Eric_verif.Inject.region_name e.Eric_verif.Inject.e_region;
                        bit = e.Eric_verif.Inject.e_bit;
                      };
                  seed;
                  trace = [||];
                  source;
                  note =
                    "single-bit flip escaped detection; replay: "
                    ^ Eric_verif.Inject.replay_command ~regions e;
                }
              in
              match Eric_verif.Corpus.save ~dir entry with
              | Ok path -> Format.eprintf "escape saved: %s@." path
              | Error msg -> Format.eprintf "warning: could not save escape: %s@." msg)
            escaped_protected);
        gate (Eric_verif.Inject.detection_coverage report);
        if escaped_protected <> [] then
          die ~code:exit_failures
            (Printf.sprintf "%d silent corruption(s) escaped detection in protected regions"
               (List.length escaped_protected)))
  in
  let source_arg =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"SOURCE.mc" ~doc:"MiniC workload (default: a built-in workload).")
  in
  let regions_arg =
    Arg.(
      value
      & opt regions_conv Eric_verif.Inject.wire_regions
      & info [ "region"; "regions" ] ~docv:"LIST"
          ~doc:
            "Comma-separated injection regions (header, map, payload, data, signature, dram, \
             key), or the aliases 'wire' and 'all'.")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR" ~doc:"Persist escape reproducers to DIR.")
  in
  let guard_mech_conv =
    let parse s = Result.map_error (fun e -> `Msg e) (Eric_hw.Guard.mechanism_of_string s) in
    Arg.conv (parse, Eric_hw.Guard.pp_mechanism)
  in
  let guard_arg =
    Arg.(
      value
      & opt guard_mech_conv Eric_hw.Guard.Off
      & info [ "guard" ] ~docv:"MECH"
          ~doc:
            "Runtime integrity guard active during dram injections: off, fetch, scrub:N or \
             fetch+scrub:N (N = scrub interval in cycles).")
  in
  let sweep_arg =
    Arg.(
      value
      & opt (some (list guard_mech_conv)) None
      & info [ "guard-sweep" ] ~docv:"MECHS"
          ~doc:
            "Run one dram-only campaign per comma-separated guard mechanism and report the \
             coverage-vs-overhead curve instead of a single campaign.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the JSON report to stdout instead of the table.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON report to FILE.")
  in
  let min_coverage_arg =
    Arg.(
      value & opt (some float) None
      & info [ "min-coverage" ] ~docv:"PCT"
          ~doc:
            "Exit 3 when pooled detection coverage (best sweep point under --guard-sweep) \
             falls below PCT percent.")
  in
  Cmd.v
    (Cmd.info "inject" ~exits:campaign_exits
       ~doc:
         "Fault injection: flip single bits in package regions in transit, in DRAM after \
          validation, or in the device key, and classify each flip as detected, masked or \
          silent corruption.  With --guard the runtime integrity guard re-checks resident \
          memory during dram runs.  Exits 3 on silent corruption anywhere the HDE is \
          supposed to protect (everywhere but dram), or when coverage falls below \
          --min-coverage.")
    Term.(
      const run $ source_arg $ regions_arg
      $ verif_count_arg ~default:1000 ~doc:"Number of single-bit injections."
      $ verif_seed_arg ~default:0x1A7EC7L
      $ mode_arg_with Eric_verif.Inject.default_config.Eric_verif.Inject.mode
      $ device_id_arg $ verif_fuel_arg $ corpus_arg $ guard_arg $ sweep_arg $ json_arg
      $ out_arg $ min_coverage_arg $ telemetry_arg $ trace_out_arg)

let verif_shrink_cmd =
  let run file size fuel mode device_id budget =
    let entry = or_die_malformed (Eric_verif.Corpus.load file) in
    let oracle source = Eric_verif.Oracle.run ~fuel ~mode ~device_id source in
    let failing =
      match entry.Eric_verif.Corpus.kind with
      | Eric_verif.Corpus.Injection_escape _ ->
        die "injection-escape reproducers replay a whole campaign and cannot be shrunk"
      | Eric_verif.Corpus.Divergence ->
        fun trace ->
          (match oracle (Eric_verif.Gen.of_trace ~size trace).Eric_verif.Gen.source with
          | Ok r -> Eric_verif.Oracle.diverges r
          | Error _ -> false)
      | Eric_verif.Corpus.Compile_error ->
        fun trace ->
          (match oracle (Eric_verif.Gen.of_trace ~size trace).Eric_verif.Gen.source with
          | Error _ -> true
          | Ok _ -> false)
    in
    if not (failing entry.Eric_verif.Corpus.trace) then begin
      Format.printf "%s no longer reproduces@." file;
      exit 0
    end;
    let min_trace, tests =
      Eric_verif.Shrink.minimize ~max_tests:budget ~failing entry.Eric_verif.Corpus.trace
    in
    let min_prog = Eric_verif.Gen.of_trace ~size min_trace in
    let entry =
      { entry with
        Eric_verif.Corpus.trace = min_prog.Eric_verif.Gen.trace;
        source = min_prog.Eric_verif.Gen.source }
    in
    or_die (write_file file (Eric_verif.Corpus.to_string entry));
    Format.printf "%s: %d draws after %d oracle runs@.%s@." file
      (Array.length min_prog.Eric_verif.Gen.trace)
      tests min_prog.Eric_verif.Gen.source;
    exit exit_failures
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE.repro" ~doc:"Reproducer written by 'verif fuzz --corpus'.")
  in
  let size_arg =
    Arg.(
      value & opt int Eric_verif.Fuzz.default_config.Eric_verif.Fuzz.size
      & info [ "size" ] ~docv:"N" ~doc:"Generator size budget used by the original campaign.")
  in
  let budget_arg =
    Arg.(
      value & opt int 400
      & info [ "budget" ] ~docv:"N" ~doc:"Maximum oracle runs to spend shrinking.")
  in
  Cmd.v
    (Cmd.info "shrink" ~exits:campaign_exits
       ~doc:
         "Re-minimise a persisted reproducer in place.  Exits 3 when the reproducer still \
          fails (i.e. there is still a bug), 0 when it no longer reproduces.")
    Term.(
      const run $ file_arg $ size_arg $ verif_fuel_arg $ mode_arg $ device_id_arg $ budget_arg)

let verif_corpus_cmd =
  let run dir replay fuel mode device_id =
    let entries = Eric_verif.Corpus.list ~dir in
    if entries = [] then Format.printf "%s: empty corpus@." dir;
    let bad = ref 0 and still = ref 0 in
    List.iter
      (fun (path, result) ->
        match result with
        | Error msg ->
          incr bad;
          Format.printf "%s: unreadable: %s@." path msg
        | Ok entry ->
          Format.printf "%s: %a@." path Eric_verif.Corpus.pp_entry entry;
          if replay then (
            match entry.Eric_verif.Corpus.kind with
            | Eric_verif.Corpus.Injection_escape _ -> ()
            | Eric_verif.Corpus.Divergence | Eric_verif.Corpus.Compile_error -> (
              match Eric_verif.Fuzz.replay ~fuel ~mode ~device_id entry with
              | Error msg ->
                incr still;
                Format.printf "  still fails to compile: %s@." msg
              | Ok r ->
                if Eric_verif.Oracle.diverges r then begin
                  incr still;
                  Format.printf "  still diverges:@.  %a@." Eric_verif.Oracle.pp_report r
                end
                else Format.printf "  no longer diverges@.")))
      entries;
    if !bad > 0 then exit exit_malformed;
    if !still > 0 then exit exit_failures
  in
  let dir_arg =
    Arg.(
      value & pos 0 dir "verif-corpus"
      & info [] ~docv:"DIR" ~doc:"Corpus directory (default: verif-corpus).")
  in
  let replay_arg =
    Arg.(value & flag & info [ "replay" ] ~doc:"Re-run each reproducer through the oracle.")
  in
  Cmd.v
    (Cmd.info "corpus" ~exits:campaign_exits
       ~doc:
         "List a reproducer corpus; with --replay, re-run every entry and exit 3 if any \
          still fails (4 if any entry is unreadable).")
    Term.(const run $ dir_arg $ replay_arg $ verif_fuel_arg $ mode_arg $ device_id_arg)

let verif_env_cmd =
  let run devices boots seed max_kfr out telemetry trace_out =
    setup_telemetry telemetry trace_out;
    let config =
      {
        Eric_verif.Envsweep.default_config with
        Eric_verif.Envsweep.devices;
        boots;
        seed;
        max_kfr;
      }
    in
    match Eric_verif.Envsweep.campaign ~config () with
    | Error msg -> die msg
    | Ok report ->
      Format.printf "%a@." Eric_verif.Envsweep.pp_report report;
      (match out with
      | None -> ()
      | Some path ->
        or_die
          (write_file path
             (Eric_telemetry.Json.to_string (Eric_verif.Envsweep.to_json report))));
      if not (Eric_verif.Envsweep.passed report) then exit exit_failures
  in
  let devices_arg =
    Arg.(
      value
      & opt int Eric_verif.Envsweep.default_config.Eric_verif.Envsweep.devices
      & info [ "devices" ] ~docv:"N" ~doc:"Population size.")
  in
  let boots_arg =
    Arg.(
      value
      & opt int Eric_verif.Envsweep.default_config.Eric_verif.Envsweep.boots
      & info [ "boots" ] ~docv:"N" ~doc:"Boots per device per corner.")
  in
  let max_kfr_arg =
    Arg.(
      value
      & opt float Eric_verif.Envsweep.default_config.Eric_verif.Envsweep.max_kfr
      & info [ "max-kfr" ] ~docv:"RATE"
          ~doc:"Per-corner post-extractor key-failure-rate budget.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the per-corner report as JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "env" ~exits:campaign_exits
       ~doc:
         "Environmental sweep: enroll a population, boot every device at every operating \
          corner and report key failure rate with and without the fuzzy extractor.  Exits 3 \
          if any corner exceeds the post-extractor budget or a verified reconstruction \
          produced a wrong key.")
    Term.(
      const run $ devices_arg $ boots_arg $ verif_seed_arg ~default:0xE57EEDL $ max_kfr_arg
      $ out_arg $ telemetry_arg $ trace_out_arg)

let verif_cmd =
  Cmd.group
    (Cmd.info "verif"
       ~doc:
         "Verification campaigns: differential fuzzing across the interpreter, plain and \
          encrypted execution paths, fault-injection coverage measurement, environmental \
          sweeps of the PUF key path, and reproducer corpus maintenance.")
    [ verif_fuzz_cmd; verif_inject_cmd; verif_shrink_cmd; verif_corpus_cmd; verif_env_cmd ]

let puf_show_term =
  let run device_id =
    let device = Eric_puf.Device.manufacture device_id in
    let target = Eric.Target.create device in
    Printf.printf "device id     : %Ld\n" device_id;
    Printf.printf "chains        : %d x %d-stage arbiter\n" (Eric_puf.Device.chains device)
      (Eric_puf.Arbiter.default_params.Eric_puf.Arbiter.stages);
    Printf.printf "puf key       : %s\n"
      (Eric_util.Bytesx.to_hex (Eric_puf.Device.puf_key device));
    Printf.printf "derived key   : %s\n"
      (Eric_util.Bytesx.to_hex (Eric.Target.derived_key target));
    Printf.printf "challenge set : %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int (Eric_puf.Device.challenge_set device))));
    match Eric_puf.Enroll.enroll device with
    | Error e -> Printf.printf "enrollment    : refused (%s)\n" e
    | Ok e ->
      Printf.printf "enrollment    : %d/%d chains kept, worst instability %.1f%%, helper %d B\n"
        (Eric_puf.Enroll.kept_chains e.Eric_puf.Enroll.helper)
        (Eric_puf.Device.chains device)
        (100.0 *. e.Eric_puf.Enroll.worst_instability)
        (Bytes.length (Eric_puf.Enroll.serialize e.Eric_puf.Enroll.helper))
  in
  Term.(const run $ device_id_arg)

let puf_show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"Show a device's PUF identity, derived key and enrollment.")
    puf_show_term

let puf_metrics_cmd =
  let run devices challenges reeval seed env =
    let report =
      Eric_puf.Metrics.evaluate ~devices ~challenges_per_device:challenges ~reeval ~env ~seed
        ()
    in
    Format.printf "corner %a@." Eric_puf.Env.pp env;
    Format.printf "%a@." Eric_puf.Metrics.pp_report report
  in
  let devices_arg =
    Arg.(value & opt int 32 & info [ "devices" ] ~docv:"N" ~doc:"Population size.")
  in
  let challenges_arg =
    Arg.(
      value & opt int 128
      & info [ "challenges" ] ~docv:"N" ~doc:"Random challenges per device.")
  in
  let reeval_arg =
    Arg.(
      value & opt int 32
      & info [ "reeval" ] ~docv:"N" ~doc:"Noisy re-evaluations per challenge.")
  in
  let seed_arg =
    Arg.(value & opt int64 0x3E721C5L & info [ "seed" ] ~docv:"SEED" ~doc:"Population PRNG seed.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Monte-Carlo PUF quality metrics (uniformity, uniqueness, reliability, key failure \
          rate) over a simulated population, at any operating corner.")
    Term.(const run $ devices_arg $ challenges_arg $ reeval_arg $ seed_arg $ corner_arg)

let puf_cmd =
  Cmd.group ~default:puf_show_term
    (Cmd.info "puf"
       ~doc:
         "PUF device identity, enrollment and population metrics (default: show one \
          device).")
    [ puf_show_cmd; puf_metrics_cmd ]

(* ------------------------------------------------------------------ *)
(* Serve: simulated OTA update service                                 *)
(* ------------------------------------------------------------------ *)

let scenario_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Eric_serve.Scenario.by_name s) in
  Arg.conv (parse, fun fmt sc -> Format.pp_print_string fmt sc.Eric_serve.Scenario.name)

let serve_run_cmd =
  let run scenario seed duration rate_scale cache_dir out json slo_error telemetry
      trace_out =
    setup_telemetry telemetry trace_out;
    let scenario =
      match duration with
      | None -> scenario
      | Some seconds -> Eric_serve.Scenario.with_duration scenario ~seconds
    in
    let scenario =
      match rate_scale with
      | None -> scenario
      | Some factor -> Eric_serve.Scenario.with_rate_scale scenario ~factor
    in
    let report = or_die (Eric_serve.Service.run ~seed ?cache_dir ~scenario ()) in
    let rendered =
      Eric_telemetry.Json.to_string (Eric_serve.Slo.to_json report) ^ "\n"
    in
    Option.iter (fun path -> or_die (write_file path rendered)) out;
    if json then print_string rendered
    else Format.printf "%a@." Eric_serve.Slo.pp report;
    if slo_error && not (Eric_serve.Slo.passed report) then exit exit_failures
  in
  let scenario_arg =
    Arg.(
      value
      & opt scenario_conv Eric_serve.Scenario.steady
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Scenario preset to run: %s."
               (String.concat ", " Eric_serve.Scenario.names)))
  in
  let seed_arg =
    Arg.(
      value & opt int64 1L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "PRNG seed for traffic and channel draws.  The same (scenario, seed) pair \
             produces a byte-identical report on any machine.")
  in
  let duration_arg =
    Arg.(
      value & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Override the scenario's simulated traffic horizon.")
  in
  let rate_scale_arg =
    Arg.(
      value & opt (some float) None
      & info [ "rate-scale" ] ~docv:"FACTOR"
          ~doc:"Scale the scenario's request rates (CI smoke runs shrink both).")
  in
  let cache_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Enable the artifact cache's on-disk tier in DIR.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON report to FILE.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the JSON report to stdout instead of the summary.")
  in
  let slo_error_arg =
    Arg.(
      value & flag
      & info [ "slo-error" ]
          ~doc:"Exit 3 when the run blows any of the scenario's SLO budgets.")
  in
  Cmd.v
    (Cmd.info "run" ~exits:campaign_exits
       ~doc:
         "Run one scenario of the simulated OTA update service: Zipf-popular workloads \
          over the corpus, Poisson/burst device arrivals, a bounded admission queue with \
          shed-on-full backpressure, per-tenant fleets and key rotations — all on a \
          simulated clock, reporting p50/p99 latency, refusal rate, quarantine rate and \
          cache hit rate against the scenario's SLO budgets.")
    Term.(
      const run $ scenario_arg $ seed_arg $ duration_arg $ rate_scale_arg $ cache_dir_arg
      $ out_arg $ json_arg $ slo_error_arg $ telemetry_arg $ trace_out_arg)

let serve_scenarios_cmd =
  let run () =
    List.iter
      (fun sc -> Format.printf "%a@." Eric_serve.Scenario.pp sc)
      Eric_serve.Scenario.presets
  in
  Cmd.v
    (Cmd.info "scenarios" ~doc:"List the scenario presets and their shapes.")
    Term.(const run $ const ())

let serve_cmd =
  Cmd.group
    (Cmd.info "serve"
       ~doc:
         "Simulated OTA update service: deterministic traffic scenarios through the fleet \
          pipeline with bounded queues, backpressure and SLO accounting.")
    [ serve_run_cmd; serve_scenarios_cmd ]

let () =
  let doc = "ERIC: PUF-keyed software obfuscation and trusted execution" in
  exit (Cmd.eval (Cmd.group (Cmd.info "eric" ~doc) [ compile_cmd; emit_asm_cmd; asm_cmd; build_cmd; inspect_cmd; disasm_cmd; analyze_cmd; lint_cmd; run_cmd; puf_cmd; fleet_cmd; verif_cmd; serve_cmd ]))
