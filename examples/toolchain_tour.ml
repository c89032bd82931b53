(* Toolchain tour: every stage of the compiler/assembler pipeline on one
   small program, ending with a self-timing run that reads the hardware
   counters ERIC's dynamic-analysis threat model talks about.

     dune exec examples/toolchain_tour.exe *)

let source =
  {|
int hot_loop(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) { acc += i * i; }
  return acc;
}

int main() {
  int c0 = __cycles();
  int r = hot_loop(500);
  int c1 = __cycles();
  print_str("result: ");
  println_int(r);
  print_str("cycles in hot_loop (rdcycle): ");
  println_int(c1 - c0);
  return 0;
}
|}

let () =
  (* every stage below is instrumented; collect spans and counters so the
     tour can end with the telemetry table *)
  Eric_telemetry.Control.enable ();

  (* 1. MiniC -> IR (what the optimiser sees) *)
  let ir =
    match Eric_cc.Driver.compile_to_ir source with Ok ir -> ir | Error e -> failwith e
  in
  let hot = List.find (fun f -> f.Eric_cc.Ir.f_name = "hot_loop") ir.Eric_cc.Ir.p_funcs in
  print_endline "=== IR of hot_loop after optimisation ===";
  Format.printf "%a@." Eric_cc.Ir.pp_func hot;

  (* 2. IR -> assembly text (the compiler's -S mode) *)
  let asm_text =
    match Eric_cc.Driver.compile_to_assembly source with Ok t -> t | Error e -> failwith e
  in
  print_endline "=== assembly (first 18 lines) ===";
  String.split_on_char '\n' asm_text
  |> List.filteri (fun i _ -> i < 18)
  |> List.iter print_endline;

  (* 3. assembly text -> image, via the textual assembler *)
  let image =
    match Eric_rv.Asm.assemble asm_text with Ok img -> img | Error e -> failwith e
  in
  Format.printf "=== assembled: %a ===@." Eric_rv.Program.pp_summary image;

  (* 4. disassemble it back, symbolised *)
  print_endline "=== disassembly of hot_loop ===";
  let lines = Eric_rv.Disasm.disassemble_stream image.Eric_rv.Program.text in
  let hot_off = List.assoc "hot_loop" image.Eric_rv.Program.symbols in
  let listing =
    Format.asprintf "%a"
      (Eric_rv.Disasm.pp_listing_symbols ~symbols:image.Eric_rv.Program.symbols)
      (List.filter
         (fun (l : Eric_rv.Disasm.line) -> l.offset >= hot_off && l.offset < hot_off + 40)
         lines)
  in
  print_string listing;

  (* 5. run it on the SoC — the program times itself with rdcycle *)
  print_endline "=== execution ===";
  let r = Eric_sim.Soc.run_program image in
  print_string r.Eric_sim.Soc.output;
  Printf.printf "(SoC totals: %Ld instructions, %Ld cycles)\n" r.Eric_sim.Soc.instructions
    r.Eric_sim.Soc.exec_cycles;

  (* 6. obfuscation: the same build with --obfuscate=flatten,opaque — a
     dispatcher replaces the legible control-flow topology and opaque
     predicates feed junk decoy edges.  Output is unchanged; what changes
     is what a disassembling attacker gets back, graded Jaccard-style
     against the decoy-subtracted ground truth (a plain image scores
     1.0). *)
  print_endline "\n=== obfuscation (--obfuscate=flatten,opaque) ===";
  let cfg =
    { Eric_obf.Obf.passes = [ Eric_obf.Obf.Opaque; Eric_obf.Obf.Flatten ];
      seed = Eric_obf.Obf.default_seed }
  in
  let transform, annot = Eric_obf.Obf.hook cfg in
  let obf_image =
    Eric_cc.Driver.compile_exn
      ~options:{ Eric_cc.Driver.default_options with Eric_cc.Driver.transform = Some transform }
      source
  in
  let ro = Eric_sim.Soc.run_program obf_image in
  (* the program times itself with rdcycle, so only the result line is
     comparable — the cycle line legitimately grows with the dispatcher *)
  let first_line s =
    match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s
  in
  Printf.printf "result unchanged under obfuscation: %b\n"
    (first_line ro.Eric_sim.Soc.output = first_line r.Eric_sim.Soc.output);
  let s = Eric_obf.Obf.grade ~annot ~attacker:Eric_lint.Leakage.Recursive obf_image in
  Printf.printf
    "text %d B -> %d B; recursive attacker structure score %.2f (plain image: 1.00)\n"
    (Eric_rv.Program.text_size image)
    (Eric_rv.Program.text_size obf_image)
    s.Eric_lint.Leakage.structure_score;

  (* 7. fleet deployment: enroll ten devices and push the program to all
     of them over a lossy channel — compile/sign/layout run once, each
     device gets its own keystream, retries recover the lost packets *)
  print_endline "\n=== fleet campaign (10 devices, lossy channel) ===";
  let registry = Eric_fleet.Registry.create () in
  for id = 1 to 10 do
    match Eric_fleet.Registry.enroll registry (Int64.of_int id) with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  let cache = Eric_fleet.Artifact_cache.create () in
  let config =
    { Eric_fleet.Campaign.default_config with
      Eric_fleet.Campaign.channel = Eric_fleet.Channel.flaky ~probability:0.3 ~seed:42L () }
  in
  (match Eric_fleet.Campaign.deploy ~config ~cache ~registry source with
  | Error e -> failwith e
  | Ok report ->
    Format.printf "%a@." Eric_fleet.Campaign.pp_report report;
    (* a second wave — say, a staged rollout — reuses the cached artifact *)
    (match Eric_fleet.Campaign.deploy ~config ~cache ~registry source with
    | Error e -> failwith e
    | Ok wave2 ->
      Format.printf "second wave: cache %s, %d delivered@."
        (Eric_fleet.Artifact_cache.outcome_label wave2.Eric_fleet.Campaign.cache)
        wave2.Eric_fleet.Campaign.delivered));

  (* 8. a short differential-fuzz burst: generated MiniC programs run
     through the IR interpreter, the plain compiled image and the full
     encrypt-ship-decrypt-validate path; any disagreement would be a
     toolchain bug, shrunk to a minimal reproducer *)
  print_endline "\n=== differential fuzz (60 generated programs) ===";
  let outcome =
    Eric_verif.Fuzz.run
      ~config:{ Eric_verif.Fuzz.default_config with Eric_verif.Fuzz.count = 60; seed = 0x70FFL }
      ()
  in
  Format.printf "%a@." Eric_verif.Fuzz.pp_stats outcome.Eric_verif.Fuzz.stats;
  List.iter
    (fun f -> Format.printf "%a@." Eric_verif.Fuzz.pp_failure f)
    outcome.Eric_verif.Fuzz.failures;

  (* 9. the update service under load: 30 simulated seconds of flash-crowd
     traffic — Zipf-popular workloads, a 25x arrival burst, a bounded
     admission queue shedding what two servers cannot absorb — and the
     SLO report the scenario's budgets grade it against.  Deterministic:
     the same seed reprints this block byte-for-byte. *)
  print_endline "\n=== serve: flash-crowd scenario (30 simulated seconds) ===";
  let slo =
    match Eric_serve.Service.run ~seed:7L ~scenario:Eric_serve.Scenario.flash_crowd () with
    | Ok slo -> slo
    | Error e -> failwith e
  in
  Format.printf "%a@." Eric_serve.Slo.pp slo;

  (* 10. what the instrumentation saw: per-stage spans and SoC gauges *)
  print_endline "\n=== telemetry ===";
  Format.printf "%a@." Eric_telemetry.Export.pp_table (Eric_telemetry.Snapshot.capture ())
