(* The verification harness has to be trustworthy before anything it says
   about the toolchain is: these tests pin the generator's determinism and
   totality, the oracle's agreement on known-good programs, the shrinker's
   minimality on a synthetic predicate, the corpus round-trip, and the
   injection engine's 100%-detection obligation on signed regions. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let a = Eric_verif.Gen.generate ~seed:42L () in
  let b = Eric_verif.Gen.generate ~seed:42L () in
  check Alcotest.string "same seed, same source" a.Eric_verif.Gen.source b.Eric_verif.Gen.source;
  check
    Alcotest.(array int)
    "same seed, same trace" a.Eric_verif.Gen.trace b.Eric_verif.Gen.trace;
  let c = Eric_verif.Gen.generate ~seed:43L () in
  check Alcotest.bool "different seed, different program" false
    (a.Eric_verif.Gen.source = c.Eric_verif.Gen.source)

let test_gen_span () =
  let module T = Eric_telemetry in
  T.Span.reset ();
  ignore (T.Control.with_enabled (fun () -> Eric_verif.Gen.generate ~seed:42L ()));
  let spans = T.Span.completed () in
  T.Span.reset ();
  check Alcotest.int "verif.gen spans" 1
    (List.length (List.filter (fun e -> e.T.Span.name = "verif.gen") spans))

let test_gen_trace_replay_identity () =
  (* the recorded trace is canonical: replaying it regenerates the very
     same program and the very same trace (fixpoint) *)
  List.iter
    (fun seed ->
      let g = Eric_verif.Gen.generate ~seed () in
      let r = Eric_verif.Gen.of_trace g.Eric_verif.Gen.trace in
      check Alcotest.string "replay reproduces source" g.Eric_verif.Gen.source
        r.Eric_verif.Gen.source;
      check
        Alcotest.(array int)
        "replay reproduces trace" g.Eric_verif.Gen.trace r.Eric_verif.Gen.trace)
    [ 1L; 2L; 77L; 0xDEADL; -5L ]

let compiles source =
  match Eric_cc.Driver.compile ~options:Eric_cc.Driver.default_options source with
  | Ok _ -> true
  | Error _ -> false

let test_gen_total_over_arbitrary_traces () =
  (* any int array replays to some valid program: of_trace never raises
     and the result always compiles *)
  let test =
    QCheck.Test.make ~count:60 ~name:"of_trace total"
      QCheck.(array_of_size (Gen.int_bound 200) (int_range (-1000) 1000))
      (fun arr ->
        let g = Eric_verif.Gen.of_trace arr in
        String.length g.Eric_verif.Gen.source > 0 && compiles g.Eric_verif.Gen.source)
  in
  QCheck.Test.check_exn test

let test_gen_empty_and_tiny_traces () =
  List.iter
    (fun arr ->
      let g = Eric_verif.Gen.of_trace arr in
      check Alcotest.bool "degenerate trace compiles" true (compiles g.Eric_verif.Gen.source))
    [ [||]; [| 0 |]; [| max_int |]; [| -1; -1; -1 |]; Array.make 500 9999 ]

let test_mutation_total () =
  let rng = Eric_util.Prng.create ~seed:0x515CL in
  let base = (Eric_verif.Gen.generate ~seed:7L ()).Eric_verif.Gen.trace in
  for _ = 1 to 40 do
    let m = Eric_verif.Mutate.mutate ~rng base in
    let g = Eric_verif.Gen.of_trace m in
    check Alcotest.bool "mutant compiles" true (compiles g.Eric_verif.Gen.source)
  done;
  let other = (Eric_verif.Gen.generate ~seed:8L ()).Eric_verif.Gen.trace in
  for _ = 1 to 10 do
    let x = Eric_verif.Mutate.crossover ~rng base other in
    let g = Eric_verif.Gen.of_trace x in
    check Alcotest.bool "crossover compiles" true (compiles g.Eric_verif.Gen.source)
  done

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let test_oracle_agreement () =
  List.iter
    (fun seed ->
      let g = Eric_verif.Gen.generate ~seed () in
      match Eric_verif.Oracle.run g.Eric_verif.Gen.source with
      | Error msg -> Alcotest.failf "seed %Ld failed to compile: %s" seed msg
      | Ok report ->
        if not (Eric_verif.Oracle.agree report) then
          Alcotest.failf "seed %Ld diverges:@.%a@.%s" seed Eric_verif.Oracle.pp_report report
            g.Eric_verif.Gen.source)
    [ 101L; 102L; 103L; 104L; 105L; 106L ]

let test_oracle_agreement_partial_mode () =
  List.iter
    (fun seed ->
      let g = Eric_verif.Gen.generate ~seed () in
      match
        Eric_verif.Oracle.run ~mode:(Eric.Config.Partial Eric.Config.Select_all)
          g.Eric_verif.Gen.source
      with
      | Error msg -> Alcotest.failf "seed %Ld failed to compile: %s" seed msg
      | Ok report ->
        check Alcotest.bool "partial mode agrees" true (Eric_verif.Oracle.agree report))
    [ 201L; 202L; 203L ]

let test_oracle_behaviour_classes () =
  let open Eric_verif.Oracle in
  check Alcotest.bool "same exit agrees" true
    (behaviour_equal (Exit { code = 3; output = "x" }) (Exit { code = 3; output = "x" }));
  check Alcotest.bool "different output disagrees" false
    (behaviour_equal (Exit { code = 3; output = "x" }) (Exit { code = 3; output = "y" }));
  check Alcotest.bool "trap messages not compared" true
    (behaviour_equal (Trap "load fault") (Trap "store fault"));
  check Alcotest.bool "refusal never equals execution" false
    (behaviour_equal (Refused "sig") (Exit { code = 0; output = "" }));
  check Alcotest.bool "exhaustion never equals execution" false
    (behaviour_equal Exhausted (Exit { code = 0; output = "" }));
  check Alcotest.bool "exhaustion never equals a trap" false
    (behaviour_equal Exhausted (Trap "fault"));
  check Alcotest.bool "exhausted report flagged" true
    (exhausted
       { interp = Exit { code = 0; output = "" };
         plain = Exhausted;
         encrypted = Exhausted });
  check Alcotest.bool "complete report not flagged" false
    (exhausted
       { interp = Exit { code = 0; output = "" };
         plain = Trap "x";
         encrypted = Refused "y" });
  check Alcotest.bool "refusal disagrees in a report" false
    (agree
       { interp = Exit { code = 0; output = "" };
         plain = Exit { code = 0; output = "" };
         encrypted = Refused "sig" })

let test_oracle_fixed_program () =
  match Eric_verif.Oracle.run "int main() { println_int(6 * 7); return 5; }" with
  | Error msg -> Alcotest.fail msg
  | Ok r -> (
    check Alcotest.bool "agrees" true (Eric_verif.Oracle.agree r);
    match r.Eric_verif.Oracle.plain with
    | Eric_verif.Oracle.Exit { code; output } ->
      check Alcotest.int "exit code" 5 code;
      check Alcotest.string "output" "42\n" output
    | b -> Alcotest.failf "unexpected behaviour %a" Eric_verif.Oracle.pp_behaviour b)

let test_oracle_interprets_untransformed_ir () =
  (* A transform that changes main's exit code by rewriting its blocks in
     place: only the machine paths may see it. *)
  let bump =
    { Eric_cc.Driver.t_tag = "bump-exit";
      t_apply =
        (fun p ->
          List.iter
            (fun (f : Eric_cc.Ir.func) ->
              if f.Eric_cc.Ir.f_name = "main" then
                List.iter
                  (fun (b : Eric_cc.Ir.block) ->
                    match b.Eric_cc.Ir.term with
                    | Eric_cc.Ir.Ret (Some _) ->
                      b.Eric_cc.Ir.term <- Eric_cc.Ir.Ret (Some (Eric_cc.Ir.Imm 6L))
                    | _ -> ())
                  f.Eric_cc.Ir.f_blocks)
            p.Eric_cc.Ir.p_funcs;
          p) }
  in
  let options = { Eric_cc.Driver.default_options with transform = Some bump } in
  match Eric_verif.Oracle.run ~options "int main() { println_int(7); return 5; }" with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    let open Eric_verif.Oracle in
    check Alcotest.bool "interp runs the untransformed program" true
      (behaviour_equal r.interp (Exit { code = 5; output = "7\n" }));
    check Alcotest.bool "plain runs the transformed program" true
      (behaviour_equal r.plain (Exit { code = 6; output = "7\n" }));
    check Alcotest.bool "interp differs from plain" false (behaviour_equal r.interp r.plain);
    check Alcotest.bool "plain equals encrypted" true (behaviour_equal r.plain r.encrypted)

(* Addresses near [max_int], where [addr + len] wraps: a store, a load
   and a write that every path must trap on. *)
let test_oracle_wrapping_accesses_trap () =
  let huge_index = "int a[4]; int main() { int i = 576460752303422975; " in
  List.iter
    (fun src ->
      match Eric_verif.Oracle.run src with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
        let open Eric_verif.Oracle in
        let trap = function Trap _ -> true | _ -> false in
        check Alcotest.bool "agrees" true (agree r);
        check Alcotest.bool "three traps" true (trap r.interp && trap r.plain && trap r.encrypted))
    [ huge_index ^ "a[i] = 1; return 0; }";
      huge_index ^ "return a[i]; }";
      "char s[4]; int main() { __write(s, 4611686018427387903); return 3; }" ]

(* Globals past the interpreter's 2 MiB stack floor: the SoC paths run
   them, and the interpreter refuses them, which counts as exhaustion
   rather than the divergence its old layout reported (a trap on the
   first program, exit 3 on the second). *)
let test_oracle_oversized_globals () =
  List.iter
    (fun src ->
      match Eric_verif.Oracle.run src with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
        let open Eric_verif.Oracle in
        check Alcotest.bool "interp exhausted" true (r.interp = Exhausted);
        check Alcotest.bool "plain exits 42" true
          (behaviour_equal r.plain (Exit { code = 42; output = "" }));
        check Alcotest.bool "encrypted exits 42" true
          (behaviour_equal r.encrypted (Exit { code = 42; output = "" }));
        check Alcotest.bool "no divergence" false (diverges r))
    [ "int a[524300]; int main() { a[524299] = 42; return a[524299]; }";
      "int a[523773]; int f() { int b[4]; b[2] = 42; a[523772] = 3; return b[2]; } "
      ^ "int main() { return f(); }" ]

let test_oracle_compiles_once () =
  let module T = Eric_telemetry in
  T.Span.reset ();
  let result =
    T.Control.with_enabled (fun () -> Eric_verif.Oracle.run "int main() { return 3; }")
  in
  let spans = T.Span.completed () in
  T.Span.reset ();
  check Alcotest.bool "agrees" true
    (match result with Ok r -> Eric_verif.Oracle.agree r | Error _ -> false);
  List.iter
    (fun name ->
      check Alcotest.int (name ^ " spans") 1
        (List.length (List.filter (fun e -> e.T.Span.name = name) spans)))
    [ "cc.lex"; "cc.lower"; "lint.ir_verify"; "verif.interp"; "verif.target_setup" ]

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let test_shrink_synthetic_predicate () =
  (* "contains an element >= 7" minimises to a single 7 *)
  let failing arr = Array.exists (fun v -> v >= 7) arr in
  let start = [| 3; 9; 1; 12; 0; 44; 2 |] in
  let minimized, tests = Eric_verif.Shrink.minimize ~failing start in
  check Alcotest.bool "still fails" true (failing minimized);
  check Alcotest.int "minimal length" 1 (Array.length minimized);
  check Alcotest.int "minimal value" 7 minimized.(0);
  check Alcotest.bool "spent some tests" true (tests > 1)

let test_shrink_non_failing_input () =
  let minimized, tests = Eric_verif.Shrink.minimize ~failing:(fun _ -> false) [| 1; 2; 3 |] in
  check Alcotest.(array int) "returned unchanged" [| 1; 2; 3 |] minimized;
  check Alcotest.int "one test" 1 tests

let test_shrink_respects_budget () =
  let calls = ref 0 in
  let failing arr =
    incr calls;
    Array.length arr > 0
  in
  let _, tests = Eric_verif.Shrink.minimize ~max_tests:25 ~failing (Array.make 200 5) in
  check Alcotest.bool "stayed within budget" true (tests <= 25 + 2);
  check Alcotest.int "tests counted accurately" !calls tests

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let sample_entry =
  { Eric_verif.Corpus.kind = Eric_verif.Corpus.Divergence;
    seed = 0xABCL;
    trace = [| 4; 0; 17; 3 |];
    source = "int main() {\n  return 0;\n}\n";
    note = "interp=Exit(0) plain=Exit(1)" }

let test_corpus_roundtrip () =
  let s = Eric_verif.Corpus.to_string sample_entry in
  match Eric_verif.Corpus.parse s with
  | Error msg -> Alcotest.fail msg
  | Ok e ->
    check Alcotest.bool "kind" true (e.Eric_verif.Corpus.kind = Eric_verif.Corpus.Divergence);
    check Alcotest.int64 "seed" sample_entry.Eric_verif.Corpus.seed e.Eric_verif.Corpus.seed;
    check
      Alcotest.(array int)
      "trace" sample_entry.Eric_verif.Corpus.trace e.Eric_verif.Corpus.trace;
    check Alcotest.string "source" sample_entry.Eric_verif.Corpus.source
      e.Eric_verif.Corpus.source;
    check Alcotest.string "note" sample_entry.Eric_verif.Corpus.note e.Eric_verif.Corpus.note

let test_corpus_escape_kind_roundtrip () =
  let entry =
    { sample_entry with
      Eric_verif.Corpus.kind =
        Eric_verif.Corpus.Injection_escape { region = "payload"; bit = 133 } }
  in
  match Eric_verif.Corpus.parse (Eric_verif.Corpus.to_string entry) with
  | Error msg -> Alcotest.fail msg
  | Ok e -> (
    match e.Eric_verif.Corpus.kind with
    | Eric_verif.Corpus.Injection_escape { region; bit } ->
      check Alcotest.string "region" "payload" region;
      check Alcotest.int "bit" 133 bit
    | _ -> Alcotest.fail "wrong kind")

let with_tmp_dir f =
  let dir = Filename.temp_file "eric_verif_corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_corpus_save_load_list () =
  with_tmp_dir (fun dir ->
      let path =
        match Eric_verif.Corpus.save ~dir sample_entry with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      check Alcotest.bool "file exists" true (Sys.file_exists path);
      (match Eric_verif.Corpus.load path with
      | Ok e ->
        check Alcotest.string "load round-trips source" sample_entry.Eric_verif.Corpus.source
          e.Eric_verif.Corpus.source
      | Error e -> Alcotest.fail e);
      match Eric_verif.Corpus.list ~dir with
      | [ (p, Ok _) ] -> check Alcotest.string "list finds it" path p
      | l -> Alcotest.failf "expected one readable entry, got %d" (List.length l))

let test_corpus_rejects_garbage () =
  check Alcotest.bool "garbage is an error" true
    (Result.is_error (Eric_verif.Corpus.parse "not a reproducer"))

(* ------------------------------------------------------------------ *)
(* Injection                                                           *)
(* ------------------------------------------------------------------ *)

let inject_source =
  "int g[2] = {5, 6};\n\
   int main() { int i; int acc; acc = g[0]; for (i = 0; i < 8; i = i + 1) { acc = acc + i; } \
   print_str(\"acc=\"); println_int(acc + g[1]); return acc & 255; }"

(* What `eric verif inject` runs when given no source: the built-in
   workload on device 1.  Each injection test checks it next to its own
   input. *)
let cli_config = { Eric_verif.Inject.default_config with Eric_verif.Inject.device_id = 1L }

let campaign_exn ~config source =
  match Eric_verif.Inject.campaign ~config source with
  | Error msg -> Alcotest.fail msg
  | Ok report -> report

let test_inject_wire_all_detected () =
  List.iter
    (fun (source, config) ->
      let report = campaign_exn ~config source in
      check Alcotest.int "no silent corruption in signed regions" 0
        (Eric_verif.Inject.silent_total report);
      check (Alcotest.float 0.0001) "full detection coverage" 1.0
        (Eric_verif.Inject.detection_coverage report);
      check Alcotest.int "one row per wire region"
        (List.length Eric_verif.Inject.wire_regions)
        (List.length report.Eric_verif.Inject.rows);
      List.iter
        (fun row ->
          check Alcotest.bool "every region got injections" true
            (row.Eric_verif.Inject.injections > 0);
          check Alcotest.int "nothing masked on the wire" 0 row.Eric_verif.Inject.masked)
        report.Eric_verif.Inject.rows)
    [ (inject_source, { Eric_verif.Inject.default_config with Eric_verif.Inject.count = 200 });
      (Eric_verif.Inject.default_source, { cli_config with Eric_verif.Inject.count = 800 }) ]

let test_inject_key_never_validates () =
  List.iter
    (fun (source, config) ->
      let config = { config with Eric_verif.Inject.regions = [ Eric_verif.Inject.Key ] } in
      let report = campaign_exn ~config source in
      check Alcotest.int "wrong key never validates" 0 (Eric_verif.Inject.silent_total report);
      List.iter
        (fun row ->
          check Alcotest.int "all detected" row.Eric_verif.Inject.injections
            row.Eric_verif.Inject.detected)
        report.Eric_verif.Inject.rows)
    [ (inject_source, { Eric_verif.Inject.default_config with Eric_verif.Inject.count = 100 });
      (Eric_verif.Inject.default_source, { cli_config with Eric_verif.Inject.count = 200 }) ]

let test_inject_empty_region_is_error () =
  (* full encryption has no map: requesting Map must be a loud error,
     not a vacuous 100% *)
  let config =
    { Eric_verif.Inject.default_config with
      Eric_verif.Inject.mode = Eric.Config.Full;
      count = 10;
      regions = [ Eric_verif.Inject.Map ] }
  in
  check Alcotest.bool "empty region refused" true
    (Result.is_error (Eric_verif.Inject.campaign ~config inject_source))

let test_inject_dram_guard_coverage () =
  (* the guard's claim: an unguarded Dram campaign leaks silent
     corruptions and stays under the 99% coverage gate, the same flips
     under fetch+scrub pass it *)
  List.iter
    (fun (source, base) ->
      let base = { base with Eric_verif.Inject.regions = [ Eric_verif.Inject.Dram ] } in
      let off = campaign_exn ~config:base source in
      let guarded =
        campaign_exn
          ~config:
            { base with
              Eric_verif.Inject.guard = Eric_hw.Guard.fetch_and_scrub ~interval_cycles:256 }
          source
      in
      check Alcotest.bool "unguarded DRAM leaks silent corruption" true
        (Eric_verif.Inject.silent_total off > 0);
      check Alcotest.bool "unguarded coverage < 0.99" true
        (Eric_verif.Inject.detection_coverage off < 0.99);
      check Alcotest.bool "guarded coverage >= 0.99" true
        (Eric_verif.Inject.detection_coverage guarded >= 0.99);
      check Alcotest.bool "guard work is billed" true
        (guarded.Eric_verif.Inject.dram_overhead > 0.0);
      check (Alcotest.float 1e-9) "no guard, no billed overhead" 0.0
        off.Eric_verif.Inject.dram_overhead)
    [ ( inject_source,
        { Eric_verif.Inject.default_config with Eric_verif.Inject.count = 120; seed = 0x5C12BL } );
      ( Eric_verif.Inject.default_source,
        { cli_config with Eric_verif.Inject.count = 400; seed = 0x1A7EC7L } ) ]

let test_inject_escape_replay () =
  (* an escape carries (seed, iter): re-running the campaign with
     count = e_iter under e_seed makes it the final shot, exactly *)
  let config =
    { Eric_verif.Inject.default_config with
      Eric_verif.Inject.count = 120;
      seed = 0x5C12BL;
      regions = [ Eric_verif.Inject.Dram ] }
  in
  match Eric_verif.Inject.campaign ~config inject_source with
  | Error msg -> Alcotest.fail msg
  | Ok report -> (
    match report.Eric_verif.Inject.escapes with
    | [] -> Alcotest.fail "expected at least one unguarded DRAM escape"
    | e :: _ ->
      check Alcotest.int64 "escape records the campaign seed"
        config.Eric_verif.Inject.seed e.Eric_verif.Inject.e_seed;
      check Alcotest.bool "iteration within campaign" true
        (e.Eric_verif.Inject.e_iter >= 1
        && e.Eric_verif.Inject.e_iter <= config.Eric_verif.Inject.count);
      let replay_config =
        { config with
          Eric_verif.Inject.seed = e.Eric_verif.Inject.e_seed;
          count = e.Eric_verif.Inject.e_iter }
      in
      (match Eric_verif.Inject.campaign ~config:replay_config inject_source with
      | Error msg -> Alcotest.fail msg
      | Ok replayed ->
        let last =
          List.nth replayed.Eric_verif.Inject.escapes
            (List.length replayed.Eric_verif.Inject.escapes - 1)
        in
        check Alcotest.bool "replay reproduces the escape as its final shot"
          true
          (last.Eric_verif.Inject.e_region = e.Eric_verif.Inject.e_region
          && last.Eric_verif.Inject.e_bit = e.Eric_verif.Inject.e_bit
          && last.Eric_verif.Inject.e_iter = e.Eric_verif.Inject.e_iter));
      let cmd =
        Eric_verif.Inject.replay_command
          ~regions:config.Eric_verif.Inject.regions e
      in
      let contains_sub hay needle =
        let h = String.length hay and n = String.length needle in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "replay command names the seed" true
        (contains_sub cmd (Printf.sprintf "0x%Lx" e.Eric_verif.Inject.e_seed));
      check Alcotest.bool "replay command names the count" true
        (contains_sub cmd (Printf.sprintf "--count %d" e.Eric_verif.Inject.e_iter)))

let test_inject_json_stable () =
  let config =
    { Eric_verif.Inject.default_config with
      Eric_verif.Inject.count = 40;
      seed = 0x1A2BL;
      regions = [ Eric_verif.Inject.Dram ] }
  in
  let render () =
    match Eric_verif.Inject.campaign ~config inject_source with
    | Error msg -> Alcotest.fail msg
    | Ok report ->
      Eric_telemetry.Json.to_string (Eric_verif.Inject.report_to_json config report)
  in
  let a = render () in
  check Alcotest.string "report JSON deterministic" a (render ());
  (match Eric_telemetry.Json.of_string a with
  | Error msg -> Alcotest.failf "report JSON does not parse: %s" msg
  | Ok json ->
    check Alcotest.bool "report JSON carries escapes" true
      (Option.is_some (Eric_telemetry.Json.member "escapes" json)));
  let mechanisms =
    [ Eric_hw.Guard.Off; Eric_hw.Guard.Scrub { interval_cycles = 256 } ]
  in
  match
    Eric_verif.Inject.dram_sweep ~config ~mechanisms inject_source
  with
  | Error msg -> Alcotest.fail msg
  | Ok points ->
    check Alcotest.int "one sweep point per mechanism" (List.length mechanisms)
      (List.length points);
    let sweep = Eric_telemetry.Json.to_string (Eric_verif.Inject.sweep_to_json points) in
    check Alcotest.bool "sweep JSON parses" true
      (Result.is_ok (Eric_telemetry.Json.of_string sweep))

let test_inject_region_names () =
  List.iter
    (fun r ->
      match Eric_verif.Inject.region_of_string (Eric_verif.Inject.region_name r) with
      | Ok r' -> check Alcotest.bool "name round-trips" true (r = r')
      | Error e -> Alcotest.fail e)
    Eric_verif.Inject.all_regions;
  check Alcotest.bool "unknown region rejected" true
    (Result.is_error (Eric_verif.Inject.region_of_string "flux-capacitor"))

(* ------------------------------------------------------------------ *)
(* Fuzz campaign                                                       *)
(* ------------------------------------------------------------------ *)

let test_fuzz_small_campaign_clean () =
  let config =
    { Eric_verif.Fuzz.default_config with Eric_verif.Fuzz.count = 30; seed = 0xBEEFL }
  in
  let outcome = Eric_verif.Fuzz.run ~config () in
  check Alcotest.int "ran all programs" 30 outcome.Eric_verif.Fuzz.stats.Eric_verif.Fuzz.programs;
  check Alcotest.int "no divergences" 0
    outcome.Eric_verif.Fuzz.stats.Eric_verif.Fuzz.divergences;
  check Alcotest.int "no compile errors" 0
    outcome.Eric_verif.Fuzz.stats.Eric_verif.Fuzz.compile_errors;
  check Alcotest.int "no failures recorded" 0 (List.length outcome.Eric_verif.Fuzz.failures)

let test_fuzz_deterministic () =
  let config =
    { Eric_verif.Fuzz.default_config with Eric_verif.Fuzz.count = 10; seed = 0xD15EL }
  in
  let a = Eric_verif.Fuzz.run ~config () in
  let b = Eric_verif.Fuzz.run ~config () in
  check Alcotest.int "same mutated count"
    a.Eric_verif.Fuzz.stats.Eric_verif.Fuzz.mutated
    b.Eric_verif.Fuzz.stats.Eric_verif.Fuzz.mutated;
  check Alcotest.int "same divergences"
    a.Eric_verif.Fuzz.stats.Eric_verif.Fuzz.divergences
    b.Eric_verif.Fuzz.stats.Eric_verif.Fuzz.divergences

let () =
  Alcotest.run "eric_verif"
    [ ( "gen",
        [ Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "trace replay identity" `Quick test_gen_trace_replay_identity;
          Alcotest.test_case "total over arbitrary traces" `Slow
            test_gen_total_over_arbitrary_traces;
          Alcotest.test_case "degenerate traces" `Quick test_gen_empty_and_tiny_traces;
          Alcotest.test_case "mutation total" `Quick test_mutation_total;
          Alcotest.test_case "one span per program" `Quick test_gen_span ] );
      ( "oracle",
        [ Alcotest.test_case "agreement on generated programs" `Slow test_oracle_agreement;
          Alcotest.test_case "agreement in partial mode" `Slow
            test_oracle_agreement_partial_mode;
          Alcotest.test_case "behaviour classes" `Quick test_oracle_behaviour_classes;
          Alcotest.test_case "fixed program" `Quick test_oracle_fixed_program;
          Alcotest.test_case "interpreter sees untransformed IR" `Quick
            test_oracle_interprets_untransformed_ir;
          Alcotest.test_case "one compile per run" `Quick test_oracle_compiles_once;
          Alcotest.test_case "wrapping accesses trap" `Quick test_oracle_wrapping_accesses_trap;
          Alcotest.test_case "oversized globals exhaust" `Quick test_oracle_oversized_globals ] );
      ( "shrink",
        [ Alcotest.test_case "synthetic predicate minimal" `Quick
            test_shrink_synthetic_predicate;
          Alcotest.test_case "non-failing input unchanged" `Quick test_shrink_non_failing_input;
          Alcotest.test_case "budget respected" `Quick test_shrink_respects_budget ] );
      ( "corpus",
        [ Alcotest.test_case "round-trip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "escape kind round-trip" `Quick test_corpus_escape_kind_roundtrip;
          Alcotest.test_case "save/load/list" `Quick test_corpus_save_load_list;
          Alcotest.test_case "rejects garbage" `Quick test_corpus_rejects_garbage ] );
      ( "inject",
        [ Alcotest.test_case "wire regions fully detected" `Slow test_inject_wire_all_detected;
          Alcotest.test_case "key flips never validate" `Slow test_inject_key_never_validates;
          Alcotest.test_case "empty region is an error" `Quick test_inject_empty_region_is_error;
          Alcotest.test_case "DRAM guard coverage" `Slow test_inject_dram_guard_coverage;
          Alcotest.test_case "escape replay" `Slow test_inject_escape_replay;
          Alcotest.test_case "JSON stable" `Slow test_inject_json_stable;
          Alcotest.test_case "region names round-trip" `Quick test_inject_region_names ] );
      ( "fuzz",
        [ Alcotest.test_case "small clean campaign" `Slow test_fuzz_small_campaign_clean;
          Alcotest.test_case "deterministic" `Slow test_fuzz_deterministic ] ) ]
