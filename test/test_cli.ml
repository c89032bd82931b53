(* End-to-end checks that eric_cli fails *cleanly* on malformed input:
   a clear "error: ..." line on stderr and a non-zero exit code, never an
   uncaught exception trace. Runs the real executable via Sys.command. *)

let check = Alcotest.check

(* Under `dune runtest` the cwd is _build/default/test; under a direct
   `dune exec test/test_cli.exe` it is the workspace root. *)
let cli =
  let candidates =
    [ Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/eric_cli.exe";
      "_build/default/bin/eric_cli.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.fail "eric_cli.exe not built"

(* An example source: next to the test directory under `dune runtest`,
   under the workspace root for a direct run. *)
let example name =
  let candidates = [ Filename.concat "../examples" name; Filename.concat "examples" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "example %s not found" name

let with_tmp f =
  let path = Filename.temp_file "eric_cli_test" ".bin" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* A fresh path for a directory the CLI creates (a sharded registry). *)
let with_tmp_dir f =
  let dir = Filename.temp_file "eric_cli_test" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let slurp path = In_channel.with_open_bin path In_channel.input_all

let write path (bytes : bytes) =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc bytes)

(* Run the CLI, returning (exit_code, stderr), with [env]'s variables
   set. Quoting is fine here: every argument we pass is a temp-file path
   or a plain flag. *)
let run_cli ?(env = []) args =
  with_tmp (fun err_file ->
      let cmd =
        Printf.sprintf "%s%s %s 2> %s"
          (String.concat "" (List.map (fun (k, v) -> k ^ "=" ^ Filename.quote v ^ " ") env))
          (Filename.quote cli)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote err_file)
      in
      let code = Sys.command cmd in
      let ic = open_in_bin err_file in
      let err =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, err))

let expect_no_exception_trace what err =
  check Alcotest.bool (what ^ ": no exception trace") false
    (List.exists
       (fun marker ->
         let rec contains i =
           i + String.length marker <= String.length err
           && (String.sub err i (String.length marker) = marker || contains (i + 1))
         in
         contains 0)
       [ "Fatal error"; "Raised at"; "Backtrace"; "uncaught exception" ])

let expect_clean_failure what (code, err) =
  check Alcotest.bool (what ^ ": non-zero exit") true (code <> 0);
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  check Alcotest.bool (what ^ ": stderr starts with 'error:'") true (starts_with "error:" err);
  expect_no_exception_trace what err

let save_registry reg path =
  match Eric_fleet.Registry.save reg path with Ok () -> () | Error e -> Alcotest.fail e

let make_registry path n =
  let reg = Eric_fleet.Registry.create () in
  for i = 1 to n do
    match Eric_fleet.Registry.enroll reg (Int64.of_int (7_000 + i)) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  save_registry reg path;
  reg

(* Every file of a registry (the file itself, or a directory's
   manifest and shards) with its bytes. *)
let snapshot path =
  let files =
    if Sys.is_directory path then
      List.map (Filename.concat path) (List.sort compare (Array.to_list (Sys.readdir path)))
    else [ path ]
  in
  List.map (fun f -> (f, slurp f)) files

(* A 3-device file, or a 40-device fleet migrated into 4 shards; [f]
   gets the registry path and the file to damage. *)
let with_layout ~sharded f =
  with_tmp (fun file ->
      if not sharded then begin
        ignore (make_registry file 3);
        f file file
      end
      else begin
        ignore (make_registry file 40);
        with_tmp_dir (fun dir ->
            let code, err =
              run_cli
                [ "fleet"; "shard"; "migrate"; "--registry"; file; "--dir"; dir; "--shards"; "4" ]
            in
            check Alcotest.int ("migrate: " ^ err) 0 code;
            f dir (Filename.concat dir "shard-0002.efrg"))
      end)

let test_truncated_registry () =
  with_tmp (fun src ->
      write src (Bytes.of_string "int main() { return 0; }");
      List.iter
        (fun (layout, sharded) ->
          List.iter
            (fun (cut_name, cut) ->
              with_layout ~sharded (fun path victim ->
                  write victim (cut (Bytes.of_string (slurp victim)));
                  let before = snapshot path in
                  List.iter
                    (fun cmd ->
                      let what =
                        Printf.sprintf "truncated %s registry (%s), fleet %s" layout cut_name
                          (List.hd cmd)
                      in
                      let code, err = run_cli (("fleet" :: cmd) @ [ "--registry"; path ]) in
                      expect_clean_failure what (code, err);
                      check Alcotest.int (what ^ ": exit 1") 1 code;
                      check
                        Alcotest.(list (pair string string))
                        (what ^ ": every file unchanged") before (snapshot path))
                    [ [ "status" ]; [ "campaign"; src ]; [ "rotate"; "--epoch"; "2" ]; [ "reenroll" ] ]))
            (* cut mid-record, the shape a crashed writer or bad copy
               leaves, and to a 40-byte prefix *)
            [ ("tail cut", fun b -> Bytes.sub b 0 (Bytes.length b - 7));
              ("40-byte prefix", fun b -> Bytes.sub b 0 40) ])
        [ ("file", false); ("sharded", true) ])

let test_corrupt_registry_magic () =
  with_tmp (fun path ->
      ignore (make_registry path 1);
      let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      Bytes.set full 0 'X';
      write path full;
      expect_clean_failure "bad registry magic"
        (run_cli [ "fleet"; "status"; "--registry"; path ]))

let test_missing_registry () =
  let code, err = run_cli [ "fleet"; "status"; "--registry"; "/nonexistent/fleet.efrg" ] in
  expect_clean_failure "missing registry" (code, err);
  let rec contains i =
    let m = "does not exist" in
    i + String.length m <= String.length err
    && (String.sub err i (String.length m) = m || contains (i + 1))
  in
  check Alcotest.bool "message says what to do" true (contains 0)

let test_garbage_package () =
  with_tmp (fun path ->
      write path (Bytes.of_string "this is not a package");
      expect_clean_failure "garbage package" (run_cli [ "run"; path ]))

let test_truncated_package () =
  with_tmp (fun path ->
      let key = Eric.Target.derived_key (Eric.Target.of_id 808L) in
      let build =
        match
          Eric.Source.build ~mode:Eric.Config.Full ~key
            "int main() { println_int(1); return 0; }"
        with
        | Ok b -> b
        | Error e -> Alcotest.fail e
      in
      let wire = Eric.Package.serialize build.Eric.Source.package in
      write path (Bytes.sub wire 0 (Bytes.length wire / 2));
      expect_clean_failure "truncated package" (run_cli [ "run"; path ]))

(* Every output under a missing directory: an "error:" line and exit 1,
   never an uncaught Sys_error. *)
let test_unwritable_outputs () =
  with_tmp (fun src ->
      with_tmp (fun registry ->
          write src (Bytes.of_string "int main() { return 0; }");
          ignore (make_registry registry 2);
          with_tmp_dir (fun missing ->
              let under name = Filename.concat missing name in
              List.iter
                (fun (what, args) ->
                  let code, err = run_cli args in
                  expect_clean_failure what (code, err);
                  check Alcotest.int (what ^ ": exit 1") 1 code;
                  check Alcotest.bool (what ^ ": nothing created") false (Sys.file_exists missing))
                [ ("compile -o", [ "compile"; example "hello.c"; "-o"; under "x.rexe" ]);
                  ( "fleet enroll --registry",
                    [ "fleet"; "enroll"; "--registry"; under "f.efrg"; "--factory"; "--quiet" ] );
                  ( "fleet campaign --report-out",
                    [ "fleet"; "campaign"; src; "--registry"; registry;
                      "--report-out"; under "r.json" ] );
                  ( "fleet campaign --cache-dir",
                    [ "fleet"; "campaign"; src; "--registry"; registry;
                      "--cache-dir"; under "cache" ] );
                  ( "serve run --cache-dir",
                    [ "serve"; "run"; "--scenario"; "steady"; "--duration"; "1";
                      "--cache-dir"; under "cache" ] ) ])))

(* An unwritable --report-out is refused before the campaign stamps any
   firmware epoch: exit 1 with the registry byte-identical, no temp file
   left.  A disk tier under a regular file (ENOTDIR, even for root) is
   refused by the serve loop the same way. *)
let test_unwritable_report_keeps_registry () =
  with_tmp (fun src ->
      with_tmp (fun registry ->
          write src (Bytes.of_string "int main() { return 0; }");
          ignore (make_registry registry 3);
          let before = slurp registry in
          with_tmp_dir (fun missing ->
              let code, err =
                run_cli
                  [ "fleet"; "campaign"; src; "--registry"; registry; "--report-out";
                    Filename.concat missing "r.json" ]
              in
              expect_clean_failure "campaign --report-out" (code, err);
              check Alcotest.int "exit 1" 1 code;
              check Alcotest.bool "registry byte-identical" true
                (String.equal before (slurp registry));
              check Alcotest.bool "nothing created" false (Sys.file_exists missing));
          let code, err =
            run_cli
              [ "serve"; "run"; "--scenario"; "steady"; "--duration"; "1"; "--cache-dir";
                Filename.concat src "cache" ]
          in
          expect_clean_failure "serve run --cache-dir under a file" (code, err);
          check Alcotest.int "serve: exit 1" 1 code))

(* ------------------------------------------------------------------ *)
(* Exit codes: each failure class maps to its documented code          *)
(*   1 internal, 3 failures found, 4 malformed input, 5 refused        *)
(* ------------------------------------------------------------------ *)

let expect_code what expected (code, err) =
  expect_clean_failure what (code, err);
  check Alcotest.int (what ^ ": exit code") expected code

let test_exit_code_malformed () =
  with_tmp (fun path ->
      write path (Bytes.of_string "this is not a package");
      expect_code "garbage run" 4 (run_cli [ "run"; path ]);
      expect_code "garbage inspect" 4 (run_cli [ "inspect"; path ]);
      expect_code "garbage disasm" 4 (run_cli [ "disasm"; path ]))

let build_package ~device_id source =
  let key = Eric.Target.derived_key (Eric.Target.of_id device_id) in
  match Eric.Source.build ~mode:Eric.Config.Full ~key source with
  | Ok b -> Eric.Package.serialize b.Eric.Source.package
  | Error e -> Alcotest.fail e

let test_exit_code_refused () =
  with_tmp (fun path ->
      (* valid package, wrong device: the HDE refuses the signature -> 5 *)
      write path (build_package ~device_id:808L "int main() { println_int(1); return 0; }");
      expect_code "wrong device" 5 (run_cli [ "run"; path; "--device-id"; "809" ]))

let test_exit_code_truncated_is_malformed () =
  with_tmp (fun path ->
      let wire = build_package ~device_id:808L "int main() { println_int(1); return 0; }" in
      write path (Bytes.sub wire 0 (Bytes.length wire / 2));
      expect_code "truncated package" 4 (run_cli [ "run"; path; "--device-id"; "808" ]))

let test_exit_code_program_exit_passthrough () =
  with_tmp (fun path ->
      write path (build_package ~device_id:808L "int main() { return 42; }");
      let code, _ = run_cli [ "run"; path; "--device-id"; "808" ] in
      check Alcotest.int "program exit code passes through" 42 code)

let test_exit_code_internal () =
  with_tmp (fun path ->
      write path (Bytes.of_string "int main() { return syntax error here; }");
      (* compile failure is an internal-error class, not malformed input *)
      let path_mc = path ^ ".mc" in
      Sys.rename path path_mc;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path_mc then Sys.remove path_mc)
        (fun () -> expect_code "compile error" 1 (run_cli [ "compile"; path_mc ])))

let test_compile_error_position () =
  (* positions count from the source's first line, not the prelude's *)
  with_tmp (fun path ->
      write path (Bytes.of_string "int main() {\n  return x;\n}\n");
      let code, err = run_cli [ "compile"; path ] in
      check Alcotest.int "exit code" 1 code;
      check Alcotest.string "diagnostic" "error: 2:10: undefined variable x\n" err)

let test_literal_out_of_range () =
  (* a lexer error like any other, not an escaping Int64.of_string *)
  with_tmp (fun path ->
      write path (Bytes.of_string "int main() {\n  return 9223372036854775808;\n}\n");
      List.iter
        (fun cmd ->
          let code, err = run_cli (cmd :: path :: (if cmd = "build" then [ "-o"; path ^ ".epkg" ] else [])) in
          check Alcotest.int (cmd ^ ": exit code") 1 code;
          check Alcotest.string (cmd ^ ": diagnostic")
            "error: 2:10: integer literal out of range\n" err)
        [ "compile"; "build" ])

(* ------------------------------------------------------------------ *)
(* verif subcommands through the real binary                           *)
(* ------------------------------------------------------------------ *)

let test_verif_fuzz_smoke () =
  let code, err = run_cli [ "verif"; "fuzz"; "--count"; "15"; "--quiet" ] in
  check Alcotest.int "verif fuzz clean run" 0 code;
  check Alcotest.bool "no error output" false
    (String.length err >= 6 && String.sub err 0 6 = "error:")

let test_verif_inject_smoke () =
  let code, _ =
    run_cli [ "verif"; "inject"; "--region"; "signature,payload,map"; "--count"; "60" ]
  in
  check Alcotest.int "wire injections all detected" 0 code

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_verif_inject_guard_json_out () =
  (* the CI guard-smoke invocation: guarded dram campaign, JSON artifact
     written via --out, coverage gated via --min-coverage *)
  with_tmp (fun out ->
      let code, err =
        run_cli
          [ "verif"; "inject"; "--regions"; "dram"; "--count"; "80";
            "--guard"; "fetch+scrub:256"; "--json"; "--out"; out;
            "--min-coverage"; "99" ]
      in
      check Alcotest.int "guarded dram campaign passes the gate" 0 code;
      check Alcotest.bool "no error output" false
        (String.length err >= 6 && String.sub err 0 6 = "error:");
      let artifact = read_file out in
      check Alcotest.bool "artifact written" true (String.length artifact > 0);
      check Alcotest.bool "artifact is the JSON report" true
        (String.length artifact > 0 && artifact.[0] = '{'))

let test_verif_inject_min_coverage_gate () =
  (* unguarded dram leaks silent corruption, so the same gate must trip *)
  let code, _ =
    run_cli
      [ "verif"; "inject"; "--regions"; "dram"; "--count"; "80";
        "--min-coverage"; "99" ]
  in
  check Alcotest.int "unguarded dram fails the gate" 3 code

let test_verif_inject_guard_sweep () =
  let code, err =
    run_cli
      [ "verif"; "inject"; "--regions"; "dram"; "--count"; "40";
        "--guard-sweep"; "off,scrub:256"; "--json" ]
  in
  check Alcotest.int "sweep runs clean" 0 code;
  check Alcotest.bool "no error output" false
    (String.length err >= 6 && String.sub err 0 6 = "error:")

let test_verif_inject_bad_guard_mechanism () =
  let code, _ =
    run_cli [ "verif"; "inject"; "--guard"; "scrub:banana"; "--count"; "5" ]
  in
  check Alcotest.bool "malformed guard mechanism refused" true (code <> 0)

let test_verif_corpus_empty () =
  let dir = Filename.temp_file "eric_corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      let code, _ = run_cli [ "verif"; "corpus"; dir ] in
      check Alcotest.int "empty corpus is fine" 0 code)

(* A divergence reproducer whose interpreter path runs out of fuel while
   both machine paths exit 0: an exhausted report is not evidence of a
   bug, so shrink leaves the file alone and replay reports no
   divergence. *)
let test_verif_exhausted_repro_not_divergence () =
  with_tmp_dir (fun dir ->
      let prog = Eric_verif.Gen.of_trace [||] in
      let entry =
        { Eric_verif.Corpus.kind = Eric_verif.Corpus.Divergence;
          seed = 0L;
          trace = prog.Eric_verif.Gen.trace;
          source = prog.Eric_verif.Gen.source;
          note = "fuel artifact" }
      in
      let file =
        match Eric_verif.Corpus.save ~dir entry with Ok p -> p | Error e -> Alcotest.fail e
      in
      let before = slurp file in
      let code, err = run_cli [ "verif"; "shrink"; file; "--fuel"; "20" ] in
      check Alcotest.int ("shrink exits 0: " ^ err) 0 code;
      check Alcotest.string "reproducer unchanged" before (slurp file);
      let code, err = run_cli [ "verif"; "corpus"; dir; "--replay"; "--fuel"; "20" ] in
      check Alcotest.int ("replay exits 0: " ^ err) 0 code)

(* ------------------------------------------------------------------ *)
(* puf subcommands: device-id parsing and metrics                      *)
(* ------------------------------------------------------------------ *)

let test_puf_hex_device_id () =
  (* decimal and 0x-prefixed hex must name the same device *)
  let dec, _ = run_cli [ "puf"; "--device-id"; "42" ] in
  let hex, _ = run_cli [ "puf"; "--device-id"; "0x2A" ] in
  check Alcotest.int "decimal id accepted" 0 dec;
  check Alcotest.int "hex id accepted" 0 hex

let test_puf_malformed_device_id () =
  expect_code "garbage device id" 4 (run_cli [ "puf"; "--device-id"; "not-a-number" ]);
  expect_code "trailing junk" 4 (run_cli [ "puf"; "--device-id"; "12abc" ]);
  expect_code "run with bad id" 4
    (run_cli [ "run"; "/dev/null"; "--device-id"; "0xZZ" ])

let test_puf_metrics_smoke () =
  let code, err =
    run_cli
      [ "puf"; "metrics"; "--devices"; "4"; "--challenges"; "16"; "--reeval"; "4";
        "--corner"; "cold-lowv" ]
  in
  check Alcotest.int "metrics at a corner" 0 code;
  check Alcotest.bool "no error output" false
    (String.length err >= 6 && String.sub err 0 6 = "error:")

let test_puf_unknown_corner () =
  let code, _ = run_cli [ "puf"; "metrics"; "--corner"; "volcano" ] in
  (* cmdliner usage errors exit 124 by its convention for conv failures *)
  check Alcotest.bool "unknown corner refused" true (code <> 0)

(* ------------------------------------------------------------------ *)
(* fleet reenroll + verif env through the real binary                  *)
(* ------------------------------------------------------------------ *)

let test_fleet_reenroll_smoke () =
  with_tmp (fun path ->
      ignore (make_registry path 2);
      let code, err = run_cli [ "fleet"; "reenroll"; "--registry"; path ] in
      check Alcotest.int "reenroll clean run" 0 code;
      check Alcotest.bool "no error output" false
        (String.length err >= 6 && String.sub err 0 6 = "error:");
      (* the surveyed registry must still load *)
      match Eric_fleet.Registry.load path with
      | Ok reg -> check Alcotest.int "registry intact" 2 (Eric_fleet.Registry.count reg)
      | Error e -> Alcotest.fail e)

let test_verif_env_smoke () =
  with_tmp (fun out ->
      let code, _ =
        run_cli
          [ "verif"; "env"; "--devices"; "3"; "--boots"; "10"; "--out"; out ]
      in
      check Alcotest.int "sweep passes" 0 code;
      let json = In_channel.with_open_bin out In_channel.input_all in
      let contains needle =
        let n = String.length needle and h = String.length json in
        let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "report written" true (String.length json > 0);
      check Alcotest.bool "names the suite" true (contains {|"suite":"env_sweep"|});
      check Alcotest.bool "covers the stress corner" true (contains {|"corner":"cold-lowv"|});
      check Alcotest.bool "reports pass/fail" true (contains {|"passed":true|}))

let contains_str haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_serve_scenarios_lists_presets () =
  let code, err = run_cli [ "serve"; "scenarios" ] in
  check Alcotest.int "clean exit" 0 code;
  check Alcotest.bool "no error output" false (contains_str err "error:")

let test_serve_run_smoke_deterministic () =
  (* two short flash-crowd runs with one seed must write byte-identical
     JSON reports — the CLI-level acceptance criterion *)
  let report seed_out =
    let code, err =
      run_cli
        [ "serve"; "run"; "--scenario"; "flash-crowd"; "--seed"; "123"; "--duration";
          "2"; "--out"; seed_out ]
    in
    check Alcotest.int "clean exit" 0 code;
    check Alcotest.bool "no error output" false (contains_str err "error:");
    In_channel.with_open_bin seed_out In_channel.input_all
  in
  with_tmp (fun out1 ->
      with_tmp (fun out2 ->
          let a = report out1 and b = report out2 in
          check Alcotest.bool "report non-empty" true (String.length a > 0);
          check Alcotest.string "identical reports across runs" a b;
          check Alcotest.bool "json has scenario field" true
            (contains_str a "\"scenario\":\"flash-crowd\"");
          check Alcotest.bool "json has latency family" true
            (contains_str a "\"latency_ms\"")))

let test_serve_slo_error_exit_code () =
  (* 20x the steady rate swamps two servers: the refusal budget blows
     and --slo-error must turn that into exit 3 *)
  let code, _ =
    run_cli
      [ "serve"; "run"; "--scenario"; "steady"; "--seed"; "1"; "--duration"; "2";
        "--rate-scale"; "20"; "--slo-error" ]
  in
  check Alcotest.int "blown SLO exits 3" 3 code

(* Run the CLI capturing stdout as well (the obf-metadata report of
   `lint <pkg>` goes to stdout, the error to stderr). *)
let run_cli_capture args =
  with_tmp (fun out_file ->
      with_tmp (fun err_file ->
          let cmd =
            Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli)
              (String.concat " " (List.map Filename.quote args))
              (Filename.quote out_file) (Filename.quote err_file)
          in
          let code = Sys.command cmd in
          (code, slurp out_file, slurp err_file)))

(* enroll -> campaign -> rotate -> reenroll -> status on 12 factory
   devices in 4 shards, and on 25 screened devices in one file whose
   campaign crosses a channel that flips bits in 40% of sends, so every
   delivery past the first failure rests on the shipper's retries. *)
let test_fleet_sharded_round_trip () =
  let in_one_file f = with_tmp (fun path -> Sys.remove path; f path) in
  with_tmp (fun src ->
      write src (Bytes.of_string "int main() { println_int(7); return 0; }");
      List.iter
        (fun (with_registry, enroll, campaign, devices, summary) ->
          with_registry (fun registry ->
              let fleet args =
                let code, out, err =
                  run_cli_capture (("fleet" :: args) @ [ "--registry"; registry ])
                in
                check Alcotest.int (List.hd args ^ " exits 0: " ^ err) 0 code;
                out
              in
              ignore (fleet ("enroll" :: enroll));
              ignore (fleet ("campaign" :: campaign));
              ignore (fleet [ "rotate"; "--epoch"; "2" ]);
              ignore (fleet [ "reenroll" ]);
              let out = fleet [ "status"; "--devices" ] in
              let lines = String.split_on_char '\n' out in
              check Alcotest.int "every device rotated, stamped and upgraded" devices
                (List.length
                   (List.filter
                      (fun l ->
                        contains_str l "epoch 2  label \"eric\"  firmware 1  active  helper")
                      lines));
              check Alcotest.bool "fleet summary" true (contains_str out summary)))
        [ ( with_tmp_dir,
            [ "--count"; "12"; "--start-id"; "500"; "--shards"; "4"; "--factory"; "--quiet" ],
            [ src ],
            12,
            "12 device(s) in 4 shard(s), 12 active, 0 quarantined" );
          ( in_one_file,
            [ "--count"; "25"; "--start-id"; "100" ],
            [ example "checksum.c"; "--channel"; "flaky:0.4:7"; "--telemetry"; "table" ],
            25,
            "25 device(s), 25 active, 0 quarantined" ) ])

(* Factory enrollment at fleet scale: 2000 devices into 16 shards. *)
let test_fleet_factory_enroll_at_scale () =
  with_tmp_dir (fun dir ->
      let fleet args =
        let code, out, err = run_cli_capture (("fleet" :: args) @ [ "--registry"; dir ]) in
        check Alcotest.int (List.hd args ^ " exits 0: " ^ err) 0 code;
        out
      in
      ignore
        (fleet
           [ "enroll"; "--count"; "2000"; "--start-id"; "4096"; "--factory"; "--shards"; "16";
             "--quiet" ]);
      check Alcotest.bool "2000 devices in 16 shards" true
        (contains_str (fleet [ "status" ])
           "2000 device(s) in 16 shard(s), 2000 active, 0 quarantined"))

let test_fleet_report_layout_independent () =
  (* the same campaign on a fleet file, on its 4-shard migration and on a
     second migration under the domain scheduler *)
  with_tmp (fun file ->
      with_tmp (fun src ->
          with_tmp (fun report_file ->
              with_tmp (fun report_dir ->
                  with_tmp (fun report_dom ->
                      with_tmp_dir (fun dir ->
                          with_tmp_dir (fun dir_dom ->
                              ignore (make_registry file 12);
                              write src
                                (Bytes.of_string "int main() { println_int(7); return 0; }");
                              List.iter
                                (fun d ->
                                  let code, _ =
                                    run_cli
                                      [ "fleet"; "shard"; "migrate"; "--registry"; file; "--dir";
                                        d; "--shards"; "4" ]
                                  in
                                  check Alcotest.int "migrate" 0 code)
                                [ dir; dir_dom ];
                              let campaign registry out extra =
                                fst
                                  (run_cli
                                     ([ "fleet"; "campaign"; src; "--registry"; registry;
                                        "--channel"; "drop-first:1"; "--report-out"; out ]
                                     @ extra))
                              in
                              check Alcotest.int "file campaign" 0 (campaign file report_file []);
                              check Alcotest.int "sharded campaign" 0
                                (campaign dir report_dir []);
                              check Alcotest.int "sharded campaign under domains" 0
                                (campaign dir_dom report_dom [ "--scheduler"; "domains" ]);
                              check Alcotest.string "identical report bytes" (slurp report_file)
                                (slurp report_dir);
                              check Alcotest.string "identical report bytes across schedulers"
                                (slurp report_file) (slurp report_dom))))))))

(* A 12-device fleet whose device 9011 has one tag byte of its helper
   data flipped, so its key no longer reconstructs, migrated into 4
   shards: the rotation fails that device alone. *)
let test_fleet_rotate_keyless_device () =
  with_tmp (fun file ->
      with_tmp_dir (fun dir ->
          let reg = Eric_fleet.Registry.create () in
          for i = 0 to 11 do
            match Eric_fleet.Registry.enroll reg (Int64.of_int (9_000 + i)) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e
          done;
          (match Eric_fleet.Registry.find reg 9_011L with
          | Some ({ Eric_fleet.Registry.helper = Some h; _ } as e) ->
            let tag = Bytes.copy h.Eric_puf.Enroll.tag in
            Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
            Eric_fleet.Registry.update reg
              { e with Eric_fleet.Registry.helper = Some { h with Eric_puf.Enroll.tag } }
          | _ -> Alcotest.fail "device 9011 has no helper data");
          save_registry reg file;
          let code, err =
            run_cli [ "fleet"; "shard"; "migrate"; "--registry"; file; "--dir"; dir; "--shards"; "4" ]
          in
          check Alcotest.int ("migrate: " ^ err) 0 code;
          let status () =
            let code, out, _ =
              run_cli_capture [ "fleet"; "status"; "--devices"; "--registry"; dir ]
            in
            check Alcotest.int "status" 0 code;
            String.split_on_char '\n' out
          in
          let victim lines = List.filter (fun l -> contains_str l "device 9011  ") lines in
          let before = victim (status ()) in
          check Alcotest.int "the victim is listed" 1 (List.length before);
          let code, out, err =
            run_cli_capture [ "fleet"; "rotate"; "--epoch"; "2"; "--registry"; dir ]
          in
          expect_no_exception_trace "rotate" err;
          check Alcotest.int "rotation with a failed device exits 3" 3 code;
          check Alcotest.bool "the report names the victim" true
            (contains_str out "device 9011: ");
          let after = status () in
          check Alcotest.int "every other device at epoch 2" 11
            (List.length (List.filter (fun l -> contains_str l "  epoch 2  ") after));
          check Alcotest.(list string) "the victim untouched, at its old epoch" before
            (victim after)))

(* A scheduler --scheduler cannot parse is a usage error, refused before
   any registry file is touched. *)
let test_fleet_bad_scheduler_refused () =
  with_tmp (fun src ->
      with_tmp (fun path ->
          write src (Bytes.of_string "int main() { return 0; }");
          ignore (make_registry path 2);
          let before = snapshot path in
          List.iter
            (fun cmd ->
              List.iter
                (fun scheduler ->
                  let what = Printf.sprintf "fleet %s %s" (List.hd cmd) scheduler in
                  let code, err =
                    run_cli (("fleet" :: cmd) @ [ scheduler; "--registry"; path ])
                  in
                  check Alcotest.bool (what ^ ": non-zero exit") true (code <> 0);
                  expect_no_exception_trace what err;
                  check
                    Alcotest.(list (pair string string))
                    (what ^ ": registry unchanged") before (snapshot path))
                [ "--scheduler=bogus"; "--scheduler=domains:0" ])
            [ [ "campaign"; src ]; [ "rotate"; "--epoch"; "2" ]; [ "reenroll" ] ]))

let test_build_unknown_obf_pass_exit_4 () =
  with_tmp (fun src ->
      write src (Bytes.of_string "int main() { return 0; }");
      let code, err = run_cli [ "build"; src; "--obfuscate"; "flatten,bogus" ] in
      check Alcotest.int "unknown pass is exit 4" 4 code;
      check Alcotest.bool "error names the pass" true (contains_str err "bogus"))

let test_lint_package_reports_obf_passes () =
  with_tmp (fun src ->
      with_tmp (fun pkg ->
          write src (Bytes.of_string "int main() { println_int(7); return 0; }");
          let code, _, _ =
            run_cli_capture
              [ "build"; src; "-o"; pkg; "--obfuscate"; "opaque,constants" ]
          in
          check Alcotest.int "obfuscated build succeeds" 0 code;
          let code, out, err = run_cli_capture [ "lint"; pkg ] in
          check Alcotest.bool "package still refuses lint" true (code <> 0);
          check Alcotest.bool "stdout names the passes" true
            (contains_str out "package obfuscation: passes constants,opaque");
          check Alcotest.bool "stderr explains the refusal" true
            (contains_str err "cannot lint an encrypted package")))

(* Both examples under full encryption, then every workload against the
   recursive attacker: full encryption at --max-leakage 0.1 with warnings
   as errors, 50% partial encryption at 0.75. *)
let test_lint_examples_and_workloads () =
  List.iter
    (fun args ->
      let code, out, err = run_cli_capture ("lint" :: args) in
      check Alcotest.int
        (Printf.sprintf "lint %s exits 0:\n%s%s" (String.concat " " args) out err)
        0 code)
    [ [ example "hello.c"; "--mode"; "full"; "--lint-error" ];
      [ example "checksum.c"; "--mode"; "full"; "--lint-error" ];
      [ "--workloads"; "--mode"; "full"; "--attacker=recursive"; "--max-leakage"; "0.1";
        "--lint-error" ];
      [ "--workloads"; "--mode"; "partial:0.5"; "--attacker=recursive"; "--max-leakage";
        "0.75" ] ]

let test_serve_unknown_scenario_usage_error () =
  let code, err = run_cli [ "serve"; "run"; "--scenario"; "nope" ] in
  check Alcotest.bool "non-zero exit" true (code <> 0);
  check Alcotest.bool "error names the candidates" true (contains_str err "steady")

(* Hash-table randomization must not reach the image: the register
   allocator orders ties as a table's fold would, and a real table there
   would leak [OCAMLRUNPARAM=R] into every image. *)
let test_images_ignore_hash_randomization () =
  List.iter
    (fun name ->
      let image env =
        with_tmp (fun out ->
            let code, err = run_cli ~env [ "compile"; example name; "-o"; out ] in
            check Alcotest.int (name ^ ": compiles") 0 code;
            expect_no_exception_trace name err;
            Digest.to_hex (Digest.file out))
      in
      (* Empty, in case the suite itself runs under R. *)
      let plain = image [ ("OCAMLRUNPARAM", "") ] in
      for run = 1 to 4 do
        check Alcotest.string
          (Printf.sprintf "%s: run %d under OCAMLRUNPARAM=R" name run)
          plain
          (image [ ("OCAMLRUNPARAM", "R") ])
      done)
    [ "checksum.c"; "hello.c" ]

let () =
  Alcotest.run "eric_cli"
    [ ( "malformed-input",
        [ Alcotest.test_case "truncated registry" `Quick test_truncated_registry;
          Alcotest.test_case "corrupt registry magic" `Quick test_corrupt_registry_magic;
          Alcotest.test_case "missing registry" `Quick test_missing_registry;
          Alcotest.test_case "garbage package" `Quick test_garbage_package;
          Alcotest.test_case "truncated package" `Quick test_truncated_package;
          Alcotest.test_case "unwritable outputs exit 1" `Quick test_unwritable_outputs;
          Alcotest.test_case "report path checked first" `Quick
            test_unwritable_report_keeps_registry ] );
      ( "exit-codes",
        [ Alcotest.test_case "malformed input is 4" `Quick test_exit_code_malformed;
          Alcotest.test_case "validation refusal is 5" `Quick test_exit_code_refused;
          Alcotest.test_case "truncated package is 4" `Quick test_exit_code_truncated_is_malformed;
          Alcotest.test_case "program exit passes through" `Quick
            test_exit_code_program_exit_passthrough;
          Alcotest.test_case "internal error is 1" `Quick test_exit_code_internal;
          Alcotest.test_case "compile error names the source line" `Quick
            test_compile_error_position;
          Alcotest.test_case "out-of-range literal is a compile error" `Quick
            test_literal_out_of_range ] );
      ( "puf",
        [ Alcotest.test_case "hex device id" `Quick test_puf_hex_device_id;
          Alcotest.test_case "malformed device id is 4" `Quick test_puf_malformed_device_id;
          Alcotest.test_case "metrics smoke" `Quick test_puf_metrics_smoke;
          Alcotest.test_case "unknown corner refused" `Quick test_puf_unknown_corner ] );
      ( "fleet",
        [ Alcotest.test_case "reenroll smoke" `Quick test_fleet_reenroll_smoke;
          Alcotest.test_case "sharded round trip" `Quick test_fleet_sharded_round_trip;
          Alcotest.test_case "report independent of layout" `Quick
            test_fleet_report_layout_independent;
          Alcotest.test_case "keyless device fails its own rotation" `Quick
            test_fleet_rotate_keyless_device;
          Alcotest.test_case "bad scheduler refused" `Quick test_fleet_bad_scheduler_refused;
          Alcotest.test_case "factory enrollment at scale" `Quick
            test_fleet_factory_enroll_at_scale ] );
      ( "lint",
        [ Alcotest.test_case "examples and workloads pass" `Quick
            test_lint_examples_and_workloads ] );
      ( "obfuscate",
        [ Alcotest.test_case "unknown pass is 4" `Quick test_build_unknown_obf_pass_exit_4;
          Alcotest.test_case "lint reports package passes" `Quick
            test_lint_package_reports_obf_passes ] );
      ( "serve",
        [ Alcotest.test_case "scenarios lists presets" `Quick test_serve_scenarios_lists_presets;
          Alcotest.test_case "run smoke is deterministic" `Quick
            test_serve_run_smoke_deterministic;
          Alcotest.test_case "slo-error exits 3" `Quick test_serve_slo_error_exit_code;
          Alcotest.test_case "unknown scenario refused" `Quick
            test_serve_unknown_scenario_usage_error ] );
      ( "verif",
        [ Alcotest.test_case "fuzz smoke" `Quick test_verif_fuzz_smoke;
          Alcotest.test_case "inject smoke" `Quick test_verif_inject_smoke;
          Alcotest.test_case "inject guard json/out" `Quick test_verif_inject_guard_json_out;
          Alcotest.test_case "inject min-coverage gate" `Quick
            test_verif_inject_min_coverage_gate;
          Alcotest.test_case "inject guard sweep" `Quick test_verif_inject_guard_sweep;
          Alcotest.test_case "inject bad guard mechanism" `Quick
            test_verif_inject_bad_guard_mechanism;
          Alcotest.test_case "empty corpus" `Quick test_verif_corpus_empty;
          Alcotest.test_case "env sweep smoke" `Quick test_verif_env_smoke;
          Alcotest.test_case "exhausted repro is no divergence" `Quick
            test_verif_exhausted_repro_not_divergence ] );
      ( "reproducibility",
        [ Alcotest.test_case "images ignore OCAMLRUNPARAM=R" `Quick
            test_images_ignore_hash_randomization ] ) ]
