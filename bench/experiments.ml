(* The paper's evaluation, regenerated: Table I (environment), Table II
   (FPGA area), Fig 5 (package size), Fig 6 (compile time), Fig 7
   (end-to-end execution time), plus ablations beyond the paper. *)

let device_id = 0xE51CL

let target = lazy (Eric.Target.of_id device_id)
let device_key () = Eric.Target.derived_key (Lazy.force target)

let compile_suite pick =
  List.map
    (fun (w : Eric_workloads.Workloads.t) ->
      match Eric_cc.Driver.compile (pick w) with
      | Ok image -> (w, image)
      | Error e -> failwith (w.name ^ ": " ^ e))
    Eric_workloads.Workloads.all

let compiled = lazy (compile_suite (fun w -> w.Eric_workloads.Workloads.source))

(* MiBench-style "small" datasets: short enough runs that load-time costs
   are visible, as on the paper's 25 MHz FPGA. *)
let compiled_small = lazy (compile_suite (fun w -> w.Eric_workloads.Workloads.source_small))

let partial_mode = Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 0xF16L })

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Report.heading "Table I: Test environment (simulated counterparts of the paper's setup)";
  let cache = Eric_sim.Cache.table1_config in
  let puf = Eric_puf.Arbiter.default_params in
  let hde = Eric_hw.Hde.default_config in
  Report.table
    ~header:[ "Parameter"; "Value" ]
    [ [ "Platform"; "cycle-approximate SoC model (stands in for Xilinx Zedboard)" ];
      [ "PUF Type"; "Arbiter PUF (Monte-Carlo delay model)" ];
      [ "PUF Parameters";
        Printf.sprintf "32x %d-bit challenge 1-bit response" puf.Eric_puf.Arbiter.stages ];
      [ "Signature Function"; "SHA-256" ];
      [ "Encryption Function"; "XOR cipher (SHA-256-CTR keystream)" ];
      [ "SoC"; "Rocket-class in-order 6-stage model" ];
      [ "Target ISA"; "RV64IM + C subset" ];
      [ "L1 Data Cache";
        Printf.sprintf "%dKiB, %d-way, set-associative" (cache.Eric_sim.Cache.size_bytes / 1024)
          cache.Eric_sim.Cache.ways ];
      [ "L1 Instruction Cache";
        Printf.sprintf "%dKiB, %d-way, set-associative" (cache.Eric_sim.Cache.size_bytes / 1024)
          cache.Eric_sim.Cache.ways ];
      [ "Register File"; "31 entries, 64-bit (x0 hardwired)" ];
      [ "HDE DMA"; Printf.sprintf "%d B/cycle" hde.Eric_hw.Hde.dma_bytes_per_cycle ];
      [ "HDE SHA-256 core"; Printf.sprintf "%d cycles / 64-byte block" hde.Eric_hw.Hde.sha_block_cycles ];
      [ "HDE keystream"; Printf.sprintf "%d cycles / 32-byte block" hde.Eric_hw.Hde.keystream_block_cycles ] ]

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  Report.heading "Table II: Area results of FPGA implementation (structural cost model)";
  Format.printf "%a" Eric_hw.Area.pp_table2 ();
  Report.subheading "HDE component breakdown";
  Format.printf "%a" Eric_hw.Rtl.pp Eric_hw.Area.hde;
  print_endline "paper: +2.63% LUTs, +3.83% flip-flops"

(* ------------------------------------------------------------------ *)
(* Fig 5: program package size                                         *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  Report.heading
    "Fig 5: Program package size of encrypted packages, normalised to the plain binary";
  let key = device_key () in
  let rows, stats =
    List.fold_left
      (fun (rows, (full_acc, part_acc)) ((w : Eric_workloads.Workloads.t), image) ->
        let plain = Bytes.length (Eric_rv.Program.to_binary image) in
        let full = Eric.Source.package_image ~mode:Eric.Config.Full ~key image in
        let partial = Eric.Source.package_image ~mode:partial_mode ~key image in
        let fpct = Report.pct (full.Eric.Source.package_size - plain) plain in
        let ppct = Report.pct (partial.Eric.Source.package_size - plain) plain in
        ( rows
          @ [ [ w.name; Report.i plain; Report.i full.Eric.Source.package_size; Report.fpct fpct;
                Report.i partial.Eric.Source.package_size; Report.fpct ppct ] ],
          (fpct :: full_acc, ppct :: part_acc) ))
      ([], ([], []))
      (Lazy.force compiled)
  in
  Report.table
    ~header:[ "workload"; "plain B"; "full pkg B"; "full +%"; "partial pkg B"; "partial +%" ]
    rows;
  let full_pcts, part_pcts = stats in
  let avg xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  let mx xs = List.fold_left max 0.0 xs in
  Printf.printf
    "\nfull encryption: avg %+.2f%%, max %+.2f%%   (paper: avg +1.59%%, max +3.73%%)\n"
    (avg full_pcts) (mx full_pcts);
  Printf.printf "partial (50%%): avg %+.2f%%, max %+.2f%% (adds 1 map bit per parcel)\n"
    (avg part_pcts) (mx part_pcts);
  Report.record ~suite:"fig5" ~metric:"full_size_avg" ~unit_:"%" (avg full_pcts);
  Report.record ~suite:"fig5" ~metric:"full_size_max" ~unit_:"%" (mx full_pcts);
  Report.record ~suite:"fig5" ~metric:"partial_size_avg" ~unit_:"%" (avg part_pcts);
  Report.record ~suite:"fig5" ~metric:"partial_size_max" ~unit_:"%" (mx part_pcts)

(* ------------------------------------------------------------------ *)
(* Fig 6: compile time                                                 *)
(* ------------------------------------------------------------------ *)

let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

let fig6_samples = 25

(* Both times come from one traced [Source.build]: [cc.compile] is the
   plain compilation and [core.encrypt] (signing, layout, keystream and
   XOR) is everything ERIC adds to it, so host noise between two separate
   runs cannot land in the ratio.  Each row is the median over
   [fig6_samples] builds. *)
let fig6 () =
  Report.heading
    "Fig 6: Compile time of ERIC's encrypting compilation, normalised to plain compilation";
  Printf.printf "(core.encrypt / cc.compile within one traced build, median of %d builds)\n"
    fig6_samples;
  let key = device_key () in
  let span_ms name =
    List.fold_left
      (fun acc (e : Eric_telemetry.Span.event) ->
        if e.Eric_telemetry.Span.name = name then acc +. Int64.to_float e.Eric_telemetry.Span.dur_ns
        else acc)
      0.0 (Eric_telemetry.Span.completed ())
    /. 1e6
  in
  let traced_build (w : Eric_workloads.Workloads.t) =
    Eric_telemetry.Span.reset ();
    (match
       Eric_telemetry.Control.with_enabled (fun () ->
           Eric.Source.build ~mode:Eric.Config.Full ~key w.source)
     with
    | Ok _ -> ()
    | Error e -> failwith (w.name ^ ": " ^ e));
    (span_ms "cc.compile", span_ms "core.encrypt")
  in
  let rows, pcts =
    List.fold_left
      (fun (rows, pcts) (w : Eric_workloads.Workloads.t) ->
        ignore (traced_build w);
        let samples = List.init fig6_samples (fun _ -> traced_build w) in
        let pct = median (List.map (fun (c, e) -> 100.0 *. e /. c) samples) in
        ( rows
          @ [ [ w.name; Printf.sprintf "%.2f" (median (List.map fst samples));
                Printf.sprintf "%.3f" (median (List.map snd samples)); Report.fpct pct ] ],
          pct :: pcts ))
      ([], []) Eric_workloads.Workloads.all
  in
  Report.table ~header:[ "workload"; "compile ms"; "encrypt ms"; "overhead" ] rows;
  let avg = List.fold_left ( +. ) 0.0 pcts /. float_of_int (List.length pcts) in
  let worst = List.fold_left max neg_infinity pcts in
  Printf.printf "\naverage %+.2f%%, worst %+.2f%%   (paper: avg +15.22%%, worst +33.20%%)\n" avg worst;
  Report.record ~suite:"fig6" ~metric:"compile_overhead_avg" ~unit_:"%" avg;
  Report.record ~suite:"fig6" ~metric:"compile_overhead_worst" ~unit_:"%" worst

(* ------------------------------------------------------------------ *)
(* Fig 7: end-to-end execution time                                    *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  Report.heading
    "Fig 7: End-to-end execution time (load + run) of encrypted packages, normalised to plain";
  print_endline "(MiBench-style small datasets; full encryption; serialised single-SHA HDE)";
  let t = Lazy.force target in
  let key = device_key () in
  let rows, pcts =
    List.fold_left
      (fun (rows, pcts) ((w : Eric_workloads.Workloads.t), image) ->
        let plain = Eric_sim.Soc.run_program image in
        let build = Eric.Source.package_image ~mode:Eric.Config.Full ~key image in
        match Eric.Target.execute t build.Eric.Source.package with
        | Error e -> failwith (Format.asprintf "%s: %a" w.name Eric.Target.pp_load_error e)
        | Ok enc ->
          (match (plain.Eric_sim.Soc.status, enc.Eric_sim.Soc.status) with
          | Eric_sim.Cpu.Exited 0, Eric_sim.Cpu.Exited 0 -> ()
          | _ -> failwith (w.name ^ ": unexpected exit status"));
          if plain.Eric_sim.Soc.output <> enc.Eric_sim.Soc.output then
            failwith (w.name ^ ": encrypted run diverged");
          let pt = Eric_sim.Soc.total_cycles plain and et = Eric_sim.Soc.total_cycles enc in
          let pct = Report.pct64 (Int64.sub et pt) pt in
          ( rows
            @ [ [ w.name; Report.i64 plain.Eric_sim.Soc.load_cycles;
                  Report.i64 enc.Eric_sim.Soc.load_cycles; Report.i64 plain.Eric_sim.Soc.exec_cycles;
                  Report.i64 et; Report.fpct pct ] ],
            pct :: pcts ))
      ([], []) (Lazy.force compiled_small)
  in
  Report.table
    ~header:[ "workload"; "plain load"; "hde load"; "exec cyc"; "eric total"; "overhead" ]
    rows;
  let avg = List.fold_left ( +. ) 0.0 pcts /. float_of_int (List.length pcts) in
  let mx = List.fold_left max neg_infinity pcts in
  Printf.printf "\naverage %+.2f%%, max %+.2f%%   (paper: avg +4.13%%, max +7.05%%)\n" avg mx;
  Report.record ~suite:"fig7" ~metric:"e2e_overhead_avg" ~unit_:"%" avg;
  Report.record ~suite:"fig7" ~metric:"e2e_overhead_max" ~unit_:"%" mx;
  (* companion: large datasets, where the one-off load cost amortises away
     (the flip side of the paper's size/run-length proportionality) *)
  let t = Lazy.force target in
  let large_pcts =
    List.map
      (fun ((w : Eric_workloads.Workloads.t), image) ->
        let plain = Eric_sim.Soc.run_program image in
        let b = Eric.Source.package_image ~mode:Eric.Config.Full ~key image in
        match Eric.Target.execute t b.Eric.Source.package with
        | Error e -> failwith (Format.asprintf "%s: %a" w.name Eric.Target.pp_load_error e)
        | Ok enc ->
          Report.pct64
            (Int64.sub (Eric_sim.Soc.total_cycles enc) (Eric_sim.Soc.total_cycles plain))
            (Eric_sim.Soc.total_cycles plain))
      (Lazy.force compiled)
  in
  let large_avg = List.fold_left ( +. ) 0.0 large_pcts /. float_of_int (List.length large_pcts) in
  let large_max = List.fold_left max neg_infinity large_pcts in
  Printf.printf "large datasets: avg %+.3f%%, max %+.3f%% (load cost amortised)\n" large_avg
    large_max;
  Report.record ~suite:"fig7" ~metric:"e2e_overhead_large_avg" ~unit_:"%" large_avg;
  Report.record ~suite:"fig7" ~metric:"e2e_overhead_large_max" ~unit_:"%" large_max

(* ------------------------------------------------------------------ *)
(* Ablations (beyond the paper's figures)                              *)
(* ------------------------------------------------------------------ *)

let ablation_puf () =
  Report.subheading "PUF quality (32 devices, standard metrics)";
  let r = Eric_puf.Metrics.evaluate ~devices:16 ~challenges_per_device:64 ~reeval:12 ~seed:7L () in
  Format.printf "%a@." Eric_puf.Metrics.pp_report r

let ablation_static_analysis () =
  Report.subheading "Static-analysis resistance per encryption mode (workload: crc32)";
  let _, image = List.nth (Lazy.force compiled) 4 in
  let key = device_key () in
  let plain_text = image.Eric_rv.Program.text in
  let row name text =
    let r = Eric.Analysis.static_analysis text in
    [ name; Printf.sprintf "%.1f%%" (100.0 *. r.Eric.Analysis.valid_fraction);
      Report.f1 r.Eric.Analysis.opcode_entropy_bits; Report.i r.Eric.Analysis.call_edges;
      Report.i r.Eric.Analysis.branch_sites; Report.i r.Eric.Analysis.prologue_candidates;
      Printf.sprintf "%.2f" (Eric.Analysis.byte_entropy text) ]
  in
  let enc mode = (fst (Eric.Encrypt.encrypt ~key ~mode image)).Eric.Package.enc_text in
  Report.table
    ~header:[ "text section"; "decodes"; "opc entropy"; "calls"; "branches"; "prologues"; "byte entropy" ]
    [ row "plaintext" plain_text;
      row "full" (enc Eric.Config.Full);
      row "partial 50%" (enc partial_mode);
      row "field imm" (enc (Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all)));
      row "field all-but-opcode"
        (enc (Eric.Config.Field (Eric.Config.All_but_opcode, Eric.Config.Select_all))) ]

let ablation_fraction_sweep () =
  Report.subheading "Partial-encryption fraction sweep (workload: sha)";
  let _, image = List.nth (Lazy.force compiled_small) 6 in
  let t = Lazy.force target in
  let key = device_key () in
  let plain = Eric_sim.Soc.run_program image in
  let rows =
    List.map
      (fun fraction ->
        let mode =
          if fraction >= 1.0 then Eric.Config.Partial Eric.Config.Select_all
          else Eric.Config.Partial (Eric.Config.Select_fraction { fraction; seed = 33L })
        in
        let b = Eric.Source.package_image ~mode ~key image in
        match Eric.Target.execute t b.Eric.Source.package with
        | Error e -> failwith (Format.asprintf "%a" Eric.Target.pp_load_error e)
        | Ok enc ->
          let overhead =
            Report.pct64
              (Int64.sub (Eric_sim.Soc.total_cycles enc) (Eric_sim.Soc.total_cycles plain))
              (Eric_sim.Soc.total_cycles plain)
          in
          let r = Eric.Analysis.static_analysis b.Eric.Source.package.Eric.Package.enc_text in
          [ Printf.sprintf "%.0f%%" (100.0 *. fraction);
            Report.i b.Eric.Source.stats.Eric.Encrypt.encrypted_parcels;
            Report.i b.Eric.Source.package_size; Report.i64 enc.Eric_sim.Soc.load_cycles;
            Report.fpct overhead;
            Printf.sprintf "%.1f%%" (100.0 *. r.Eric.Analysis.valid_fraction) ])
      [ 0.0; 0.1; 0.25; 0.5; 0.75; 1.0 ]
  in
  Report.table
    ~header:[ "fraction"; "enc parcels"; "pkg B"; "hde load cyc"; "e2e overhead"; "decodes" ]
    rows

let ablation_hde_throughput () =
  Report.subheading "HDE keystream-core throughput sensitivity (workload: dijkstra/small, full encryption)";
  let _, image = List.nth (Lazy.force compiled_small) 3 in
  let key = device_key () in
  let build = Eric.Source.package_image ~mode:Eric.Config.Full ~key image in
  let plain = Eric_sim.Soc.run_program image in
  let rows =
    List.map
      (fun keystream_block_cycles ->
        let hde = { Eric_hw.Hde.default_config with Eric_hw.Hde.keystream_block_cycles } in
        let t = Eric.Target.of_id ~hde device_id in
        match Eric.Target.execute t build.Eric.Source.package with
        | Error e -> failwith (Format.asprintf "%a" Eric.Target.pp_load_error e)
        | Ok enc ->
          let overhead =
            Report.pct64
              (Int64.sub (Eric_sim.Soc.total_cycles enc) (Eric_sim.Soc.total_cycles plain))
              (Eric_sim.Soc.total_cycles plain)
          in
          [ Printf.sprintf "%d cyc/32B" keystream_block_cycles;
            Report.i64 enc.Eric_sim.Soc.load_cycles; Report.fpct overhead ])
      [ 16; 32; 65; 130; 260 ]
  in
  Report.table ~header:[ "keystream core"; "hde load cyc"; "e2e overhead" ] rows

let ablation_soft_errors () =
  Report.subheading "Soft-error / tamper detection (random single-bit flips in transit)";
  let t = Lazy.force target in
  let key = device_key () in
  let _, image = List.nth (Lazy.force compiled) 1 in
  let build = Eric.Source.package_image ~mode:Eric.Config.Full ~key image in
  let trials = 500 in
  let detected = ref 0 in
  for i = 1 to trials do
    match
      Eric.Protocol.transmit
        ~attack:(Eric.Protocol.Bit_flips { count = 1; seed = Int64.of_int i })
        ~source:build ~target:t ()
    with
    | Eric.Protocol.Refused _ -> incr detected
    | Eric.Protocol.Executed _ -> ()
  done;
  let rate = 100.0 *. float_of_int !detected /. float_of_int trials in
  Printf.printf "%d/%d corrupted transmissions rejected (%.1f%%)\n" !detected trials rate;
  Report.record ~suite:"ablations" ~metric:"soft_error_detection" ~unit_:"%" rate

let ablation_diffusion () =
  Report.subheading "Key diffusion (fraction of text bits changed by a 1-bit key change)";
  let key = device_key () in
  let _, image = List.nth (Lazy.force compiled) 0 in
  let pkg, _ = Eric.Encrypt.encrypt ~key ~mode:Eric.Config.Full image in
  let d = Eric.Analysis.diffusion ~key pkg in
  Printf.printf "diffusion = %.4f (ideal 0.5)\n" d;
  Report.record ~suite:"ablations" ~metric:"key_diffusion" ~unit_:"fraction" d

let ablation_compression () =
  Report.subheading "RVC compression ablation (text size and parcels per workload)";
  let rows =
    List.map
      (fun (w : Eric_workloads.Workloads.t) ->
        let sized options =
          match Eric_cc.Driver.compile ~options w.source with
          | Ok img -> (Eric_rv.Program.text_size img, Array.length (Eric_rv.Program.parcels img))
          | Error e -> failwith e
        in
        let on, on_parcels = sized Eric_cc.Driver.default_options in
        let off, off_parcels =
          sized { Eric_cc.Driver.default_options with Eric_cc.Driver.compress = false }
        in
        [ w.name; Report.i off; Report.i on;
          Printf.sprintf "%.1f%%" (100.0 *. (1.0 -. (float_of_int on /. float_of_int off)));
          Report.i off_parcels; Report.i on_parcels ])
      Eric_workloads.Workloads.all
  in
  Report.table
    ~header:[ "workload"; "rv64i B"; "rv64ic B"; "saved"; "parcels"; "parcels (C)" ]
    rows


let ablation_multi_target () =
  Report.subheading
    "Multi-target scaling (paper: \"ERIC does not have a scaling problem\"; one compile, N encryptions)";
  let w = List.nth Eric_workloads.Workloads.all 4 in
  (* crc32 *)
  let source = w.Eric_workloads.Workloads.source in
  let rows =
    List.map
      (fun n ->
        let keys =
          List.init n (fun i ->
              (Printf.sprintf "dev%d" i,
               Eric.Target.derived_key (Eric.Target.of_id (Int64.of_int (9000 + i)))))
        in
        let t0 = Unix.gettimeofday () in
        (match Eric.Source.build_multi ~mode:Eric.Config.Full ~keys source with
        | Ok builds -> assert (List.length builds = n)
        | Error e -> failwith e);
        let shared = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun (_, key) ->
            match Eric.Source.build ~mode:Eric.Config.Full ~key source with
            | Ok _ -> ()
            | Error e -> failwith e)
          keys;
        let naive = Unix.gettimeofday () -. t0 in
        [ string_of_int n; Printf.sprintf "%.1f" (shared *. 1e3); Printf.sprintf "%.1f" (naive *. 1e3);
          Printf.sprintf "%.2fx" (naive /. shared) ])
      [ 1; 4; 16; 64 ]
  in
  Report.table ~header:[ "devices"; "compile-once ms"; "recompile-each ms"; "speedup" ] rows

let ablation_core_timing () =
  Report.subheading
    "Core-timing sensitivity: Fig-7 overhead under different memory latencies (workload: qsort/small)";
  let _, image = List.nth (Lazy.force compiled_small) 2 in
  let key = device_key () in
  let build = Eric.Source.package_image ~mode:Eric.Config.Full ~key image in
  let t = Lazy.force target in
  let rows =
    List.map
      (fun miss ->
        let timing =
          { Eric_sim.Cpu.default_timing with
            Eric_sim.Cpu.icache_miss_penalty = miss;
            dcache_miss_penalty = miss }
        in
        let plain = Eric_sim.Soc.run_program ~timing image in
        match Eric.Target.execute ~timing t build.Eric.Source.package with
        | Error e -> failwith (Format.asprintf "%a" Eric.Target.pp_load_error e)
        | Ok enc ->
          let overhead =
            Report.pct64
              (Int64.sub (Eric_sim.Soc.total_cycles enc) (Eric_sim.Soc.total_cycles plain))
              (Eric_sim.Soc.total_cycles plain)
          in
          [ Printf.sprintf "%d cyc" miss; Report.i64 plain.Eric_sim.Soc.exec_cycles;
            Report.fpct overhead ])
      [ 5; 20; 50; 100 ]
  in
  Report.table ~header:[ "miss penalty"; "exec cycles"; "e2e overhead" ] rows


let ablation_runtime_side_channel () =
  Report.subheading
    "Runtime observability (paper claim v: the HDE \"does not directly affect cache ... performance\")";
  (* Execute the same workload plain and via ERIC and compare everything a
     dynamic-analysis attacker could sample at runtime. *)
  let _, image = List.nth (Lazy.force compiled_small) 6 in
  let key = device_key () in
  let plain = Eric_sim.Soc.run_program image in
  let b = Eric.Source.package_image ~mode:Eric.Config.Full ~key image in
  match Eric.Target.execute (Lazy.force target) b.Eric.Source.package with
  | Error e -> failwith (Format.asprintf "%a" Eric.Target.pp_load_error e)
  | Ok enc ->
    Report.table
      ~header:[ "counter"; "plain"; "via ERIC"; "delta" ]
      [ [ "instructions"; Report.i64 plain.Eric_sim.Soc.instructions;
          Report.i64 enc.Eric_sim.Soc.instructions;
          Report.i64 (Int64.sub enc.Eric_sim.Soc.instructions plain.Eric_sim.Soc.instructions) ];
        [ "exec cycles"; Report.i64 plain.Eric_sim.Soc.exec_cycles;
          Report.i64 enc.Eric_sim.Soc.exec_cycles;
          Report.i64 (Int64.sub enc.Eric_sim.Soc.exec_cycles plain.Eric_sim.Soc.exec_cycles) ];
        [ "icache hit rate"; Printf.sprintf "%.6f" plain.Eric_sim.Soc.icache_hit_rate;
          Printf.sprintf "%.6f" enc.Eric_sim.Soc.icache_hit_rate;
          Printf.sprintf "%.6f" (enc.Eric_sim.Soc.icache_hit_rate -. plain.Eric_sim.Soc.icache_hit_rate) ];
        [ "dcache hit rate"; Printf.sprintf "%.6f" plain.Eric_sim.Soc.dcache_hit_rate;
          Printf.sprintf "%.6f" enc.Eric_sim.Soc.dcache_hit_rate;
          Printf.sprintf "%.6f" (enc.Eric_sim.Soc.dcache_hit_rate -. plain.Eric_sim.Soc.dcache_hit_rate) ] ];
    print_endline
      "every runtime counter is identical: ERIC's cost is entirely at load time, outside the core"


let ablation_branch_predictor () =
  Report.subheading "Branch-predictor sensitivity (bimodal 2-bit vs fixed taken-penalty model)";
  let rows =
    List.map
      (fun ((w : Eric_workloads.Workloads.t), image) ->
        let fixed = Eric_sim.Soc.run_program image in
        let predicted = Eric_sim.Soc.run_program ~branch_predictor:true image in
        [ w.name; Report.i64 fixed.Eric_sim.Soc.exec_cycles;
          Report.i64 predicted.Eric_sim.Soc.exec_cycles;
          Printf.sprintf "%.1f%%"
            (100.0
            *. (1.0
               -. Int64.to_float predicted.Eric_sim.Soc.exec_cycles
                  /. Int64.to_float fixed.Eric_sim.Soc.exec_cycles)) ])
      (Lazy.force compiled_small)
  in
  Report.table ~header:[ "workload"; "fixed-penalty cyc"; "predicted cyc"; "saved" ] rows;
  print_endline
    "(the Fig-7 overhead ratio is insensitive to this choice: the HDE cost is load-time only)"

(* ------------------------------------------------------------------ *)
(* Lint cost                                                           *)
(* ------------------------------------------------------------------ *)

(* How much the static verifiers cost on the largest workload image: the
   machine-code verifier (CFG + stack + register discipline) plus the
   leakage lint for the partial policy.  The wall time lands in
   BENCH_results.json so PRs that touch the checkers are accountable. *)
let lint () =
  Report.heading "Lint cost (machine-code verifier + leakage lint)";
  let w, image =
    List.fold_left
      (fun ((_, bi) as best) ((_, i) as cand) ->
        if Eric_rv.Program.text_size i > Eric_rv.Program.text_size bi then cand else best)
      (List.hd (Lazy.force compiled))
      (List.tl (Lazy.force compiled))
  in
  let t0 = Eric_telemetry.Clock.now_ns () in
  let mc_diags = Eric_lint.Mc_verify.verify image in
  let _, leak_diags = Eric.Policy_lint.lint ~mode:partial_mode image in
  let wall = Int64.sub (Eric_telemetry.Clock.now_ns ()) t0 in
  let diags = List.length mc_diags + List.length leak_diags in
  Printf.printf "largest workload %s: %d parcels verified, %d diagnostics, %.3f ms\n"
    w.Eric_workloads.Workloads.name
    (Array.length (Eric_rv.Program.parcels image))
    diags (Eric_telemetry.Clock.ns_to_ms wall);
  Report.record ~suite:"lint" ~metric:"wall_ns" ~unit_:"ns" (Int64.to_float wall);
  Report.record ~suite:"lint" ~metric:"diagnostics" ~unit_:"count" (float_of_int diags);

  (* Attacker hierarchy: structure recovered by the linear sweep vs the
     recursive-descent + value-set attacker, per workload, on the plain
     image (the hierarchy itself) and under the 50% partial policy (what
     the policy actually concedes).  The dataflow wall time is the cost
     of the worklist solves behind the recursive attacker. *)
  Report.subheading "Attacker hierarchy (structure score, 0 = opaque, 1 = fully recovered)";
  let df_wall = ref 0L in
  let rows =
    List.map
      (fun (w, image) ->
        let clear = Array.map (fun _ -> Eric_lint.Leakage.Clear) (Eric_rv.Program.parcels image) in
        let lin = Eric_lint.Leakage.recover Eric_lint.Leakage.Linear image clear in
        let t0 = Eric_telemetry.Clock.now_ns () in
        let rc = Eric_lint.Leakage.recover Eric_lint.Leakage.Recursive image clear in
        df_wall := Int64.add !df_wall (Int64.sub (Eric_telemetry.Clock.now_ns ()) t0);
        let rc_partial =
          Eric.Policy_lint.recover ~mode:partial_mode ~attacker:Eric_lint.Leakage.Recursive
            image
        in
        let name = w.Eric_workloads.Workloads.name in
        let score s = s.Eric_lint.Leakage.structure_score in
        Report.record ~suite:"lint" ~metric:("structure_linear_" ^ name) ~unit_:"score"
          (score lin);
        Report.record ~suite:"lint" ~metric:("structure_recursive_" ^ name) ~unit_:"score"
          (score rc);
        [ name;
          Printf.sprintf "%.3f" (score lin);
          Printf.sprintf "%.3f" (score rc);
          Printf.sprintf "%.3f" (score rc_partial);
          Printf.sprintf "%d/%d" rc.Eric_lint.Leakage.indirect_resolved
            rc.Eric_lint.Leakage.indirect_total ])
      (Lazy.force compiled)
  in
  Report.table
    ~header:[ "workload"; "linear"; "recursive"; "recursive@50%"; "indirect" ]
    rows;
  Report.record ~suite:"lint" ~metric:"dataflow.wall_ns" ~unit_:"ns"
    (Int64.to_float !df_wall);

  (* The secret-taint obligation over the build pipeline: pass/fail. *)
  let _, taint_diags = Eric.Pipeline_taint.lint () in
  let taint_ok = taint_diags = [] in
  Printf.printf "pipeline taint obligation: %s\n" (if taint_ok then "holds" else "VIOLATED");
  Report.record ~suite:"lint" ~metric:"taint_obligation" ~unit_:"bool"
    (if taint_ok then 1.0 else 0.0)

(* ------------------------------------------------------------------ *)
(* Fleet deployment at scale                                           *)
(* ------------------------------------------------------------------ *)

(* The economics the fleet subsystem exists for: a naive distributor runs
   the whole pipeline (compile + sign + layout + encrypt) once per device;
   a campaign prepares once and only personalizes (keystream XOR) and
   ships per device.  Per-device wall time for both, at three fleet
   sizes, lands in BENCH_results.json. *)
let fleet () =
  Report.heading "Fleet deployment: naive per-device build vs campaign (compile once)";
  let w = List.nth Eric_workloads.Workloads.all 4 (* crc32 *) in
  let source = w.Eric_workloads.Workloads.source in
  let enroll n =
    let reg = Eric_fleet.Registry.create () in
    for i = 0 to n - 1 do
      match Eric_fleet.Registry.enroll reg (Int64.of_int (50_000 + i)) with
      | Ok _ -> ()
      | Error e -> failwith e
    done;
    reg
  in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let rows =
    List.map
      (fun n ->
        let reg = enroll n in
        (* naive: full Source.build per device, then deliver *)
        let (), naive_ns =
          wall (fun () ->
              List.iter
                (fun (e : Eric_fleet.Registry.entry) ->
                  match Eric.Source.build ~mode:Eric.Config.Full ~key:e.Eric_fleet.Registry.key source with
                  | Error err -> failwith err
                  | Ok b -> (
                    let wire = Eric.Package.serialize b.Eric.Source.package in
                    match Eric.Target.receive_bytes (Eric_fleet.Registry.target reg e) wire with
                    | Ok _ -> ()
                    | Error _ -> failwith "naive delivery refused"))
                (Eric_fleet.Registry.entries reg))
        in
        (* campaign: prepare once through the cache, personalize + ship per device *)
        let cache = Eric_fleet.Artifact_cache.create () in
        let deploy () =
          match Eric_fleet.Campaign.deploy ~cache ~registry:reg source with
          | Error e -> failwith e
          | Ok r ->
            if r.Eric_fleet.Campaign.delivered <> n then failwith "campaign left devices behind";
            r
        in
        let cold, campaign_ns = wall deploy in
        let warm, warm_ns = wall deploy in
        assert (warm.Eric_fleet.Campaign.cache = Eric_fleet.Artifact_cache.Memory_hit);
        let per x = x /. float_of_int n in
        let suite = "fleet" in
        let m fmt = Printf.sprintf fmt n in
        Report.record ~suite ~metric:(m "naive_per_device_ns_n%d") ~unit_:"ns" (per naive_ns);
        Report.record ~suite ~metric:(m "campaign_per_device_ns_n%d") ~unit_:"ns" (per campaign_ns);
        Report.record ~suite ~metric:(m "campaign_warm_per_device_ns_n%d") ~unit_:"ns" (per warm_ns);
        Report.record ~suite ~metric:(m "speedup_n%d") ~unit_:"x" (naive_ns /. campaign_ns);
        Report.record ~suite ~metric:(m "cache_hits_n%d") ~unit_:"count"
          (float_of_int (Eric_fleet.Artifact_cache.hits cache));
        [ string_of_int n;
          Printf.sprintf "%.1f" (per naive_ns /. 1e3);
          Printf.sprintf "%.1f" (per campaign_ns /. 1e3);
          Printf.sprintf "%.1f" (per warm_ns /. 1e3);
          Printf.sprintf "%.1fx" (naive_ns /. campaign_ns);
          Eric_fleet.Artifact_cache.outcome_label cold.Eric_fleet.Campaign.cache ^ "/"
          ^ Eric_fleet.Artifact_cache.outcome_label warm.Eric_fleet.Campaign.cache ])
      [ 10; 100; 1000 ]
  in
  Report.table
    ~header:
      [ "devices"; "naive us/dev"; "campaign us/dev"; "warm us/dev"; "speedup"; "cache c/w" ]
    rows;
  (* retry economics over a lossy channel: every device needs one retry,
     recovery is deterministic, nobody is dropped *)
  let n = 100 in
  let reg = enroll n in
  let cache = Eric_fleet.Artifact_cache.create () in
  let config =
    { Eric_fleet.Campaign.default_config with
      Eric_fleet.Campaign.channel = Eric_fleet.Channel.drop_first 1 }
  in
  (match Eric_fleet.Campaign.deploy ~config ~cache ~registry:reg source with
  | Error e -> failwith e
  | Ok r ->
    if not (Eric_fleet.Campaign.all_accounted r) then failwith "device unaccounted for";
    Printf.printf
      "\nlossy channel (drop-first:1, %d devices): %d delivered, %d after retry, %.3f ms simulated backoff\n"
      n r.Eric_fleet.Campaign.delivered r.Eric_fleet.Campaign.retried
      (Int64.to_float r.Eric_fleet.Campaign.backoff_ns /. 1e6);
    Report.record ~suite:"fleet" ~metric:"retries_recovered_n100" ~unit_:"count"
      (float_of_int r.Eric_fleet.Campaign.retried);
    Report.record ~suite:"fleet" ~metric:"backoff_ms_n100" ~unit_:"ms"
      (Int64.to_float r.Eric_fleet.Campaign.backoff_ns /. 1e6))

(* ------------------------------------------------------------------ *)
(* Campaign engine at fleet scale                                      *)
(* ------------------------------------------------------------------ *)

(* The engine + sharded-registry economics: campaign throughput at
   N = 10^3..10^5 real devices under both schedulers, registry-open cost
   (whole file vs manifest-only) as the fleet grows, quarantine behaviour
   over a lossy channel, raw engine overhead on 10^6 synthetic jobs, and
   the personalize hot path in MiB/s.

   Throughput numbers are honest for this machine: the worker count and
   whether domains actually ran are recorded alongside them.  On a
   single-core box the domain scheduler cannot beat the deterministic
   one — the point of the comparison is that it never has to: outcomes
   are identical, so deployments can pick per machine. *)
let engine () =
  Report.heading "Campaign engine: fleet-scale work queue + sharded registry";
  let module Engine = Eric_engine.Engine in
  let module Shard = Eric_fleet.Registry_shard in
  let suite = "engine" in
  let cores = Eric_engine.Pool.recommended () in
  Printf.printf "domains available: %b, recommended workers: %d\n"
    Eric_engine.Pool.available cores;
  Report.record ~suite ~metric:"pool_available" ~unit_:"bool"
    (if Eric_engine.Pool.available then 1.0 else 0.0);
  Report.record ~suite ~metric:"recommended_workers" ~unit_:"count" (float_of_int cores);
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let w = List.nth Eric_workloads.Workloads.all 4 (* crc32 *) in
  let source = w.Eric_workloads.Workloads.source in

  (* personalize hot path: pure keystream XOR over the prepared image *)
  (match Eric.Source.prepare ~mode:Eric.Config.Full source with
  | Error e -> failwith e
  | Ok prepared ->
    let key = Eric.Target.derived_key (Eric.Target.of_id 77_000L) in
    let reps = 400 in
    let (), ns =
      wall (fun () ->
          for _ = 1 to reps do
            ignore (Eric.Source.personalize ~key prepared)
          done)
    in
    let bytes = float_of_int (prepared.Eric.Source.p_plain_size * reps) in
    let mib_s = bytes /. (ns /. 1e9) /. (1024.0 *. 1024.0) in
    Printf.printf "personalize: %.1f MiB/s (%.1f us per %d-byte image)\n" mib_s
      (ns /. float_of_int reps /. 1e3)
      prepared.Eric.Source.p_plain_size;
    Report.record ~suite ~metric:"personalize_mib_s" ~unit_:"MiB/s" mib_s);

  (* fleet-scale campaign sweep; factory (legacy) enrollment keeps the
     setup affordable at 10^5 devices *)
  let enroll_legacy n =
    let reg = Eric_fleet.Registry.create () in
    for i = 0 to n - 1 do
      match Eric_fleet.Registry.enroll_legacy reg (Int64.of_int (1_000_000 + i)) with
      | Ok _ -> ()
      | Error e -> failwith e
    done;
    reg
  in
  let deploy ?channel ~scheduler ~cache reg =
    let config =
      {
        Eric_fleet.Campaign.default_config with
        Eric_fleet.Campaign.channel =
          (match channel with Some c -> c | None -> Eric_fleet.Channel.clean);
        scheduler;
      }
    in
    match Eric_fleet.Campaign.deploy ~config ~cache ~registry:reg source with
    | Error e -> failwith e
    | Ok r -> r
  in
  let rows =
    List.map
      (fun n ->
        let reg, enroll_ns = wall (fun () -> enroll_legacy n) in
        let cache = Eric_fleet.Artifact_cache.create () in
        (* cold run boots every device and compiles once; both warm runs
           personalize + ship only, so the scheduler comparison isolates
           the engine *)
        let cold, cold_ns = wall (fun () -> deploy ~scheduler:Engine.Deterministic ~cache reg) in
        let det, det_ns = wall (fun () -> deploy ~scheduler:Engine.Deterministic ~cache reg) in
        let dom, dom_ns = wall (fun () -> deploy ~scheduler:(Engine.Domains 0) ~cache reg) in
        if det.Eric_fleet.Campaign.delivered <> n || dom.Eric_fleet.Campaign.delivered <> n
        then failwith "fleet-scale campaign left devices behind";
        let per_s ns = float_of_int n /. (ns /. 1e9) in
        (* registry-open cost: parsing the whole file is O(devices);
           opening the sharded manifest is O(shards) *)
        let file = Filename.temp_file "eric_bench_reg" ".efrg" in
        Eric_fleet.Registry.save reg file;
        let open_file =
          match wall (fun () -> Eric_fleet.Registry.load file) with
          | Ok _, ns -> ns
          | Error e, _ -> failwith e
        in
        let dir = Filename.temp_file "eric_bench_shards" "" in
        Sys.remove dir;
        (match Shard.of_registry ~dir ~shards:64 reg with
        | Ok _ -> ()
        | Error e -> failwith e);
        let open_manifest =
          match wall (fun () -> Shard.load dir) with
          | Ok _, ns -> ns
          | Error e, _ -> failwith e
        in
        Sys.remove file;
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir;
        let m fmt = Printf.sprintf fmt n in
        Report.record ~suite ~metric:(m "enroll_legacy_per_device_ns_n%d") ~unit_:"ns"
          (enroll_ns /. float_of_int n);
        Report.record ~suite ~metric:(m "campaign_cold_jobs_per_s_n%d") ~unit_:"jobs/s"
          (per_s cold_ns);
        Report.record ~suite ~metric:(m "campaign_det_jobs_per_s_n%d") ~unit_:"jobs/s"
          (per_s det_ns);
        Report.record ~suite ~metric:(m "campaign_domains_jobs_per_s_n%d") ~unit_:"jobs/s"
          (per_s dom_ns);
        Report.record ~suite ~metric:(m "campaign_quarantined_n%d") ~unit_:"count"
          (float_of_int (cold.Eric_fleet.Campaign.quarantined
                         + det.Eric_fleet.Campaign.quarantined
                         + dom.Eric_fleet.Campaign.quarantined));
        Report.record ~suite ~metric:(m "cache_hits_n%d") ~unit_:"count"
          (float_of_int (Eric_fleet.Artifact_cache.hits cache));
        Report.record ~suite ~metric:(m "registry_open_file_ns_n%d") ~unit_:"ns" open_file;
        Report.record ~suite ~metric:(m "registry_open_manifest_ns_n%d") ~unit_:"ns"
          open_manifest;
        [ string_of_int n;
          Printf.sprintf "%.0f" (per_s cold_ns);
          Printf.sprintf "%.0f" (per_s det_ns);
          Printf.sprintf "%.0f" (per_s dom_ns);
          dom.Eric_fleet.Campaign.scheduler_used;
          Printf.sprintf "%.2f" (open_file /. 1e6);
          Printf.sprintf "%.3f" (open_manifest /. 1e6) ])
      [ 1_000; 10_000; 100_000 ]
  in
  Report.table
    ~header:
      [ "devices"; "cold jobs/s"; "warm det jobs/s"; "warm dom jobs/s"; "dom sched";
        "open file ms"; "open manifest ms" ]
    rows;

  (* sharded campaign: same fleet walked shard by shard at one-shard
     memory cost *)
  let n = 10_000 in
  let reg = enroll_legacy n in
  let dir = Filename.temp_file "eric_bench_shards" "" in
  Sys.remove dir;
  let sh =
    match Shard.of_registry ~dir ~shards:16 reg with Ok s -> s | Error e -> failwith e
  in
  let cache = Eric_fleet.Artifact_cache.create () in
  let r, ns =
    wall (fun () ->
        match Eric_fleet.Campaign.deploy_sharded ~cache ~shards:sh source with
        | Ok r -> r
        | Error e -> failwith e)
  in
  if r.Eric_fleet.Campaign.delivered <> n then failwith "sharded campaign left devices behind";
  Printf.printf "sharded campaign (%d devices, 16 shards): %.0f jobs/s\n" n
    (float_of_int n /. (ns /. 1e9));
  Report.record ~suite ~metric:"campaign_sharded_jobs_per_s_n10000" ~unit_:"jobs/s"
    (float_of_int n /. (ns /. 1e9));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;

  (* quarantine economics over a lossy channel: half the sends fail, the
     backoff policy retries, the refusal threshold quarantines the rest *)
  let n = 1_000 in
  let reg = enroll_legacy n in
  let cache = Eric_fleet.Artifact_cache.create () in
  let lossy = Eric_fleet.Channel.flaky ~probability:0.5 ~seed:11L () in
  let r =
    deploy ~channel:lossy ~scheduler:Engine.Deterministic ~cache reg
  in
  let rate v = float_of_int v /. float_of_int n in
  Printf.printf
    "lossy channel (flaky:0.5, %d devices): %d delivered, %d retried, %d quarantined\n" n
    r.Eric_fleet.Campaign.delivered r.Eric_fleet.Campaign.retried
    r.Eric_fleet.Campaign.quarantined;
  Report.record ~suite ~metric:"lossy_delivered_rate_n1000" ~unit_:"fraction"
    (rate r.Eric_fleet.Campaign.delivered);
  Report.record ~suite ~metric:"lossy_quarantined_rate_n1000" ~unit_:"fraction"
    (rate r.Eric_fleet.Campaign.quarantined);

  (* raw engine overhead: 10^6 synthetic jobs through the job +
     completion machinery *)
  let n = 1_000_000 in
  let job i =
    let x = i * 0x9E3779B1 in
    Engine.Done ((x lxor (x lsr 16)) + 1)
  in
  let items = Array.init n (fun i -> i) in
  let smoke scheduler =
    let r = Engine.run ~scheduler ~name:"bench.engine.smoke" job items in
    if r.Engine.jobs_done <> n then failwith "synthetic smoke lost jobs";
    (Engine.throughput_per_s r, r.Engine.scheduler_used)
  in
  let det_tp, _ = smoke Engine.Deterministic in
  let dom_tp, dom_used = smoke (Engine.Domains 0) in
  Printf.printf "synthetic 10^6 jobs: %.2f M/s deterministic, %.2f M/s %s\n"
    (det_tp /. 1e6) (dom_tp /. 1e6) dom_used;
  Report.record ~suite ~metric:"synthetic_det_jobs_per_s_n1e6" ~unit_:"jobs/s" det_tp;
  Report.record ~suite ~metric:"synthetic_domains_jobs_per_s_n1e6" ~unit_:"jobs/s" dom_tp

let ablations () =
  Report.heading "Ablations and security evaluations (beyond the paper's figures)";
  ablation_puf ();
  ablation_static_analysis ();
  ablation_fraction_sweep ();
  ablation_hde_throughput ();
  ablation_soft_errors ();
  ablation_diffusion ();
  ablation_compression ();
  ablation_multi_target ();
  ablation_core_timing ();
  ablation_runtime_side_channel ();
  ablation_branch_predictor ()

(* ------------------------------------------------------------------ *)
(* Obfuscation: leakage vs size vs cycles Pareto                        *)
(* ------------------------------------------------------------------ *)

(* Per workload x pass set: what the recursive attacker still recovers
   (Jaccard against the decoy-subtracted ground truth — lower is more
   opaque), against what the obfuscation costs in text bytes and SoC
   cycles.  The rows land in BENCH_results.json as the Pareto frontier
   of the pass family; a PR that regresses either axis shows up in the
   numbers. *)
let obf () =
  Report.heading
    "Obfuscation Pareto: residual structure (recursive attacker) vs size and cycle cost";
  let sets =
    [ ("data", [ Eric_obf.Obf.Constants; Eric_obf.Obf.Arith ]);
      ("decoy", [ Eric_obf.Obf.Opaque; Eric_obf.Obf.Dummy ]);
      ("flatten", [ Eric_obf.Obf.Flatten ]);
      ("all", Eric_obf.Obf.all_passes) ]
  in
  let rows =
    List.concat_map
      (fun ((w : Eric_workloads.Workloads.t), plain) ->
        let plain_run = Eric_sim.Soc.run_program plain in
        let plain_bytes = Eric_rv.Program.text_size plain in
        let plain_cycles = Eric_sim.Soc.total_cycles plain_run in
        let baseline =
          let clear =
            Array.map (fun _ -> Eric_lint.Leakage.Clear) (Eric_rv.Program.parcels plain)
          in
          (Eric_lint.Leakage.recover Eric_lint.Leakage.Recursive plain clear)
            .Eric_lint.Leakage.structure_score
        in
        List.map
          (fun (label, passes) ->
            let cfg = { Eric_obf.Obf.passes; seed = Eric_obf.Obf.default_seed } in
            let t, annot = Eric_obf.Obf.hook cfg in
            let options =
              { Eric_cc.Driver.default_options with Eric_cc.Driver.transform = Some t }
            in
            let image =
              match Eric_cc.Driver.compile ~options w.source_small with
              | Ok i -> i
              | Error e -> failwith (w.name ^ "/" ^ label ^ ": " ^ e)
            in
            let s = Eric_obf.Obf.grade ~annot ~attacker:Eric_lint.Leakage.Recursive image in
            let run = Eric_sim.Soc.run_program image in
            if run.Eric_sim.Soc.output <> plain_run.Eric_sim.Soc.output then
              failwith (w.name ^ "/" ^ label ^ ": obfuscated run diverged");
            let score = s.Eric_lint.Leakage.structure_score in
            let size_pct =
              Report.pct64
                (Int64.of_int (Eric_rv.Program.text_size image - plain_bytes))
                (Int64.of_int plain_bytes)
            in
            let cyc_pct =
              Report.pct64
                (Int64.sub (Eric_sim.Soc.total_cycles run) plain_cycles)
                plain_cycles
            in
            let m fmt = Printf.sprintf fmt label w.name in
            Report.record ~suite:"obf" ~metric:(m "score_%s_%s") ~unit_:"score" score;
            Report.record ~suite:"obf" ~metric:(m "size_overhead_%s_%s") ~unit_:"%" size_pct;
            Report.record ~suite:"obf" ~metric:(m "cycle_overhead_%s_%s") ~unit_:"%" cyc_pct;
            [ w.name; label; Printf.sprintf "%.3f" baseline; Printf.sprintf "%.3f" score;
              Report.fpct size_pct; Report.fpct cyc_pct ])
          sets)
      (Lazy.force compiled_small)
  in
  Report.table
    ~header:[ "workload"; "passes"; "plain score"; "obf score"; "size"; "cycles" ]
    rows

(* ------------------------------------------------------------------ *)
(* PUF reliability: environmental sweep of the key path                 *)
(* ------------------------------------------------------------------ *)

(* The robustness claim, measured: per-corner key failure rate of the
   legacy majority-vote boot vs the fuzzy-extractor boot, over a small
   enrolled population.  At the >= 10x-noise stress corners the plain
   path must fail measurably while the extractor stays within its 1e-3
   budget with zero wrong keys — the rows land in BENCH_results.json so
   a PR that degrades either path is caught by the numbers. *)
let pufrel () =
  Report.heading "PUF reliability: key failure rate per operating corner (plain vs fuzzy)";
  let config =
    { Eric_verif.Envsweep.default_config with Eric_verif.Envsweep.devices = 8; boots = 40 }
  in
  match Eric_verif.Envsweep.campaign ~config () with
  | Error e -> failwith ("pufrel: " ^ e)
  | Ok report ->
    Format.printf "%a@." Eric_verif.Envsweep.pp_report report;
    let suite = "puf_reliability" in
    List.iter
      (fun (row : Eric_verif.Envsweep.corner_row) ->
        let m fmt = Printf.sprintf fmt row.Eric_verif.Envsweep.corner in
        Report.record ~suite ~metric:(m "plain_kfr_%s") ~unit_:"fraction"
          (Eric_verif.Envsweep.plain_kfr row);
        Report.record ~suite ~metric:(m "fuzzy_kfr_%s") ~unit_:"fraction"
          (Eric_verif.Envsweep.fuzzy_kfr row);
        Report.record ~suite ~metric:(m "wrong_keys_%s") ~unit_:"count"
          (float_of_int row.Eric_verif.Envsweep.wrong_keys))
      report.Eric_verif.Envsweep.rows;
    let stress_row =
      List.find
        (fun (r : Eric_verif.Envsweep.corner_row) -> r.Eric_verif.Envsweep.corner = "cold-lowv")
        report.Eric_verif.Envsweep.rows
    in
    Report.record ~suite ~metric:"stress_noise_scale" ~unit_:"x"
      (Eric_puf.Env.noise_scale stress_row.Eric_verif.Envsweep.env);
    Report.record ~suite ~metric:"passed" ~unit_:"bool"
      (if Eric_verif.Envsweep.passed report then 1.0 else 0.0)

(* ------------------------------------------------------------------ *)
(* Verification campaigns: differential fuzzing throughput and         *)
(* fault-injection detection coverage                                  *)
(* ------------------------------------------------------------------ *)

let verif_source =
  "int g0[4] = {3, 1, 4, 1};\n\
   int main() {\n\
  \  int acc = 0;\n\
  \  for (int i = 0; i < 4; i++) { acc += g0[i] * (i + 1); }\n\
  \  print_str(\"acc=\");\n\
  \  println_int(acc);\n\
  \  return acc & 255;\n\
   }\n"

let verif () =
  Report.heading "Verification: differential fuzzing + fault-injection coverage";
  (* 10k generated programs through all three execution paths; the
     acceptance bar is zero divergences at fixed seeds. *)
  let config = { Eric_verif.Fuzz.default_config with Eric_verif.Fuzz.count = 10_000 } in
  let outcome = Eric_verif.Fuzz.run ~config () in
  let stats = outcome.Eric_verif.Fuzz.stats in
  let secs = Int64.to_float stats.Eric_verif.Fuzz.wall_ns /. 1e9 in
  let rate = float_of_int stats.Eric_verif.Fuzz.programs /. secs in
  Printf.printf "fuzz: %d programs (%d mutated), %d divergences, %d compile errors, %.1f exec/s\n"
    stats.Eric_verif.Fuzz.programs stats.Eric_verif.Fuzz.mutated
    stats.Eric_verif.Fuzz.divergences stats.Eric_verif.Fuzz.compile_errors rate;
  Report.record ~suite:"verif" ~metric:"fuzz_programs" ~unit_:"count"
    (float_of_int stats.Eric_verif.Fuzz.programs);
  Report.record ~suite:"verif" ~metric:"fuzz_divergences" ~unit_:"count"
    (float_of_int stats.Eric_verif.Fuzz.divergences);
  Report.record ~suite:"verif" ~metric:"fuzz_compile_errors" ~unit_:"count"
    (float_of_int stats.Eric_verif.Fuzz.compile_errors);
  Report.record ~suite:"verif" ~metric:"fuzz_programs_per_sec" ~unit_:"1/s" rate;
  (* Single-bit fault injections per region group.  Wire regions are
     signed: detection must be total.  Dram (post-validation) measures
     the residual exposure the paper accepts; Key measures the KMU path. *)
  let inject regions count =
    let config =
      { Eric_verif.Inject.default_config with Eric_verif.Inject.count; regions }
    in
    match Eric_verif.Inject.campaign ~config verif_source with
    | Error e -> failwith ("inject: " ^ e)
    | Ok r -> r
  in
  let wire = inject Eric_verif.Inject.wire_regions 2_000 in
  let dram = inject [ Eric_verif.Inject.Dram ] 1_000 in
  let key = inject [ Eric_verif.Inject.Key ] 1_000 in
  let rows =
    List.map
      (fun (r : Eric_verif.Inject.row) ->
        [ Eric_verif.Inject.region_name r.Eric_verif.Inject.region;
          Report.i r.Eric_verif.Inject.injections;
          Report.i r.Eric_verif.Inject.detected;
          Report.i r.Eric_verif.Inject.masked;
          Report.i r.Eric_verif.Inject.silent;
          Report.f1 (100.0 *. Eric_verif.Inject.coverage r) ])
      (wire.Eric_verif.Inject.rows @ dram.Eric_verif.Inject.rows @ key.Eric_verif.Inject.rows)
  in
  Report.table ~header:[ "region"; "inj"; "detected"; "masked"; "silent"; "coverage %" ] rows;
  Report.record ~suite:"verif" ~metric:"inject_wire_coverage_pct" ~unit_:"%"
    (100.0 *. Eric_verif.Inject.detection_coverage wire);
  Report.record ~suite:"verif" ~metric:"inject_wire_silent" ~unit_:"count"
    (float_of_int (Eric_verif.Inject.silent_total wire));
  Report.record ~suite:"verif" ~metric:"inject_key_coverage_pct" ~unit_:"%"
    (100.0 *. Eric_verif.Inject.detection_coverage key);
  Report.record ~suite:"verif" ~metric:"inject_dram_coverage_pct" ~unit_:"%"
    (100.0 *. Eric_verif.Inject.detection_coverage dram);
  (* Runtime integrity guard: the residual-exposure-vs-cycle-overhead
     curve over the same DRAM flips.  The baseline (guard off) is the
     paper's accepted exposure; the acceptance bar is total detection at
     the tightest mechanism. *)
  Report.subheading "DRAM guard sweep (coverage vs cycle overhead, same flips per point)";
  let mechanisms =
    Eric_hw.Guard.
      [ Off;
        Scrub { interval_cycles = 4096 };
        Scrub { interval_cycles = 1024 };
        Scrub { interval_cycles = 256 };
        Fetch_check;
        Fetch_and_scrub { interval_cycles = 1024 };
        Fetch_and_scrub { interval_cycles = 256 } ]
  in
  let sweep =
    match Eric_verif.Inject.dram_sweep ~mechanisms verif_source with
    | Error e -> failwith ("dram sweep: " ^ e)
    | Ok s -> s
  in
  Report.table
    ~header:[ "mechanism"; "inj"; "detected"; "silent"; "coverage %"; "overhead" ]
    (List.map
       (fun (p : Eric_verif.Inject.sweep_point) ->
         [ Eric_hw.Guard.mechanism_name p.Eric_verif.Inject.sp_mechanism;
           Report.i p.Eric_verif.Inject.sp_injections;
           Report.i p.Eric_verif.Inject.sp_detected;
           Report.i p.Eric_verif.Inject.sp_silent;
           Report.f1 (100.0 *. p.Eric_verif.Inject.sp_coverage);
           Printf.sprintf "%.3f" p.Eric_verif.Inject.sp_overhead ])
       sweep);
  List.iter
    (fun (p : Eric_verif.Inject.sweep_point) ->
      let m = Eric_hw.Guard.mechanism_name p.Eric_verif.Inject.sp_mechanism in
      Report.record ~suite:"verif"
        ~metric:(Printf.sprintf "guard_%s_coverage_pct" m)
        ~unit_:"%"
        (100.0 *. p.Eric_verif.Inject.sp_coverage);
      Report.record ~suite:"verif"
        ~metric:(Printf.sprintf "guard_%s_overhead" m)
        ~unit_:"ratio" p.Eric_verif.Inject.sp_overhead)
    sweep;
  let coverage_of mech =
    match
      List.find_opt
        (fun (p : Eric_verif.Inject.sweep_point) ->
          p.Eric_verif.Inject.sp_mechanism = mech)
        sweep
    with
    | Some p -> p.Eric_verif.Inject.sp_coverage
    | None -> 0.0
  in
  let tightest =
    coverage_of (Eric_hw.Guard.Fetch_and_scrub { interval_cycles = 256 })
  in
  if tightest < 0.99 then
    failwith
      (Printf.sprintf "dram sweep: tightest guard detects %.1f%% (< 99%%)"
         (100.0 *. tightest));
  if coverage_of Eric_hw.Guard.Off >= 0.99 then
    failwith "dram sweep: baseline should leave residual exposure"

(* ------------------------------------------------------------------ *)
(* OTA update service scenarios                                        *)
(* ------------------------------------------------------------------ *)

(* The serve subsystem's SLO numbers, per scenario preset, on the
   simulated clock — fully deterministic, so these rows are stable
   across machines.  The final section re-runs flash-crowd scaled to
   >= 10^4 requests to demonstrate the Zipf cache economics: a handful
   of corpus-wide compiles absorb the entire request stream. *)
let serve () =
  Report.heading "OTA update service: per-scenario SLOs (simulated time)";
  let module S = Eric_serve.Slo in
  let seed = 42L in
  let suite = "serve" in
  let rows =
    List.map
      (fun (sc : Eric_serve.Scenario.t) ->
        let r = Eric_serve.Service.run ~seed ~scenario:sc () in
        let name = sc.Eric_serve.Scenario.name in
        let m fmt = Printf.sprintf fmt name in
        Report.record ~suite ~metric:(m "%s_requests") ~unit_:"count"
          (float_of_int r.S.requests);
        Report.record ~suite ~metric:(m "%s_p50_ms") ~unit_:"ms" r.S.latency.S.p50_ms;
        Report.record ~suite ~metric:(m "%s_p99_ms") ~unit_:"ms" r.S.latency.S.p99_ms;
        Report.record ~suite ~metric:(m "%s_refusal_rate") ~unit_:"ratio" r.S.refusal_rate;
        Report.record ~suite ~metric:(m "%s_quarantine_rate") ~unit_:"ratio"
          r.S.quarantine_rate;
        Report.record ~suite ~metric:(m "%s_cache_hit_rate") ~unit_:"ratio"
          r.S.cache_hit_rate;
        if r.S.faults_injected > 0 then begin
          (* The soft-error scenario's acceptance bar: every injected
             upset caught (guard or trap), faulted devices recovered by
             re-delivery, nothing silently corrupted. *)
          Report.record ~suite ~metric:(m "%s_faults_injected") ~unit_:"count"
            (float_of_int r.S.faults_injected);
          Report.record ~suite ~metric:(m "%s_fault_detection_rate") ~unit_:"ratio"
            (float_of_int r.S.faults_detected /. float_of_int r.S.faults_injected);
          Report.record ~suite ~metric:(m "%s_faults_undetected") ~unit_:"count"
            (float_of_int r.S.faults_undetected);
          Report.record ~suite ~metric:(m "%s_fault_recovered") ~unit_:"count"
            (float_of_int r.S.fault_recovered);
          if r.S.faults_undetected > 0 then
            failwith
              (Printf.sprintf "serve bench: %s let %d corrupted execution(s) pass silently"
                 name r.S.faults_undetected)
        end;
        if not (S.passed r) then
          failwith
            (Printf.sprintf "serve bench: scenario %s blew its SLO budget: %s" name
               (String.concat "; " r.S.violations));
        [ name;
          Report.i r.S.requests;
          Report.f1 r.S.latency.S.p50_ms;
          Report.f1 r.S.latency.S.p99_ms;
          Printf.sprintf "%.2f" (100.0 *. r.S.refusal_rate);
          Printf.sprintf "%.2f" (100.0 *. r.S.quarantine_rate);
          Printf.sprintf "%.2f" (100.0 *. r.S.cache_hit_rate) ])
      Eric_serve.Scenario.presets
  in
  Report.table
    ~header:[ "scenario"; "requests"; "p50 ms"; "p99 ms"; "refused %"; "quar %"; "cache %" ]
    rows;
  (* Zipf cache economics at scale: the acceptance bar is a >90% hit
     rate over at least 10^4 requests. *)
  let sc =
    Eric_serve.Scenario.with_rate_scale Eric_serve.Scenario.flash_crowd ~factor:2.0
  in
  let big = Eric_serve.Service.run ~seed:7L ~scenario:sc () in
  if big.S.requests < 10_000 then
    failwith
      (Printf.sprintf "serve bench: wanted >= 10^4 requests, generated %d" big.S.requests);
  if big.S.cache_hit_rate <= 0.9 then
    failwith
      (Printf.sprintf "serve bench: Zipf cache hit rate %.4f is not > 0.9"
         big.S.cache_hit_rate);
  Printf.printf "zipf at scale: %d requests, cache hit rate %.2f%% (%d compiles)\n"
    big.S.requests
    (100.0 *. big.S.cache_hit_rate)
    big.S.cache_misses;
  Report.record ~suite ~metric:"zipf_requests" ~unit_:"count" (float_of_int big.S.requests);
  Report.record ~suite ~metric:"zipf_cache_hit_rate" ~unit_:"ratio" big.S.cache_hit_rate;
  Report.record ~suite ~metric:"zipf_cache_misses" ~unit_:"count"
    (float_of_int big.S.cache_misses)
