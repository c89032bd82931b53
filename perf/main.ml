(* End-to-end benchmark: one workload per process, a single-threaded
   closed loop (one client, the engine's deterministic scheduler, no
   domains).

   Usage:
     main.exe --workload build|deliver|campaign|fuzz --seed N
              [--seconds S] [--trace 0|1] [--trace-out FILE]
     main.exe --self-test BENCHMARK.json

   The loop makes whole passes over the workload's seeded inputs until
   the timed phase ends (at least one pass).  Every op is checked and
   counts as attempted.  An input's latency is its fastest run: on a
   shared host the speed swings by tens of percent within seconds, and
   the fastest of many runs spread over the phase filters that out.  The
   bytes each op allocates are counted exactly, so a change that makes
   the garbage collector work harder shows even where the fastest runs
   do not.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Untraced runs report the end-to-end metrics.  With [--trace 1],
   passes alternate between untraced and traced, and the per-layer
   metrics come from each input's fastest traced op.  Exit code 3 when
   any op failed its check. *)

module J = Eric_telemetry.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of ns = float_of_int ns /. 1e9

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  layer_sum_ns : int;  (** traced runs: every layer's self time, summed *)
  traced_ns : int;  (** traced runs: the reported traced ops' total *)
}

(* Linear interpolation between order statistics. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (i + 1) (n - 1) in
    sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(j) -. sorted.(i)))

let median l = quantile (Array.of_list (List.sort compare l)) 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ops_per_s ~inputs total_ns = ratio (float_of_int inputs) (seconds_of total_ns)

(* Spans with a per-layer metric of their own; any other span's self
   time goes to [other.ms]. *)
let catalogue =
  [ "cc.compile"; "cc.lex"; "cc.parse"; "cc.typecheck"; "cc.lower"; "lint.ir_verify"; "cc.opt";
    "cc.opt.const_fold"; "cc.opt.copy_prop"; "cc.opt.cse"; "cc.opt.dce"; "cc.opt.simplify_cfg";
    "cc.codegen"; "cc.regalloc"; "cc.assemble"; "core.encrypt"; "core.prepare";
    "core.personalize"; "build.serialize"; "ingest.receive_bytes"; "ingest.receive";
    "ingest.decrypt"; "target.run"; "sim.execute"; "fleet.campaign"; "engine.run" ]

(* Per-layer metrics, each a mean over inputs of the input's fastest
   traced op. *)
let layer_metrics ~trace_overhead =
  let rows = Trace.rows () in
  let per_op v = v /. float_of_int (max 1 (Trace.ops ())) in
  let self_ms names =
    List.fold_left (fun a (n, l) -> if List.mem n names then a + l.Trace.self_ns else a) 0 rows
    |> Trace.ms |> per_op
  in
  let time span = { name = span ^ ".ms"; value = self_ms [ span ]; unit_ = "ms" } in
  let counted name unit_ = { name; value = per_op (Trace.count_total name); unit_ } in
  let others = List.filter (fun (n, _) -> n <> "unattributed" && not (List.mem n catalogue)) rows in
  List.map time catalogue
  @ [ { name = "other.ms"; value = self_ms (List.map fst others); unit_ = "ms" };
      time "unattributed";
      counted "sim.instructions" "count";
      { name = "sim.minstr_per_s";
        value = ratio (per_op (Trace.count_total "sim.instructions")) (self_ms [ "sim.execute" ] *. 1e3);
        unit_ = "Minstr/s" };
      counted "sim.guard_cycles" "cycles";
      counted "sim_cycles_per_op" "cycles";
      counted "hde.load_cycles" "cycles";
      counted "ingest.bytes_in" "bytes";
      { name = "trace_overhead"; value = trace_overhead; unit_ = "ratio" } ]

let run ?(quiet = false) ?trace_out ~(workload : E2e.t) ~seed ~seconds ~trace ~smoke () =
  let say fmt = Printf.ksprintf (fun s -> if not quiet then print_string s) fmt in
  let set_up () =
    let t0 = now_ns () in
    let inst = workload.E2e.setup ~seed ~smoke in
    (inst, seconds_of (now_ns () - t0))
  in
  let inst, first_setup = set_up () in
  Gc.compact ();
  let n = inst.E2e.inputs in
  Trace.reset ~inputs:n;
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let attempted = ref 0 and failed = ref 0 in
  (* Fastest untraced run of each input, and the bytes untraced ops
     allocated. *)
  let best = Array.make n max_int and allocated = ref 0.0 and untraced_ops = ref 0 in
  let pass_no = ref 0 in
  while !pass_no < (if trace then 2 else 1) || ((not smoke) && now_ns () < deadline) do
    let is_traced = trace && !pass_no mod 2 = 1 in
    for input = 0 to n - 1 do
      let a0 = Gc.allocated_bytes () in
      let t0 = now_ns () in
      let check =
        try if is_traced then Trace.op ~input (fun () -> inst.E2e.op input) else inst.E2e.op input
        with e -> fun () -> Error (Printexc.to_string e)
      in
      if not is_traced then begin
        best.(input) <- min best.(input) (now_ns () - t0);
        allocated := !allocated +. (Gc.allocated_bytes () -. a0);
        incr untraced_ops
      end;
      incr attempted;
      match try check () with e -> Error (Printexc.to_string e) with
      | Ok () -> ()
      | Error msg ->
        incr failed;
        Printf.printf "FAIL %s op %d (input %d): %s\n%!" workload.E2e.name (!attempted - 1) input
          msg
    done;
    incr pass_no
  done;
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* Set-up is timed at least three times and until two seconds of
     set-ups (at most 25) have run, and reported as a median: the host's
     speed changes in blocks of about a second, which a median over
     several set-ups of a cheap set-up would otherwise sit inside.  The
     repeats run after the timed phase, so their garbage stays out of
     the peak heap. *)
  let setup_times =
    let rec more times =
      let spent = List.fold_left ( +. ) 0.0 times and k = List.length times in
      if smoke || trace || (k >= 3 && (k >= 25 || spent >= 2.0)) then times
      else more (snd (set_up ()) :: times)
    in
    List.rev (more [ first_setup ])
  in
  let untraced_ops_per_s = ops_per_s ~inputs:n (Array.fold_left ( + ) 0 best) in
  let metrics =
    if not trace then
      let latency_ms = Array.map (fun ns -> float_of_int ns /. 1e6) best in
      Array.sort compare latency_ms;
      let mib bytes = bytes /. 1048576.0 in
      [ { name = "setup_s"; value = median setup_times; unit_ = "s" };
        { name = "ops_per_s"; value = untraced_ops_per_s; unit_ = "1/s" };
        { name = "p50_ms"; value = quantile latency_ms 0.5; unit_ = "ms" };
        { name = "p90_ms"; value = quantile latency_ms 0.9; unit_ = "ms" };
        { name = "alloc_mb_per_op";
          value = mib (!allocated /. float_of_int !untraced_ops);
          unit_ = "MiB" };
        { name = "peak_heap_mb";
          value = mib (float_of_int (heap_words * (Sys.word_size / 8)));
          unit_ = "MiB" } ]
    else
      layer_metrics
        ~trace_overhead:
          (1.0 -. ratio (ops_per_s ~inputs:n (Trace.total_ns ())) untraced_ops_per_s)
  in
  say "workload %s seed %d: %d ops in %d passes of %d inputs, %d failed, set-up %s s\n"
    workload.E2e.name seed !attempted !pass_no n !failed
    (String.concat " / " (List.map (Printf.sprintf "%.3f") setup_times));
  if trace then begin
    if not quiet then Format.printf "%a%!" Trace.pp_table ();
    Option.iter
      (fun file ->
        Out_channel.with_open_bin file (fun oc -> output_string oc (Trace.chrome_trace ())))
      trace_out
  end;
  List.iter (fun m -> say "  %-24s %14.6g %s\n" m.name m.value m.unit_) metrics;
  { attempted = !attempted;
    failed = !failed;
    metrics;
    layer_sum_ns = List.fold_left (fun a (_, l) -> a + l.Trace.self_ns) 0 (Trace.rows ());
    traced_ns = Trace.total_ns () }

let to_json r =
  J.Obj
    [ ("correct", J.Bool (r.failed = 0));
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]))
             r.metrics) ) ]

let find_workload name =
  match List.find_opt (fun w -> w.E2e.name = name) E2e.all with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S; known: %s\n" name
      (String.concat " " (List.map (fun w -> w.E2e.name) E2e.all));
    exit 2

(* Smoke-run every workload with and without tracing and hold the output
   to BENCHMARK.json: its workloads exist, every run reports exactly its
   metrics with its units, no op fails, and layer rows sum to the traced
   total. *)
let self_test file =
  let spec =
    match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (file ^ ": " ^ e)
  in
  let entries key =
    Option.value ~default:[] (Option.bind (J.member key spec) J.to_list)
    |> List.map (fun e ->
           let field k = Option.value ~default:"" (Option.bind (J.member k e) J.to_str) in
           (field "name", field "unit"))
    |> List.sort compare
  in
  let problems = ref 0 in
  let expect cond fmt =
    Printf.ksprintf
      (fun msg ->
        if not cond then begin
          incr problems;
          Printf.printf "self-test: %s\n" msg
        end)
      fmt
  in
  List.iter
    (fun (name, _) ->
      expect (List.exists (fun w -> w.E2e.name = name) E2e.all) "%s: unknown workload %s" file name)
    (entries "workloads");
  List.iter
    (fun (w : E2e.t) ->
      List.iter
        (fun trace ->
          let t0 = now_ns () in
          let r = run ~quiet:true ~workload:w ~seed:1 ~seconds:0.0 ~trace ~smoke:true () in
          let got = List.sort compare (List.map (fun m -> (m.name, m.unit_)) r.metrics) in
          let label = Printf.sprintf "%s trace=%b" w.E2e.name trace in
          expect (r.attempted > 0) "%s: no op ran" label;
          expect (r.failed = 0) "%s: %d of %d ops failed" label r.failed r.attempted;
          let want = entries (if trace then "per_layer" else "end_to_end") in
          let names l = String.concat " " (List.map (fun (n, u) -> n ^ "/" ^ u) l) in
          let minus a b = List.filter (fun x -> not (List.mem x b)) a in
          expect (got = want) "%s: metrics differ from %s: missing [%s], unexpected [%s]" label
            file
            (names (minus want got))
            (names (minus got want));
          expect
            (float_of_int (abs (r.layer_sum_ns - r.traced_ns)) <= 0.01 *. float_of_int r.traced_ns)
            "%s: layer rows sum to %d ns, traced ops to %d ns" label r.layer_sum_ns r.traced_ns;
          Printf.printf "self-test %-20s %4d ops  %.2f s\n%!" label r.attempted
            (seconds_of (now_ns () - t0)))
        [ false; true ])
    E2e.all;
  if !problems > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_out = ref None and self_test_file = ref None in
  let usage = "main.exe --workload W --seed N [--seconds S] [--trace 0|1] | --self-test FILE" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W build, deliver, campaign or fuzz");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from traced ops");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE write a Chrome trace");
      ("--self-test", Arg.String (fun f -> self_test_file := Some f), "FILE check against FILE") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match !self_test_file with
  | Some file -> self_test file
  | None ->
    if !workload = "" then begin
      prerr_endline usage;
      exit 2
    end;
    let r =
      run ?trace_out:!trace_out ~workload:(find_workload !workload) ~seed:!seed ~seconds:!seconds
        ~trace:(!trace <> 0) ~smoke:false ()
    in
    print_endline (J.to_string (to_json r));
    if r.failed > 0 then exit 3
