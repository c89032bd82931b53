type config = {
  count : int;
  seed : int64;
  size : int;
  mode : Eric.Config.mode;
  device_id : int64;
  fuel : int;
  corpus_dir : string option;
  mutate_pct : int;
  shrink_budget : int;
  max_failures : int;
  options : Eric_cc.Driver.options;
}

let default_config =
  {
    count = 1000;
    seed = 0xF22DL;
    size = 26;
    mode = Eric.Config.Full;
    device_id = 0xE51CL;
    fuel = Oracle.default_fuel;
    corpus_dir = None;
    mutate_pct = 30;
    shrink_budget = 400;
    max_failures = 10;
    options = Eric_cc.Driver.default_options;
  }

type failure = {
  f_kind : Corpus.kind;
  f_seed : int64;
  f_trace : int array;
  f_source : string;
  f_note : string;
  f_shrink_tests : int;
  f_path : string option;
}

type stats = {
  programs : int;
  divergences : int;
  compile_errors : int;
  exhausted : int;
  mutated : int;
  shrink_tests : int;
  wall_ns : int64;
}

type outcome = { stats : stats; failures : failure list }

(* The pool of recent well-behaved traces the mutation engine feeds on. *)
let pool_cap = 64

let classify config report =
  if Oracle.agree report then None
  else
    Some
      (Format.asprintf "%a (mode %a)" Oracle.pp_report report Eric.Config.pp_mode config.mode
      |> String.map (function '\n' -> ' ' | c -> c))

let run ?(config = default_config) ?(on_progress = fun _ -> ()) () =
  let rng = Eric_util.Prng.create ~seed:config.seed in
  let pool = Array.make pool_cap [||] in
  let pool_len = ref 0 and pool_next = ref 0 in
  let add_pool trace =
    pool.(!pool_next) <- trace;
    pool_next := (!pool_next + 1) mod pool_cap;
    if !pool_len < pool_cap then incr pool_len
  in
  let oracle source =
    Oracle.run ~fuel:config.fuel ~mode:config.mode ~device_id:config.device_id
      ~options:config.options source
  in
  let divergences = ref 0 and compile_errors = ref 0 and mutated = ref 0 in
  let exhausted = ref 0 in
  let shrink_tests = ref 0 in
  let programs = ref 0 in
  let failures = ref [] in
  let shrink_and_record ~kind ~seed ~note ~failing trace =
    let min_trace, tests = Shrink.minimize ~max_tests:config.shrink_budget ~failing trace in
    shrink_tests := !shrink_tests + tests;
    let min_prog = Gen.of_trace ~size:config.size min_trace in
    let entry =
      { Corpus.kind; seed; trace = min_prog.Gen.trace; source = min_prog.Gen.source; note }
    in
    let path =
      match config.corpus_dir with
      | None -> None
      | Some dir -> ( match Corpus.save ~dir entry with Ok p -> Some p | Error _ -> None)
    in
    failures :=
      {
        f_kind = kind;
        f_seed = seed;
        f_trace = min_prog.Gen.trace;
        f_source = min_prog.Gen.source;
        f_note = note;
        f_shrink_tests = tests;
        f_path = path;
      }
      :: !failures
  in
  let started = Eric_telemetry.Clock.now_ns () in
  (try
     for _ = 1 to config.count do
       let prog_seed = Eric_util.Prng.bits64 rng in
       let from_pool =
         !pool_len > 0 && Eric_util.Prng.int rng ~bound:100 < config.mutate_pct
       in
       let prog =
         if from_pool then begin
           incr mutated;
           let parent = pool.(Eric_util.Prng.int rng ~bound:!pool_len) in
           Gen.of_trace ~size:config.size (Mutate.mutate ~rng parent)
         end
         else Gen.generate ~size:config.size ~seed:prog_seed ()
       in
       incr programs;
       Eric_telemetry.Registry.inc "verif.programs_total";
       (match oracle prog.Gen.source with
       | Ok report when Oracle.agree report -> add_pool prog.Gen.trace
       | Ok report when Oracle.exhausted report ->
         (* a fuel limit is a harness artifact, not a behaviour: the
            report is incomparable, and a runaway program is a bad
            mutation seed, so it is counted and dropped *)
         incr exhausted;
         Eric_telemetry.Registry.inc "verif.exhausted_total"
       | Ok report ->
         incr divergences;
         Eric_telemetry.Registry.inc "verif.divergences_total";
         let note = Option.value ~default:"divergence" (classify config report) in
         let failing trace =
           match oracle (Gen.of_trace ~size:config.size trace).Gen.source with
           | Ok r -> Oracle.diverges r
           | Error _ -> false
         in
         shrink_and_record ~kind:Corpus.Divergence ~seed:prog_seed ~note ~failing
           prog.Gen.trace
       | Error msg ->
         (* The generator only emits well-formed MiniC: a compile failure
            is a frontend (or generator) bug, never noise. *)
         incr compile_errors;
         Eric_telemetry.Registry.inc "verif.compile_errors_total";
         let failing trace =
           match oracle (Gen.of_trace ~size:config.size trace).Gen.source with
           | Error _ -> true
           | Ok _ -> false
         in
         shrink_and_record ~kind:Corpus.Compile_error ~seed:prog_seed
           ~note:("compile error: " ^ msg) ~failing prog.Gen.trace);
       if !programs mod 500 = 0 then on_progress !programs;
       if List.length !failures >= config.max_failures then raise Exit
     done
   with Exit -> ());
  let wall_ns = Int64.sub (Eric_telemetry.Clock.now_ns ()) started in
  {
    stats =
      {
        programs = !programs;
        divergences = !divergences;
        compile_errors = !compile_errors;
        exhausted = !exhausted;
        mutated = !mutated;
        shrink_tests = !shrink_tests;
        wall_ns;
      };
    failures = List.rev !failures;
  }

let replay ?(fuel = Oracle.default_fuel) ?(mode = Eric.Config.Full) ?(device_id = 0xE51CL)
    ?(options = Eric_cc.Driver.default_options) (entry : Corpus.entry) =
  Oracle.run ~fuel ~mode ~device_id ~options (Gen.of_trace entry.Corpus.trace).Gen.source

let pp_stats fmt s =
  let secs = Int64.to_float s.wall_ns /. 1e9 in
  let rate = if secs > 0. then float_of_int s.programs /. secs else 0. in
  Format.fprintf fmt
    "@[<v>programs       : %d (%d mutated, %d dropped for fuel)@,divergences    : %d@,\
     compile errors : %d@,shrink tests   : %d@,wall time      : %.2f s (%.0f programs/s)@]"
    s.programs s.mutated s.exhausted s.divergences s.compile_errors s.shrink_tests secs rate

let pp_failure fmt f =
  Format.fprintf fmt "@[<v>[%s] seed=%Ld trace=%d draws%s@,note: %s@,%s@]"
    (match f.f_kind with
    | Corpus.Divergence -> "divergence"
    | Corpus.Compile_error -> "compile-error"
    | Corpus.Injection_escape _ -> "injection-escape")
    f.f_seed (Array.length f.f_trace)
    (match f.f_path with None -> "" | Some p -> " saved=" ^ p)
    f.f_note f.f_source
