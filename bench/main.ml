(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md's experiment index), the ablation
   studies, and the bechamel microbenchmarks.

   Usage: main.exe [table1|table2|fig5|fig6|fig7|ablations|lint|fleet|engine|serve|pufrel|obf|verif|micro|all]... *)

let experiments =
  [ ("table1", Experiments.table1);
    ("table2", Experiments.table2);
    ("fig5", Experiments.fig5);
    ("fig6", Experiments.fig6);
    ("fig7", Experiments.fig7);
    ("ablations", Experiments.ablations);
    ("lint", Experiments.lint);
    ("fleet", Experiments.fleet);
    ("engine", Experiments.engine);
    ("serve", Experiments.serve);
    ("pufrel", Experiments.pufrel);
    ("obf", Experiments.obf);
    ("verif", Experiments.verif);
    ("micro", Micro.run) ]

let run_all () = List.iter (fun (_, f) -> f ()) experiments

(* Dump every bench.result{suite,metric,unit} gauge the run recorded
   (see Report.record) as machine-readable JSON, one row per metric.
   Suites not exercised by this run keep their rows from the existing
   file, so a partial run (e.g. `main.exe verif`) refreshes its own
   numbers without discarding everyone else's. *)
let results_file = "BENCH_results.json"

module Json = Eric_telemetry.Json

(* The rows of the existing file, as (suite, row) pairs; rows without a
   "suite" string are dropped.  A file that is not a JSON array is
   reported and replaced rather than read halfway. *)
let existing_rows () =
  if not (Sys.file_exists results_file) then []
  else
    let text = In_channel.with_open_bin results_file In_channel.input_all in
    match Result.map Json.to_list (Json.of_string text) with
    | Ok (Some rows) ->
      List.filter_map
        (fun row ->
          Option.map (fun suite -> (suite, row)) (Option.bind (Json.member "suite" row) Json.to_str))
        rows
    | Ok None | Error _ ->
      Printf.eprintf "%s is not a JSON array of results; replacing it\n" results_file;
      []

let write_results () =
  let snapshot = Eric_telemetry.Snapshot.capture () in
  let rows =
    List.filter_map
      (fun (name, labels, value) ->
        if name <> "bench.result" then None
        else
          let label key = Option.value ~default:"" (List.assoc_opt key labels) in
          Some
            ( label "suite",
              Json.Obj
                [ ("suite", Json.Str (label "suite"));
                  ("metric", Json.Str (label "metric"));
                  ("value", Json.Num value);
                  ("unit", Json.Str (label "unit")) ] ))
      snapshot.Eric_telemetry.Snapshot.gauges
  in
  if rows <> [] then begin
    let fresh_suites = List.map fst rows in
    let kept =
      List.filter (fun (suite, _) -> not (List.mem suite fresh_suites)) (existing_rows ())
    in
    let all = List.map snd kept @ List.map snd rows in
    let oc = open_out results_file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string (Json.List all));
        output_char oc '\n');
    Printf.printf "\n%d results -> %s (%d kept from previous runs)\n" (List.length rows)
      results_file (List.length kept)
  end

let () =
  (match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> run_all ()
  | _ :: picks ->
    List.iter
      (fun pick ->
        match List.assoc_opt pick experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; known: %s all\n" pick
            (String.concat " " (List.map fst experiments));
          exit 2)
      picks
  | [] -> run_all ());
  write_results ()
