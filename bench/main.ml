(* Benchmark harness entry point: regenerates the paper's evaluation (see
   DESIGN.md's experiment index).  [claims] prints every deterministic
   table and figure, and [dune runtest] diffs it against
   bench/claims.expected; [fig6] and [micro] are wall-clock.

   Usage: main.exe [claims|fig6|micro|all]... *)

let experiments =
  [ ("claims", Experiments.claims); ("fig6", Experiments.fig6); ("micro", Micro.run) ]

let run_all () = List.iter (fun (_, f) -> f ()) experiments

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] | [ _; "all" ] -> run_all ()
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
