(* Tests for the campaign engine: skipped and faulted outcomes in their
   items' slots, the report's arithmetic, and the core determinism
   contract — the deterministic and domain schedulers must produce
   identical outcome arrays for pure per-item jobs. *)

module Engine = Eric_engine.Engine

let check = Alcotest.check
let items n = Array.init n (fun i -> i)
let square i = Engine.Done (i * i)

let test_admit_skips () =
  let ran = ref 0 in
  let job i =
    if i mod 2 = 0 then Engine.Skipped "even is benched"
    else begin
      incr ran;
      Engine.Done i
    end
  in
  let r = Engine.run ~name:"t.admit" job (items 6) in
  check Alcotest.int "three skipped" 3 r.Engine.skipped;
  check Alcotest.int "three done" 3 r.Engine.jobs_done;
  check Alcotest.int "every item ran its job once" 3 !ran;
  Array.iteri
    (fun i c ->
      match c.Engine.c_outcome with
      | Engine.Skipped reason ->
        check Alcotest.bool "even skipped" true (i mod 2 = 0);
        check Alcotest.string "reason carried" "even is benched" reason
      | Engine.Done v -> check Alcotest.int "odd done with its own value" i v
      | Engine.Faulted e -> Alcotest.failf "unexpected fault: %s" e)
    r.Engine.completions

let test_faults_quarantine () =
  let job i = if i = 1 then Engine.Done i else Engine.Faulted "no route" in
  let r = Engine.run ~name:"t.quarantine" job (items 3) in
  check Alcotest.int "two quarantined" 2 r.Engine.quarantined;
  check Alcotest.int "one done" 1 r.Engine.jobs_done;
  Array.iteri
    (fun i c ->
      match c.Engine.c_outcome with
      | Engine.Faulted e ->
        check Alcotest.bool "faulted items" true (i <> 1);
        check Alcotest.string "reason kept" "no route" e
      | Engine.Done _ -> check Alcotest.int "done item" 1 i
      | Engine.Skipped _ -> Alcotest.fail "expected Faulted or Done")
    r.Engine.completions

let outcome_key = function
  | Engine.Done r -> Printf.sprintf "done:%d" r
  | Engine.Faulted e -> "faulted:" ^ e
  | Engine.Skipped s -> "skipped:" ^ s

(* The determinism gate in miniature: a mixed fleet of skips, faults and
   successes must complete identically under both schedulers. *)
let mixed_job i =
  if i mod 7 = 0 then Engine.Skipped "sampled out"
  else if i mod 5 = 3 then Engine.Faulted "bad die"
  else Engine.Done (i * 3)

let run_mixed scheduler n = Engine.run ~scheduler ~name:"t.det" mixed_job (items n)

let test_deterministic_vs_domains () =
  let n = 200 in
  let a = run_mixed Engine.Deterministic n in
  let b = run_mixed (Engine.Domains 3) n in
  check Alcotest.int "same queued" a.Engine.queued b.Engine.queued;
  check Alcotest.int "same done" a.Engine.jobs_done b.Engine.jobs_done;
  check Alcotest.int "same quarantined" a.Engine.quarantined b.Engine.quarantined;
  check Alcotest.int "same skipped" a.Engine.skipped b.Engine.skipped;
  Array.iteri
    (fun i (ca : _ Engine.completion) ->
      let cb = b.Engine.completions.(i) in
      check Alcotest.string
        (Printf.sprintf "job %d same outcome" i)
        (outcome_key ca.Engine.c_outcome) (outcome_key cb.Engine.c_outcome))
    a.Engine.completions

let test_scheduler_of_string () =
  let ok s = match Engine.scheduler_of_string s with Ok c -> c | Error e -> Alcotest.fail e in
  check Alcotest.bool "deterministic" true (ok "deterministic" = Engine.Deterministic);
  check Alcotest.bool "det alias" true (ok "det" = Engine.Deterministic);
  check Alcotest.bool "domains" true (ok "domains" = Engine.Domains 0);
  check Alcotest.bool "domains:4" true (ok "domains:4" = Engine.Domains 4);
  List.iter
    (fun s ->
      match Engine.scheduler_of_string s with
      | Ok _ -> Alcotest.fail (s ^ " accepted")
      | Error _ -> ())
    [ "bogus"; "domains:0"; "domains:-2"; "domains:x"; "" ];
  check Alcotest.string "label round-trips" "domains:4"
    (Engine.scheduler_label (ok (Engine.scheduler_label (Engine.Domains 4))))

let test_report_shape () =
  let r = Engine.run ~name:"t.report" square (items 50) in
  check Alcotest.string "deterministic label" "deterministic" r.Engine.scheduler_used;
  check Alcotest.int "one worker" 1 (Array.length r.Engine.workers);
  check Alcotest.int "worker saw every job" 50 r.Engine.workers.(0).Engine.w_jobs;
  check Alcotest.bool "throughput positive" true (Engine.throughput_per_s r > 0.0);
  check Alcotest.bool "utilization sane" true
    (r.Engine.utilization >= 0.0 && r.Engine.utilization <= 1.5);
  (* empty runs don't divide by zero *)
  let empty = Engine.run ~name:"t.empty" square [||] in
  check Alcotest.int "empty queued" 0 empty.Engine.queued;
  check (Alcotest.float 0.0) "empty utilization" 0.0 empty.Engine.utilization

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "admit benches items as skipped" `Quick test_admit_skips;
          Alcotest.test_case "non-retryable faults quarantine" `Quick test_faults_quarantine;
          Alcotest.test_case "report shape and telemetry-free math" `Quick test_report_shape;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "deterministic = domains, job for job" `Quick
            test_deterministic_vs_domains;
          Alcotest.test_case "scheduler_of_string" `Quick test_scheduler_of_string;
        ] );
    ]
