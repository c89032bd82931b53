(* The campaign engine: a generic parallel map that runs one job
   function per item and returns every item's outcome in its slot.  A
   job returns its item's outcome; a flow that must try again (the fleet
   shipper's backoff loop) does so inside its job, never here.

   Two schedulers sit behind one signature:

   - [Deterministic]: jobs run in index order on the calling thread.
     Reproducible everywhere (including OCaml 4.14), the reference
     semantics for tests.
   - [Domains n]: jobs run on an OCaml-5 domain pool ({!Pool}); on a
     runtime without domains the pool degrades to sequential execution
     and the report says so ([scheduler_used = "domains-fallback"]).

   Determinism contract: a job's outcome may depend only on its item
   (and state owned by that item, e.g. one device's PRNG) — never on
   execution order.  Under that contract both schedulers produce
   identical outcome arrays, because results land by job index
   regardless of completion order.  The only thing allowed to differ is
   wall-clock timing. *)

type scheduler = Deterministic | Domains of int  (* 0 = runtime's recommendation *)

let scheduler_of_string s =
  match String.split_on_char ':' s with
  | [ "deterministic" ] | [ "det" ] -> Ok Deterministic
  | [ "domains" ] -> Ok (Domains 0)
  | [ "domains"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 1 -> Ok (Domains n)
    | _ -> Error "domains:<positive worker count>")
  | _ -> Error (Printf.sprintf "unknown scheduler %S (expected deterministic or domains[:N])" s)

let scheduler_label = function
  | Deterministic -> "deterministic"
  | Domains 0 -> "domains"
  | Domains n -> Printf.sprintf "domains:%d" n

type 'r outcome = Done of 'r | Faulted of string | Skipped of string

type 'r completion = {
  c_outcome : 'r outcome;
  c_ns : int64;  (* wall time inside the job *)
}

type worker = { w_jobs : int; w_busy_ns : int64; w_steals : int }

type 'r report = {
  name : string;
  scheduler_used : string;
  queued : int;
  completions : 'r completion array;  (* by job index *)
  jobs_done : int;
  quarantined : int;
  skipped : int;
  workers : worker array;
  wall_ns : int64;
  utilization : float;  (* busy time / (wall * workers), 0 when idle *)
}

let run_job job item =
  let t0 = Eric_telemetry.Clock.now_ns () in
  let outcome = job item in
  { c_outcome = outcome; c_ns = Int64.sub (Eric_telemetry.Clock.now_ns ()) t0 }

let run ?(scheduler = Deterministic) ~name job items =
  Eric_telemetry.Span.with_ ~cat:"engine" ~name:"engine.run" (fun () ->
      let n = Array.length items in
      let t0 = Eric_telemetry.Clock.now_ns () in
      Eric_telemetry.Registry.inc "engine.runs_total";
      Eric_telemetry.Registry.inc ~by:(Int64.of_int n) "engine.jobs.queued_total";
      let completions = Array.make n { c_outcome = Skipped "unscheduled"; c_ns = 0L } in
      let used =
        match scheduler with
        | Deterministic -> "deterministic"
        | Domains _ when Pool.available -> scheduler_label scheduler
        | Domains _ -> "domains-fallback"
      in
      let workers =
        if n = 0 then [||]
        else
          match scheduler with
          | Deterministic ->
            let busy = ref 0L in
            for i = 0 to n - 1 do
              let c = run_job job items.(i) in
              completions.(i) <- c;
              busy := Int64.add !busy c.c_ns
            done;
            [| { w_jobs = n; w_busy_ns = !busy; w_steals = 0 } |]
          | Domains want ->
            let workers = if want = 0 then Pool.recommended () else max 1 want in
            Pool.run ~workers ~n ~f:(fun ~worker:_ i -> completions.(i) <- run_job job items.(i))
            |> Array.map (fun (s : Pool.stat) ->
                   { w_jobs = s.Pool.s_jobs; w_busy_ns = s.Pool.s_busy_ns; w_steals = s.Pool.s_steals })
      in
      let wall_ns = Int64.sub (Eric_telemetry.Clock.now_ns ()) t0 in
      let jobs_done = ref 0 and quarantined = ref 0 and skipped = ref 0 in
      Array.iter
        (fun c ->
          match c.c_outcome with
          | Done _ -> incr jobs_done
          | Faulted _ -> incr quarantined
          | Skipped _ -> incr skipped)
        completions;
      let busy = Array.fold_left (fun a w -> Int64.add a w.w_busy_ns) 0L workers in
      let utilization =
        if Array.length workers = 0 || Int64.compare wall_ns 0L <= 0 then 0.0
        else
          Int64.to_float busy
          /. (Int64.to_float wall_ns *. float_of_int (Array.length workers))
      in
      Eric_telemetry.Registry.inc ~by:(Int64.of_int !jobs_done) "engine.jobs.done_total";
      Eric_telemetry.Registry.inc ~by:(Int64.of_int !quarantined) "engine.jobs.quarantined_total";
      Eric_telemetry.Registry.inc ~by:(Int64.of_int !skipped) "engine.jobs.skipped_total";
      if Eric_telemetry.Control.is_enabled () then begin
        Eric_telemetry.Registry.inc
          ~by:(Int64.of_int (Array.fold_left (fun a w -> a + w.w_steals) 0 workers))
          "engine.steals_total";
        Array.iteri
          (fun i w ->
            Eric_telemetry.Registry.observe
              ~labels:[ ("worker", string_of_int i) ]
              "engine.worker.busy_ns" (Int64.to_float w.w_busy_ns))
          workers;
        Eric_telemetry.Registry.set ~labels:[ ("sched", used) ] "engine.utilization"
          utilization;
        Eric_telemetry.Registry.observe "engine.wall_ns" (Int64.to_float wall_ns)
      end;
      {
        name;
        scheduler_used = used;
        queued = n;
        completions;
        jobs_done = !jobs_done;
        quarantined = !quarantined;
        skipped = !skipped;
        workers;
        wall_ns;
        utilization;
      })

let throughput_per_s r =
  if Int64.compare r.wall_ns 0L <= 0 then 0.0
  else float_of_int r.queued /. (Int64.to_float r.wall_ns /. 1e9)
