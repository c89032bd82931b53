(* The campaign engine: a generic parallel work queue that runs one job
   function per item under a bounded in-flight window.  A job returns
   its item's outcome; a flow that must try again (the fleet shipper's
   backoff loop) does so inside its job, never here.

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
   identical outcome arrays, because results land by job index and
   commits are replayed in index order regardless of completion order.
   The only thing allowed to differ is wall-clock timing. *)

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

type config = {
  scheduler : scheduler;
  window : int;  (* max jobs in flight / committed per batch *)
}

let default_config = { scheduler = Deterministic; window = 1024 }

type 'r outcome = Done of 'r | Faulted of string | Skipped of string

type 'r completion = {
  c_index : int;
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

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let count ?by name =
  if Eric_telemetry.Control.is_enabled () then Eric_telemetry.Registry.inc ?by name

let run_job job item ~index =
  let t0 = now_ns () in
  let outcome = job item in
  { c_index = index; c_outcome = outcome; c_ns = Int64.sub (now_ns ()) t0 }

(* Per-worker stats accumulate across window batches; batches may use
   fewer workers (e.g. the last, short one), so merge to the longer. *)
let merge_workers acc stats =
  match acc with
  | None -> Some stats
  | Some a ->
    let len = max (Array.length a) (Array.length stats) in
    let zero = { w_jobs = 0; w_busy_ns = 0L; w_steals = 0 } in
    let at arr i = if i < Array.length arr then arr.(i) else zero in
    Some
      (Array.init len (fun i ->
           let x = at a i and y = at stats i in
           {
             w_jobs = x.w_jobs + y.w_jobs;
             w_busy_ns = Int64.add x.w_busy_ns y.w_busy_ns;
             w_steals = x.w_steals + y.w_steals;
           }))

let run ?(config = default_config) ?(commit = fun (_ : _ completion) -> ()) ~name job items =
  if config.window < 1 then invalid_arg "Engine.run: window must be positive";
  Eric_telemetry.Span.with_ ~cat:"engine" ~name:"engine.run" (fun () ->
      let n = Array.length items in
      let t0 = now_ns () in
      count "engine.runs_total";
      count ~by:(Int64.of_int n) "engine.jobs.queued_total";
      let completions =
        Array.make n { c_index = 0; c_outcome = Skipped "unscheduled"; c_ns = 0L }
      in
      let sequential lo hi =
        let busy = ref 0L in
        for i = lo to hi - 1 do
          let c = run_job job items.(i) ~index:i in
          completions.(i) <- c;
          busy := Int64.add !busy c.c_ns
        done;
        [| { w_jobs = hi - lo; w_busy_ns = !busy; w_steals = 0 } |]
      in
      let used, workers =
        (* The window bounds how many jobs are in flight before their
           completions are committed; batches run back to back. *)
        let rec batches lo acc =
          if lo >= n then acc
          else begin
            let hi = min n (lo + config.window) in
            let stats =
              match config.scheduler with
              | Deterministic -> sequential lo hi
              | Domains want ->
                let want = if want = 0 then Pool.recommended () else want in
                let workers = max 1 (min want config.window) in
                Pool.run ~workers ~n:(hi - lo) ~f:(fun ~worker:_ i ->
                    completions.(lo + i) <- run_job job items.(lo + i) ~index:(lo + i))
                |> Array.map (fun (s : Pool.stat) ->
                       { w_jobs = s.Pool.s_jobs; w_busy_ns = s.Pool.s_busy_ns; w_steals = s.Pool.s_steals })
            in
            (* replay this batch's completions in index order *)
            for i = lo to hi - 1 do
              commit completions.(i)
            done;
            batches hi (merge_workers acc stats)
          end
        in
        let workers =
          match batches 0 None with
          | Some w -> w
          | None -> [||]
        in
        let used =
          match config.scheduler with
          | Deterministic -> "deterministic"
          | Domains _ when Pool.available -> scheduler_label config.scheduler
          | Domains _ -> "domains-fallback"
        in
        (used, workers)
      in
      let wall_ns = Int64.sub (now_ns ()) t0 in
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
      count ~by:(Int64.of_int !jobs_done) "engine.jobs.done_total";
      count ~by:(Int64.of_int !quarantined) "engine.jobs.quarantined_total";
      count ~by:(Int64.of_int !skipped) "engine.jobs.skipped_total";
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
