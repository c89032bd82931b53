(* Sequential fallback for OCaml < 5.0: same signature as the domain
   pool, runs every index in order on the calling thread.  [available]
   is false so callers (and their telemetry) can report that requests
   for parallelism degraded to sequential execution rather than
   pretending domains ran. *)

let available = false
let recommended () = 1

type stat = { s_jobs : int; s_busy_ns : int64; s_steals : int }

let run ~workers ~n ~f =
  if workers < 1 then invalid_arg "Pool.run: workers must be positive";
  if n < 0 then invalid_arg "Pool.run: negative job count";
  let busy = ref 0L in
  for i = 0 to n - 1 do
    let t0 = Eric_telemetry.Clock.now_ns () in
    f ~worker:0 i;
    busy := Int64.add !busy (Int64.sub (Eric_telemetry.Clock.now_ns ()) t0)
  done;
  [| { s_jobs = n; s_busy_ns = !busy; s_steals = 0 } |]
