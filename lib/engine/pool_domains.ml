(* Domain-based pool (OCaml >= 5.0): self-scheduling over contiguous
   chunks with work stealing.

   Every chunk [c] owns an atomic cursor; claiming an index is one
   [Atomic.fetch_and_add], whether by the owner or a thief, so each
   index is executed exactly once and the claim path is identical either
   way — "stealing" is just claiming from a chunk you don't own.  A
   worker drains its own chunk first (cache-friendly, zero contention in
   the common case), then repeatedly raids whichever chunk has the most
   work left. *)

let available = true
let recommended () = Domain.recommended_domain_count ()

type stat = { s_jobs : int; s_busy_ns : int64; s_steals : int }

let run ~workers ~n ~f =
  if workers < 1 then invalid_arg "Pool.run: workers must be positive";
  if n < 0 then invalid_arg "Pool.run: negative job count";
  let workers = min workers (max 1 n) in
  let chunk w =
    (* contiguous [lo, hi) chunks differing by at most one in size *)
    let q = n / workers and r = n mod workers in
    let lo = (w * q) + min w r in
    let hi = lo + q + if w < r then 1 else 0 in
    (lo, hi)
  in
  let cursors = Array.init workers (fun w -> Atomic.make (fst (chunk w))) in
  let failure = Atomic.make None in
  let work w =
    let jobs = ref 0 and steals = ref 0 and busy = ref 0L in
    let claim c =
      let _, hi = chunk c in
      let i = Atomic.fetch_and_add cursors.(c) 1 in
      if i < hi then Some i else None
    in
    let execute ~stolen i =
      let t0 = Eric_telemetry.Clock.now_ns () in
      (try f ~worker:w i
       with e ->
         (* first failure wins; the pool still drains so joins return *)
         ignore (Atomic.compare_and_set failure None (Some e)));
      busy := Int64.add !busy (Int64.sub (Eric_telemetry.Clock.now_ns ()) t0);
      incr jobs;
      if stolen then incr steals
    in
    let rec drain_own () =
      if Atomic.get failure = None then
        match claim w with
        | Some i ->
          execute ~stolen:false i;
          drain_own ()
        | None -> ()
    in
    (* raid the chunk with the most remaining work until all are dry *)
    let rec drain_others () =
      if Atomic.get failure = None then begin
        let victim = ref (-1) and best = ref 0 in
        for c = 0 to workers - 1 do
          if c <> w then begin
            let _, hi = chunk c in
            let left = hi - Atomic.get cursors.(c) in
            if left > !best then begin
              best := left;
              victim := c
            end
          end
        done;
        if !victim >= 0 then begin
          (match claim !victim with
          | Some i -> execute ~stolen:true i
          | None -> ());
          drain_others ()
        end
      end
    in
    drain_own ();
    drain_others ();
    { s_jobs = !jobs; s_busy_ns = !busy; s_steals = !steals }
  in
  let stats =
    if workers = 1 then [| work 0 |]
    else begin
      let spawned = Array.init (workers - 1) (fun i -> Domain.spawn (fun () -> work (i + 1))) in
      let mine = work 0 in
      Array.append [| mine |] (Array.map Domain.join spawned)
    end
  in
  (match Atomic.get failure with Some e -> raise e | None -> ());
  stats
