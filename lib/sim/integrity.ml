module Guard = Eric_hw.Guard
module Memory = Eric_util.Memory

type stats = {
  mutable scrub_passes : int;
  mutable granules_checked : int;
  mutable granules_reenrolled : int;
  mutable fetch_checks : int;
  mutable guard_cycles : int;
}

type t = {
  cfg : Guard.config;
  memory : Memory.t;
  base : int;  (** text_base *)
  limit : int;  (** end of the guarded span, granule-aligned *)
  writable_from : int;  (** data_base: granules below are immutable *)
  refs : int64 array;
  dirty : bool array;
  current : bool array;
      (** [refs.(g)] is the digest of the granule's current bytes: set when
          a hash matches or re-enrolls, cleared by any store into [g] *)
  pass_cycles : int;
  fetch_cycles : int;
  interval : int option;  (** between scrub passes, in core cycles; [None]: no scrubbing *)
  mutable next_scrub : int;  (** core cycle count at which the next pass is due *)
  stats : stats;
}

let granule_index t addr = (addr - t.base) / t.cfg.Guard.granule_bytes

(* FNV-1a 64 ({!Memory.fnv1a}): cheap, deterministic, and a single
   flipped bit always changes the digest (the model's stand-in for
   truncated SHA-256). *)
let granule_digest t g =
  Memory.fnv1a t.memory
    ~addr:(t.base + (g * t.cfg.Guard.granule_bytes))
    ~len:t.cfg.Guard.granule_bytes

let next_scrub_after interval ~now = match interval with Some i -> now + i | None -> max_int

let create ~config ~image memory =
  (match Guard.validate config with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Integrity.create: " ^ e));
  let open Eric_rv.Program in
  let base = Layout.text_base in
  let resident = Layout.bss_base image + image.bss_size - base in
  let n = Guard.granules config ~bytes:resident in
  let limit = base + (n * config.Guard.granule_bytes) in
  (* Kept, not asked of [Guard] per pass: its answer allocates a [Some]. *)
  let interval = Guard.scrub_interval config in
  let t =
    {
      cfg = config;
      memory;
      base;
      limit;
      writable_from = Layout.data_base image;
      refs = Array.make n 0L;
      dirty = Array.make n false;
      current = Array.make n false;
      pass_cycles = Guard.scrub_pass_cycles config ~resident_bytes:resident;
      fetch_cycles = Guard.fetch_check_cycles config;
      interval;
      next_scrub = next_scrub_after interval ~now:0;
      stats =
        {
          scrub_passes = 0;
          granules_checked = 0;
          granules_reenrolled = 0;
          fetch_checks = 0;
          guard_cycles = 0;
        };
    }
  in
  (* Enroll from the *image*, not from memory: the silicon computes the
     reference digests while the validated load streams through the HDE,
     i.e. before any later upset — a flip injected between load and run
     must diverge from these, not become them. *)
  let granule = config.Guard.granule_bytes in
  (* [Memory.create] refuses an empty memory. *)
  let pristine = Memory.create ~size:(max 1 n * granule) in
  Memory.blit_bytes pristine ~addr:0 image.text;
  Memory.blit_bytes pristine ~addr:(Layout.data_base image - base) image.data;
  for g = 0 to n - 1 do
    t.refs.(g) <- Memory.fnv1a pristine ~addr:(g * granule) ~len:granule
  done;
  t

let stats t = t.stats

let mismatch_msg t g =
  Printf.sprintf "integrity guard: granule at 0x%x (%d bytes) diverges from its load-time digest"
    (t.base + (g * t.cfg.Guard.granule_bytes))
    t.cfg.Guard.granule_bytes

(* A store clears [current] for every granule it overlaps, text
   included, so the next check hashes it.  Only the data/bss span is
   legitimately writable; stores below [writable_from] (self-modifying
   text) stay un-enrolled so that hash faults them. *)
let track_store t ~addr ~len =
  if addr + len > t.base && addr < t.limit then begin
    let hi = min (addr + len) t.limit in
    for g = granule_index t (max addr t.base) to granule_index t (hi - 1) do
      t.current.(g) <- false
    done;
    if hi > t.writable_from then
      for g = granule_index t (max addr t.writable_from) to granule_index t (hi - 1) do
        t.dirty.(g) <- true
      done
  end

(* Check clean granule [g] against its reference digest, hashing it only
   if no hash has matched since the last store into it. *)
let matches t g =
  if not t.current.(g) then t.current.(g) <- granule_digest t g = t.refs.(g);
  t.current.(g)

let fetch_check t ~addr =
  if addr >= t.base && addr < t.limit then begin
    let g = granule_index t addr in
    t.stats.fetch_checks <- t.stats.fetch_checks + 1;
    t.stats.guard_cycles <- t.stats.guard_cycles + t.fetch_cycles;
    if not (t.dirty.(g) || matches t g) then raise (Cpu.Integrity_violation (mismatch_msg t g));
    t.fetch_cycles
  end
  else 0

let attach t cpu =
  Cpu.set_store_hook cpu (Some (fun ~addr ~len -> track_store t ~addr ~len));
  if Guard.fetch_checked t.cfg then
    Cpu.set_ifetch_miss_hook cpu (Some (fun ~addr -> fetch_check t ~addr))

let scrub_due t ~now = now >= t.next_scrub
let next_scrub t = t.next_scrub

let scrub t cpu =
  t.stats.scrub_passes <- t.stats.scrub_passes + 1;
  t.stats.guard_cycles <- t.stats.guard_cycles + t.pass_cycles;
  Cpu.charge cpu t.pass_cycles;
  let fault = ref (-1) in
  for g = 0 to Array.length t.refs - 1 do
    if t.dirty.(g) then begin
      t.refs.(g) <- granule_digest t g;
      t.dirty.(g) <- false;
      t.current.(g) <- true;
      t.stats.granules_reenrolled <- t.stats.granules_reenrolled + 1
    end
    else begin
      t.stats.granules_checked <- t.stats.granules_checked + 1;
      if (not (matches t g)) && !fault < 0 then fault := g
    end
  done;
  if !fault >= 0 then Cpu.fault_integrity cpu (mismatch_msg t !fault);
  t.next_scrub <- next_scrub_after t.interval ~now:(Cpu.cycles cpu)

let verify_all t =
  let fault = ref None in
  (* A pure audit: peek without touching stats or dirty state. *)
  let n = Array.length t.refs in
  (try
     for g = 0 to n - 1 do
       if (not t.dirty.(g)) && granule_digest t g <> t.refs.(g) then begin
         fault := Some g;
         raise Exit
       end
     done
   with Exit -> ());
  match !fault with Some g -> Error (mismatch_msg t g) | None -> Ok ()
