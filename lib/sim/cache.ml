type config = { size_bytes : int; ways : int; line_bytes : int }

let table1_config = { size_bytes = 16 * 1024; ways = 4; line_bytes = 64 }

type stats = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

type way_state = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable age : int }

type t = {
  cfg : config;
  ways : way_state array;  (** set [s] holds [ways.(s * cfg.ways)] onwards *)
  nsets : int;
  line_shift : int;  (** log2 line_bytes *)
  set_shift : int;  (** log2 of the set count *)
  stats_ : stats;
  mutable clock : int; (* monotonically increasing LRU timestamp *)
  mutable last_line : int;  (** the line of the previous access ... *)
  mutable last_way : int;  (** ... and the index of the way that holds it; see [access] *)
}

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let log2 v =
  let rec go k = if 1 lsl k >= v then k else go (k + 1) in
  go 0

let create cfg =
  if not (is_power_of_two cfg.line_bytes) then invalid_arg "Cache.create: line size not a power of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines mod cfg.ways <> 0 then invalid_arg "Cache.create: geometry does not divide";
  let nsets = lines / cfg.ways in
  if not (is_power_of_two nsets) then invalid_arg "Cache.create: set count not a power of two";
  {
    cfg;
    ways = Array.init lines (fun _ -> { tag = 0; valid = false; dirty = false; age = 0 });
    nsets;
    line_shift = log2 cfg.line_bytes;
    set_shift = log2 nsets;
    stats_ = { accesses = 0; hits = 0; misses = 0; writebacks = 0 };
    clock = 0;
    last_line = 0;
    last_way = 0;
  }

let config t = t.cfg
let stats t = t.stats_

type outcome = Hit | Miss of { writeback : bool }

(* Preallocated, so that an access allocates nothing. *)
let clean_miss = Miss { writeback = false }
let dirty_miss = Miss { writeback = true }

(* A repeat of the previous access's line is a hit on the way that
   access left holding it, with no scan and no LRU update.  That is exact
   under true LRU: the way already has the newest age in its set, and no
   access came in between, so no later eviction can choose differently.
   Before the first access the remembered way is the first, which is
   invalid.  Every other access replaces the remembered line, negative
   addresses included, because its miss may have evicted the remembered
   way.  The remembered way is an index, so that replacing it stores no
   pointer.

   A set never holds a line twice (a miss fills a line no way holds), so
   the scan stops at the first match. *)
let access t ~addr ~write =
  let s = t.stats_ in
  s.accesses <- s.accesses + 1;
  (* Shifts for the usual non-negative address; a negative one (about to
     fault) keeps division's rounding toward zero. *)
  let line = if addr >= 0 then addr lsr t.line_shift else addr / t.cfg.line_bytes in
  let last = t.ways.(t.last_way) in
  if line = t.last_line && last.valid then begin
    s.hits <- s.hits + 1;
    if write then last.dirty <- true;
    Hit
  end
  else begin
    t.clock <- t.clock + 1;
    t.last_line <- line;
    let ways = t.cfg.ways in
    let first = (line land (t.nsets - 1)) * ways in
    let tag = if line >= 0 then line lsr t.set_shift else line / t.nsets in
    let stop = first + ways in
    let i = ref first in
    while !i < stop && not (let w = t.ways.(!i) in w.valid && w.tag = tag) do
      incr i
    done;
    if !i < stop then begin
      let w = t.ways.(!i) in
      t.last_way <- !i;
      s.hits <- s.hits + 1;
      w.age <- t.clock;
      if write then w.dirty <- true;
      Hit
    end
    else begin
      s.misses <- s.misses + 1;
      (* Evict the first invalid way if there is one, otherwise the least
         recently used (the first of equal ages). *)
      let victim = ref (-1) in
      for i = stop - 1 downto first do
        if not t.ways.(i).valid then victim := i
      done;
      if !victim < 0 then begin
        victim := first;
        for i = first + 1 to stop - 1 do
          if t.ways.(i).age < t.ways.(!victim).age then victim := i
        done
      end;
      let w = t.ways.(!victim) in
      t.last_way <- !victim;
      let writeback = w.valid && w.dirty in
      if writeback then s.writebacks <- s.writebacks + 1;
      w.tag <- tag;
      w.valid <- true;
      w.dirty <- write;
      w.age <- t.clock;
      if writeback then dirty_miss else clean_miss
    end
  end

(* What [access] does for a read that repeats the remembered line, [n]
   times over. *)
let credit_hits t n =
  let s = t.stats_ in
  s.accesses <- s.accesses + n;
  s.hits <- s.hits + n

(* Invalidating every way forgets the remembered line too. *)
let flush t =
  Array.iter
    (fun w ->
      w.valid <- false;
      w.dirty <- false;
      w.age <- 0)
    t.ways

let hit_rate t =
  if t.stats_.accesses = 0 then 0.0 else float_of_int t.stats_.hits /. float_of_int t.stats_.accesses
