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
  sets : way_state array array;
  line_shift : int;  (** log2 line_bytes *)
  set_shift : int;  (** log2 of the set count *)
  stats_ : stats;
  mutable clock : int; (* monotonically increasing LRU timestamp *)
  mutable last_line : int;  (** the line of the previous access ... *)
  mutable last_way : way_state;  (** ... and the way that holds it; see [access] *)
}

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let log2 v =
  let rec go k = if 1 lsl k >= v then k else go (k + 1) in
  go 0

(* Belongs to no set and is never valid: remembered before the first
   access. *)
let no_way = { tag = 0; valid = false; dirty = false; age = 0 }

let create cfg =
  if not (is_power_of_two cfg.line_bytes) then invalid_arg "Cache.create: line size not a power of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines mod cfg.ways <> 0 then invalid_arg "Cache.create: geometry does not divide";
  let nsets = lines / cfg.ways in
  if not (is_power_of_two nsets) then invalid_arg "Cache.create: set count not a power of two";
  {
    cfg;
    sets =
      Array.init nsets (fun _ ->
          Array.init cfg.ways (fun _ -> { tag = 0; valid = false; dirty = false; age = 0 }));
    line_shift = log2 cfg.line_bytes;
    set_shift = log2 nsets;
    stats_ = { accesses = 0; hits = 0; misses = 0; writebacks = 0 };
    clock = 0;
    last_line = 0;
    last_way = no_way;
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
   Every other access replaces the remembered line, negative addresses
   included, because its miss may have evicted the remembered way. *)
let access t ~addr ~write =
  let s = t.stats_ in
  s.accesses <- s.accesses + 1;
  (* Shifts for the usual non-negative address; a negative one (about to
     fault) keeps division's rounding toward zero. *)
  let line = if addr >= 0 then addr lsr t.line_shift else addr / t.cfg.line_bytes in
  let last = t.last_way in
  if line = t.last_line && last.valid then begin
    s.hits <- s.hits + 1;
    if write then last.dirty <- true;
    Hit
  end
  else begin
    t.clock <- t.clock + 1;
    t.last_line <- line;
    let nsets = Array.length t.sets in
    let set = t.sets.(line land (nsets - 1)) in
    let tag = if line >= 0 then line lsr t.set_shift else line / nsets in
    let ways = Array.length set in
    (* The last matching way wins. *)
    let found = ref (-1) in
    for i = 0 to ways - 1 do
      let w = set.(i) in
      if w.valid && w.tag = tag then found := i
    done;
    if !found >= 0 then begin
      let w = set.(!found) in
      t.last_way <- w;
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
      for i = ways - 1 downto 0 do
        if not set.(i).valid then victim := i
      done;
      if !victim < 0 then begin
        victim := 0;
        for i = 1 to ways - 1 do
          if set.(i).age < set.(!victim).age then victim := i
        done
      end;
      let w = set.(!victim) in
      t.last_way <- w;
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
    (Array.iter (fun w ->
         w.valid <- false;
         w.dirty <- false;
         w.age <- 0))
    t.sets

let hit_rate t =
  if t.stats_.accesses = 0 then 0.0 else float_of_int t.stats_.hits /. float_of_int t.stats_.accesses
