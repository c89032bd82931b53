open Eric_rv

type assignment = Reg of Reg.t | Spill of int

type allocation = {
  assign : (Ir.temp, assignment) Hashtbl.t;
  spill_slots : int;
  used_callee_saved : Reg.t list;
}

let caller_pool = [ Reg.t_ 0; Reg.t_ 1; Reg.t_ 2; Reg.t_ 3 ]
let callee_pool = List.init 12 Reg.s

module Bitvec = Eric_util.Bitvec

type interval = { temp : int; lo : int; hi : int; crosses_call : bool }

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

(* Backward instance of the shared dataflow solver over every CFG edge:
   live-out(b) = ∪ live-in(succs), live-in(b) = gen(b) ∪ (live-out(b) \ kill(b)),
   on dense sets over [0, f_temp_count) (Ir_verify has checked every temp
   is in range). *)
let block_liveness (f : Ir.func) =
  let n = f.Ir.f_temp_count in
  let fg = Ir_dataflow.cfg_of_func f in
  let blocks = fg.Ir_dataflow.fg_blocks in
  let gen = Array.map (fun _ -> Bitvec.create n) blocks in
  let kill = Array.map (fun _ -> Bitvec.create n) blocks in
  Array.iteri
    (fun i b ->
      let gen = gen.(i) and kill = kill.(i) in
      let use t = if not (Bitvec.mem kill t) then Bitvec.add gen t in
      List.iter
        (fun instr ->
          Ir.iter_uses use instr;
          match Ir.def_of instr with Some d -> Bitvec.add kill d | None -> ())
        b.Ir.body;
      Ir.iter_term_uses use b.Ir.term)
    blocks;
  let module Live = Eric_lint.Dataflow.Make (struct
    type t = Bitvec.t

    let bottom = Bitvec.create n

    let join a b =
      let u = Bitvec.copy a in
      Bitvec.union_into u b;
      u

    let equal = Bitvec.equal
    let pp = Bitvec.pp
  end) in
  let transfer i live_out =
    let live_in = Bitvec.copy live_out in
    Bitvec.diff_into live_in kill.(i);
    Bitvec.union_into live_in gen.(i);
    live_in
  in
  let solved = Live.solve ~direction:Eric_lint.Dataflow.Backward ~graph:fg.fg_graph ~transfer () in
  (blocks, solved.Live.output, solved.Live.input)

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

let build_intervals (f : Ir.func) =
  let blocks, live_in, live_out = block_liveness f in
  let n = f.Ir.f_temp_count in
  let lo = Array.make n max_int and hi = Array.make n (-1) in
  (* Linear scan hands the first free register to the first of several
     intervals with equal bounds, so the order of ties shapes every image.
     Ties keep the order that built every image so far: [Hashtbl.fold]'s
     over an unrandomized first-touch table made by [Hashtbl.create 64],
     i.e. by bucket descending, then by first touch ascending.  A temp's
     bucket is [Hashtbl.hash t] modulo the table's final bucket count: 64,
     doubled while the temps touched exceed twice the buckets.  Live-in
     and live-out temps are touched in ascending order.  Ordering ties by
     temp instead changed 36 of 40 workload images (both datasets,
     compression on and off) and 197 of 300 generated programs, and a
     real table would make images depend on [OCAMLRUNPARAM=R], which
     randomizes its hash. *)
  let first_touch = Array.make n 0 and touched = ref 0 in
  let touch t pos =
    if hi.(t) < 0 then begin
      first_touch.(!touched) <- t;
      incr touched;
      lo.(t) <- pos;
      hi.(t) <- pos
    end
    else begin
      if pos < lo.(t) then lo.(t) <- pos;
      if pos > hi.(t) then hi.(t) <- pos
    end
  in
  (* [calls_below.(p)]: call sites at positions below [p]. *)
  let calls_below = Array.make (Ir.instruction_count f + 2) 0 in
  let pos = ref 0 and block_start = ref 0 in
  let touch_here t = touch t !pos and touch_start t = touch t !block_start in
  (* Parameters are defined by the prologue. *)
  List.iter touch_start f.f_params;
  Array.iteri
    (fun i b ->
      block_start := !pos;
      List.iter
        (fun instr ->
          incr pos;
          Ir.iter_uses touch_here instr;
          (match Ir.def_of instr with Some d -> touch_here d | None -> ());
          match instr with Ir.Call _ -> calls_below.(!pos + 1) <- 1 | _ -> ())
        b.Ir.body;
      incr pos;
      Ir.iter_term_uses touch_here b.Ir.term;
      (* Live-in temps that are also live-out span everything between;
         linear scan over a linearised order handles loop-carried temps by
         the conservative [block_start, block_end] extension applied to
         every block where the temp is live. *)
      Bitvec.iter touch_start live_in.(i);
      Bitvec.iter
        (fun t ->
          touch_here t;
          (* Live-out temps must cover the whole block tail. *)
          touch_start t)
        live_out.(i))
    blocks;
  for p = 1 to Array.length calls_below - 1 do
    calls_below.(p) <- calls_below.(p) + calls_below.(p - 1)
  done;
  let buckets = ref 64 in
  while !touched > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let bucket t = Hashtbl.hash t land (!buckets - 1) in
  let intervals = ref [] in
  for k = !touched - 1 downto 0 do
    let t = first_touch.(k) in
    let l = lo.(t) and h = hi.(t) in
    intervals :=
      { temp = t; lo = l; hi = h; crosses_call = calls_below.(h) - calls_below.(l + 1) > 0 }
      :: !intervals
  done;
  (* Stable, over the intervals in first-touch order. *)
  List.stable_sort
    (fun a b ->
      match Int.compare a.lo b.lo with
      | 0 -> ( match Int.compare a.hi b.hi with 0 -> Int.compare (bucket b.temp) (bucket a.temp) | c -> c)
      | c -> c)
    !intervals

(* ------------------------------------------------------------------ *)
(* Linear scan                                                         *)
(* ------------------------------------------------------------------ *)

let allocate (f : Ir.func) =
  let intervals = build_intervals f in
  let assign = Hashtbl.create 64 in
  let free_caller = ref caller_pool and free_callee = ref callee_pool in
  let active = ref [] in
  (* (interval, reg) sorted by increasing hi *)
  let spill_count = ref 0 in
  let used_callee = ref [] in
  let release reg =
    if List.exists (Reg.equal reg) caller_pool then free_caller := reg :: !free_caller
    else free_callee := reg :: !free_callee
  in
  (* [active] is sorted by [hi], so the expired intervals are a prefix of
     it, released in order. *)
  let expire current_lo =
    let rec go = function
      | (iv, r) :: rest when iv.hi < current_lo ->
        release r;
        go rest
      | still -> active := still
    in
    go !active
  in
  let take_reg iv =
    if iv.crosses_call then
      match !free_callee with
      | r :: rest ->
        free_callee := rest;
        if not (List.exists (Reg.equal r) !used_callee) then used_callee := r :: !used_callee;
        Some r
      | [] -> None
    else
      match !free_caller with
      | r :: rest ->
        free_caller := rest;
        Some r
      | [] -> (
        match !free_callee with
        | r :: rest ->
          free_callee := rest;
          if not (List.exists (Reg.equal r) !used_callee) then used_callee := r :: !used_callee;
          Some r
        | [] -> None)
  in
  let insert_active entry =
    let rec ins = function
      | [] -> [ entry ]
      | ((iv, _) as hd) :: tl -> if (fst entry).hi <= iv.hi then entry :: hd :: tl else hd :: ins tl
    in
    active := ins !active
  in
  let spill_slot () =
    let s = !spill_count in
    incr spill_count;
    s
  in
  List.iter
    (fun iv ->
      expire iv.lo;
      match take_reg iv with
      | Some r ->
        Hashtbl.replace assign iv.temp (Reg r);
        insert_active (iv, r)
      | None -> (
        (* Standard heuristic: spill whichever of {current, furthest-ending
           active with a compatible register} ends last. *)
        let compatible (aiv, r) =
          ignore aiv;
          if iv.crosses_call then List.exists (Reg.equal r) callee_pool else true
        in
        let candidates = List.filter compatible !active in
        match List.rev candidates with
        | (victim, vreg) :: _ when victim.hi > iv.hi ->
          Hashtbl.replace assign victim.temp (Spill (spill_slot ()));
          active := List.filter (fun (a, _) -> a.temp <> victim.temp) !active;
          Hashtbl.replace assign iv.temp (Reg vreg);
          insert_active (iv, vreg)
        | _ -> Hashtbl.replace assign iv.temp (Spill (spill_slot ()))))
    intervals;
  { assign; spill_slots = !spill_count; used_callee_saved = List.rev !used_callee }
