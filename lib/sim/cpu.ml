open Eric_rv

type timing = {
  icache_miss_penalty : int;
  dcache_miss_penalty : int;
  writeback_penalty : int;
  load_use_stall : int;
  taken_branch_penalty : int;
  jump_penalty : int;
  jalr_penalty : int;
  mul_extra : int;
  div_extra : int;
}

let default_timing =
  {
    icache_miss_penalty = 20;
    dcache_miss_penalty = 20;
    writeback_penalty = 4;
    load_use_stall = 1;
    taken_branch_penalty = 2;
    jump_penalty = 1;
    jalr_penalty = 2;
    mul_extra = 3;
    div_extra = 31;
  }

type syscall_result = Sys_continue | Sys_exit of int

type status = Running | Exited of int | Faulted of string | Integrity_fault of string

exception Integrity_violation of string

(* A decoded instruction, with the registers it reads as a bitmask (bit
   [r] for xr) for the load-use check. *)
type decoded = { inst : Inst.t; size : int; uses : int }

type t = {
  regs : Bytes.t;  (** see "Register file" below *)
  mutable pc_ : int;
  memory : Memory.t;
  icache_ : Cache.t;
  dcache_ : Cache.t;
  timing : timing;
  mutable cycles_ : int;
  mutable instret : int;
  mutable status_ : status;
  mutable last_load_dest : int;  (** register the previous instruction loaded, or -1 *)
  mutable trace : (pc:int -> Inst.t -> unit) option;
  mutable on_store : (addr:int -> len:int -> unit) option;
  mutable on_ifetch_miss : (addr:int -> int) option;
  predictor : int array option;  (** bimodal 2-bit counters, pc-indexed *)
  out : Buffer.t;
  predecoded : decoded array array;  (** see "Fetch / decode" below *)
}

(* ------------------------------------------------------------------ *)
(* Register file                                                       *)
(* ------------------------------------------------------------------ *)

(* x0..x31 are stored unboxed, 8 native-endian bytes each, followed by a
   sink slot that takes the writes to x0, so x0 always reads 0.  A
   result is passed straight to [set64] as its argument: through a
   function parameter the compiler may box it first. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let sink = 32
let get t r = get64 t.regs (r lsl 3)
let dst r = (if r = 0 then sink else r) lsl 3

(* The decode cache is a page table over memory, with one slot array per
   4 KiB page allocated at the page's first fetch; slot [i] holds the
   decode of the pc [page base + 2i]. *)
let page_bits = 12
let page_mask = (1 lsl page_bits) - 1
let no_slots : decoded array = [||]
let undecoded = { inst = Inst.Fence; size = 0; uses = 0 }

let create ?(timing = default_timing) ?(icache = Cache.table1_config)
    ?(dcache = Cache.table1_config) ?(branch_predictor = false) ~memory ~pc ~sp () =
  let t =
    {
      regs = Bytes.make (8 * (sink + 1)) '\000';
      pc_ = pc;
      memory;
      icache_ = Cache.create icache;
      dcache_ = Cache.create dcache;
      timing;
      cycles_ = 0;
      instret = 0;
      status_ = Running;
      last_load_dest = -1;
      trace = None;
      on_store = None;
      on_ifetch_miss = None;
      predictor = (if branch_predictor then Some (Array.make 512 1) else None);
      out = Buffer.create 256;
      predecoded = Array.make ((Memory.size memory + page_mask) lsr page_bits) no_slots;
    }
  in
  set64 t.regs (dst (Reg.sp :> int)) (Int64.of_int sp);
  t

let reg t r = get t (r : Reg.t :> int)

let set_reg t r v = set64 t.regs (dst (r : Reg.t :> int)) v

let pc t = t.pc_
let set_pc t pc = t.pc_ <- pc
let cycles t = Int64.of_int t.cycles_
let instructions t = Int64.of_int t.instret
let icache t = t.icache_
let dcache t = t.dcache_
let output t = Buffer.contents t.out
let status t = t.status_

let running t =
  match t.status_ with Running -> true | Exited _ | Faulted _ | Integrity_fault _ -> false

let set_trace t hook = t.trace <- hook
let set_store_hook t hook = t.on_store <- hook
let set_ifetch_miss_hook t hook = t.on_ifetch_miss <- hook

let add_cycles t n = t.cycles_ <- t.cycles_ + n
let charge = add_cycles

let fault_integrity t msg = t.status_ <- Integrity_fault msg

let charge_cache t cache ~addr ~write =
  match Cache.access cache ~addr ~write with
  | Cache.Hit -> ()
  | Cache.Miss { writeback } ->
    let penalty =
      (if cache == t.icache_ then t.timing.icache_miss_penalty else t.timing.dcache_miss_penalty)
      + if writeback then t.timing.writeback_penalty else 0
    in
    add_cycles t penalty

(* I-side fetch charge: on a miss the line is filled from memory, which
   is where a fetch-checking integrity guard re-hashes the granule being
   filled (and may raise {!Integrity_violation}). *)
let charge_ifetch t ~addr =
  match Cache.access t.icache_ ~addr ~write:false with
  | Cache.Hit -> ()
  | Cache.Miss { writeback } ->
    add_cycles t
      (t.timing.icache_miss_penalty + if writeback then t.timing.writeback_penalty else 0);
    (match t.on_ifetch_miss with
    | Some hook -> add_cycles t (hook ~addr)
    | None -> ())

(* ------------------------------------------------------------------ *)
(* 64-bit arithmetic helpers                                           *)
(* ------------------------------------------------------------------ *)

let sext32 v = Int64.of_int32 (Int64.to_int32 v)
let low32_mask = 0xFFFFFFFFL

(* The helpers below are [@inline] so that their [int64] arguments and
   results stay unboxed inside [exec_r]. *)
let[@inline] mulhu a b =
  let open Int64 in
  let al = logand a low32_mask and ah = shift_right_logical a 32 in
  let bl = logand b low32_mask and bh = shift_right_logical b 32 in
  let ll = mul al bl in
  let lh = mul al bh in
  let hl = mul ah bl in
  let hh = mul ah bh in
  let mid = add (add lh (shift_right_logical ll 32)) (logand hl low32_mask) in
  add (add hh (shift_right_logical hl 32)) (shift_right_logical mid 32)

let[@inline] mulh a b =
  let open Int64 in
  let r = mulhu a b in
  let r = if compare a 0L < 0 then sub r b else r in
  if compare b 0L < 0 then sub r a else r

let[@inline] mulhsu a b =
  let open Int64 in
  let r = mulhu a b in
  if compare a 0L < 0 then sub r b else r

let[@inline] div_signed a b =
  if b = 0L then -1L
  else if a = Int64.min_int && b = -1L then Int64.min_int
  else Int64.div a b

let[@inline] rem_signed a b =
  if b = 0L then a else if a = Int64.min_int && b = -1L then 0L else Int64.rem a b

(* [Int64.unsigned_div] for a non-zero [d], which the compiler would not
   inline from the standard library (Hacker's Delight, figure 9-3). *)
let[@inline] udiv n d =
  let open Int64 in
  if compare d 0L < 0 then if unsigned_compare n d < 0 then 0L else 1L
  else
    let q = shift_left (div (shift_right_logical n 1) d) 1 in
    if unsigned_compare (sub n (mul q d)) d >= 0 then succ q else q

let[@inline] div_unsigned a b = if b = 0L then -1L else udiv a b
let[@inline] rem_unsigned a b = if b = 0L then a else Int64.sub a (Int64.mul (udiv a b) b)

let bool_to_i64 c = if c then 1L else 0L

(* The [exec_*] functions read their operands from and write their
   result to the register file themselves, so that no operand or result
   crosses a call boxed. *)
let exec_r t (op : Inst.r_op) rd rs1 rs2 =
  let a = get t rs1 and b = get t rs2 in
  let open Int64 in
  set64 t.regs (dst rd)
    (match op with
    | Add -> add a b
    | Sub -> sub a b
    | Sll -> shift_left a (to_int (logand b 63L))
    | Slt -> bool_to_i64 (compare a b < 0)
    | Sltu -> bool_to_i64 (unsigned_compare a b < 0)
    | Xor -> logxor a b
    | Srl -> shift_right_logical a (to_int (logand b 63L))
    | Sra -> shift_right a (to_int (logand b 63L))
    | Or -> logor a b
    | And -> logand a b
    | Addw -> sext32 (add a b)
    | Subw -> sext32 (sub a b)
    | Sllw -> sext32 (shift_left a (to_int (logand b 31L)))
    | Srlw -> sext32 (shift_right_logical (logand a low32_mask) (to_int (logand b 31L)))
    | Sraw -> sext32 (shift_right (sext32 a) (to_int (logand b 31L)))
    | Mul -> mul a b
    | Mulh -> mulh a b
    | Mulhsu -> mulhsu a b
    | Mulhu -> mulhu a b
    | Div -> div_signed a b
    | Divu -> div_unsigned a b
    | Rem -> rem_signed a b
    | Remu -> rem_unsigned a b
    | Mulw -> sext32 (mul a b)
    | Divw ->
      let a32 = sext32 a and b32 = sext32 b in
      if b32 = 0L then -1L
      else if a32 = Int64.of_int32 Int32.min_int && b32 = -1L then sext32 a32
      else sext32 (div a32 b32)
    (* Zero-extended, the 32-bit operands divide alike signed and
       unsigned. *)
    | Divuw ->
      let a32 = logand a low32_mask and b32 = logand b low32_mask in
      if b32 = 0L then -1L else sext32 (div a32 b32)
    | Remw ->
      let a32 = sext32 a and b32 = sext32 b in
      if b32 = 0L then a32
      else if a32 = Int64.of_int32 Int32.min_int && b32 = -1L then 0L
      else sext32 (rem a32 b32)
    | Remuw ->
      let a32 = logand a low32_mask and b32 = logand b low32_mask in
      if b32 = 0L then sext32 a32 else sext32 (rem a32 b32))

let exec_i t (op : Inst.i_op) rd rs1 imm =
  let a = get t rs1 in
  let open Int64 in
  let b = of_int imm in
  set64 t.regs (dst rd)
    (match op with
    | Addi -> add a b
    | Slti -> bool_to_i64 (compare a b < 0)
    | Sltiu -> bool_to_i64 (unsigned_compare a b < 0)
    | Xori -> logxor a b
    | Ori -> logor a b
    | Andi -> logand a b
    | Addiw -> sext32 (add a b))

let exec_shift t (op : Inst.shift_op) rd rs1 sh =
  let a = get t rs1 in
  let open Int64 in
  set64 t.regs (dst rd)
    (match op with
    | Slli -> shift_left a sh
    | Srli -> shift_right_logical a sh
    | Srai -> shift_right a sh
    | Slliw -> sext32 (shift_left a sh)
    | Srliw -> sext32 (shift_right_logical (logand a low32_mask) sh)
    | Sraiw -> sext32 (shift_right (sext32 a) sh))

let branch_taken t (op : Inst.branch_op) rs1 rs2 =
  let a = get t rs1 and b = get t rs2 in
  match op with
  | Beq -> Int64.equal a b
  | Bne -> not (Int64.equal a b)
  | Blt -> Int64.compare a b < 0
  | Bge -> Int64.compare a b >= 0
  | Bltu -> Int64.unsigned_compare a b < 0
  | Bgeu -> Int64.unsigned_compare a b >= 0

(* ------------------------------------------------------------------ *)
(* Fetch / decode                                                      *)
(* ------------------------------------------------------------------ *)

exception Fault of string

let decode t pc =
  let half = Memory.read_u16 t.memory pc in
  let inst, size =
    if half land 0b11 = 0b11 then begin
      let word = Memory.read_u32 t.memory pc in
      match Decode.decode (Int32.of_int word) with
      | Some inst -> (inst, 4)
      | None -> raise (Fault (Printf.sprintf "invalid instruction 0x%08x at pc 0x%x" word pc))
    end
    else
      match Rvc.expand half with
      | Some inst -> (inst, 2)
      | None -> raise (Fault (Printf.sprintf "invalid compressed parcel 0x%04x at pc 0x%x" half pc))
  in
  let uses = List.fold_left (fun m r -> m lor (1 lsl (r : Reg.t :> int))) 0 (Inst.uses inst) in
  { inst; size; uses }

(* A pc is decoded on its first fetch and that decode is kept for the
   whole run: a later store to the same bytes is not seen by fetch, as on
   a core without FENCE.I.  Odd pcs, which no jump or branch produces,
   bypass the cache and are decoded on every fetch; pcs outside memory
   trap in [Memory.read_u16]. *)
let fetch_decode t =
  let pc = t.pc_ in
  let page = pc asr page_bits in
  if pc < 0 || pc land 1 <> 0 || page >= Array.length t.predecoded then decode t pc
  else begin
    let slots =
      let s = t.predecoded.(page) in
      if s != no_slots then s
      else begin
        let s = Array.make ((page_mask + 1) lsr 1) undecoded in
        t.predecoded.(page) <- s;
        s
      end
    in
    let i = (pc land page_mask) lsr 1 in
    let d = slots.(i) in
    if d != undecoded then d
    else begin
      let d = decode t pc in
      slots.(i) <- d;
      d
    end
  end

(* The [bits]-bit unsigned [v], sign-extended. *)
let sext bits v = (v lxor (1 lsl (bits - 1))) - (1 lsl (bits - 1))

(* [Memory]'s narrow accessors take and return native ints, and a
   doubleword moves between memory and the register file's slot, so no
   load or store boxes a value. *)
let load t (op : Inst.load_op) rd addr =
  let m = t.memory and d = dst rd in
  match op with
  | Lb -> set64 t.regs d (Int64.of_int (sext 8 (Memory.read_u8 m addr)))
  | Lbu -> set64 t.regs d (Int64.of_int (Memory.read_u8 m addr))
  | Lh -> set64 t.regs d (Int64.of_int (sext 16 (Memory.read_u16 m addr)))
  | Lhu -> set64 t.regs d (Int64.of_int (Memory.read_u16 m addr))
  | Lw -> set64 t.regs d (Int64.of_int (sext 32 (Memory.read_u32 m addr)))
  | Lwu -> set64 t.regs d (Int64.of_int (Memory.read_u32 m addr))
  | Ld -> Memory.read_u64 m addr t.regs d

let store t (op : Inst.store_op) addr src =
  let m = t.memory in
  match op with
  | Sb -> Memory.write_u8 m addr (Int64.to_int (get t src))
  | Sh -> Memory.write_u16 m addr (Int64.to_int (get t src))
  | Sw -> Memory.write_u32 m addr (Int64.to_int (get t src))
  | Sd -> Memory.write_u64 m addr t.regs (src lsl 3)

let alignment (op : Inst.load_op) =
  match op with Lb | Lbu -> 1 | Lh | Lhu -> 2 | Lw | Lwu -> 4 | Ld -> 8

let store_alignment (op : Inst.store_op) = match op with Sb -> 1 | Sh -> 2 | Sw -> 4 | Sd -> 8

let is_mul (op : Inst.r_op) = match op with Mul | Mulh | Mulhsu | Mulhu | Mulw -> true | _ -> false

let is_div (op : Inst.r_op) =
  match op with Div | Divu | Rem | Remu | Divw | Divuw | Remw | Remuw -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Syscalls                                                            *)
(* ------------------------------------------------------------------ *)

let syscall t =
  let a n = reg t (Reg.a n) in
  match Int64.to_int (a 7) with
  | 64 ->
    let addr = Int64.to_int (a 1) and len = Int64.to_int (a 2) in
    Buffer.add_bytes t.out (Memory.read_bytes t.memory ~addr ~len);
    set_reg t (Reg.a 0) (Int64.of_int len);
    Sys_continue
  | 93 -> Sys_exit (Int64.to_int (a 0))
  | n -> raise (Fault (Printf.sprintf "unsupported syscall %d at pc 0x%x" n t.pc_))

(* ------------------------------------------------------------------ *)
(* Step                                                                *)
(* ------------------------------------------------------------------ *)

(* One instruction of a [Running] core.  A fault raises; [stop] turns it
   into the core's status. *)
let execute t =
  (* The line fill precedes decode, as in silicon: a fetch-checking
     integrity guard must get to refuse the granule before a
     corrupted encoding can raise its own (less diagnosable) decode
     fault. *)
  charge_ifetch t ~addr:t.pc_;
  let d = fetch_decode t in
  let size = d.size in
  (match t.trace with Some hook -> hook ~pc:t.pc_ d.inst | None -> ());
  add_cycles t 1;
  (* Load-use hazard: stalls when an instruction consumes the result of
     the immediately preceding load. *)
  if t.last_load_dest >= 0 && d.uses land (1 lsl t.last_load_dest) <> 0 then
    add_cycles t t.timing.load_use_stall;
  t.last_load_dest <- -1;
  let next_pc = ref (t.pc_ + size) in
  (match d.inst with
  | Inst.R (op, rd, rs1, rs2) ->
    if is_mul op then add_cycles t t.timing.mul_extra;
    if is_div op then add_cycles t t.timing.div_extra;
    exec_r t op (rd :> int) (rs1 :> int) (rs2 :> int)
  | Inst.I (op, rd, rs1, imm) -> exec_i t op (rd :> int) (rs1 :> int) imm
  | Inst.Shift (op, rd, rs1, sh) -> exec_shift t op (rd :> int) (rs1 :> int) sh
  | Inst.U (Lui, rd, imm) -> set64 t.regs (dst (rd :> int)) (Int64.of_int (imm lsl 12))
  | Inst.U (Auipc, rd, imm) ->
    set64 t.regs (dst (rd :> int)) (Int64.of_int (t.pc_ + (imm lsl 12)))
  | Inst.Load (op, rd, base, off) ->
    let addr = Int64.to_int (get t (base :> int)) + off in
    if addr land (alignment op - 1) <> 0 then
      raise (Fault (Printf.sprintf "misaligned load at 0x%x (pc 0x%x)" addr t.pc_));
    charge_cache t t.dcache_ ~addr ~write:false;
    load t op (rd :> int) addr;
    t.last_load_dest <- (rd :> int)
  | Inst.Store (op, src, base, off) ->
    let addr = Int64.to_int (get t (base :> int)) + off in
    if addr land (store_alignment op - 1) <> 0 then
      raise (Fault (Printf.sprintf "misaligned store at 0x%x (pc 0x%x)" addr t.pc_));
    charge_cache t t.dcache_ ~addr ~write:true;
    store t op addr (src :> int);
    (match t.on_store with
    | Some hook -> hook ~addr ~len:(store_alignment op)
    | None -> ())
  | Inst.Branch (op, rs1, rs2, off) ->
    let taken = branch_taken t op (rs1 :> int) (rs2 :> int) in
    if taken then next_pc := t.pc_ + off;
    (match t.predictor with
    | None -> if taken then add_cycles t t.timing.taken_branch_penalty
    | Some counters ->
      (* Bimodal 2-bit saturating counters: penalty on mispredict only. *)
      let slot = (t.pc_ lsr 1) land (Array.length counters - 1) in
      let predicted_taken = counters.(slot) >= 2 in
      if predicted_taken <> taken then add_cycles t t.timing.taken_branch_penalty;
      counters.(slot) <-
        (if taken then min 3 (counters.(slot) + 1) else max 0 (counters.(slot) - 1)))
  | Inst.Jal (rd, off) ->
    set64 t.regs (dst (rd :> int)) (Int64.of_int (t.pc_ + size));
    next_pc := t.pc_ + off;
    add_cycles t t.timing.jump_penalty
  | Inst.Jalr (rd, rs1, imm) ->
    let target = (Int64.to_int (get t (rs1 :> int)) + imm) land lnot 1 in
    set64 t.regs (dst (rd :> int)) (Int64.of_int (t.pc_ + size));
    next_pc := target;
    add_cycles t t.timing.jalr_penalty
  | Inst.Ecall -> (
    match syscall t with
    | Sys_continue -> ()
    | Sys_exit code -> t.status_ <- Exited code)
  | Inst.Ebreak -> raise (Fault (Printf.sprintf "ebreak at pc 0x%x" t.pc_))
  | Inst.Fence -> ()
  | Inst.Csrr (rd, csr) ->
    set64 t.regs (dst (rd :> int))
      (match csr with
      | 0xC00 -> Int64.of_int t.cycles_
      | 0xC01 -> Int64.of_int (t.cycles_ / 25) (* microseconds at the 25 MHz clock *)
      | 0xC02 -> Int64.of_int t.instret
      | _ -> raise (Fault (Printf.sprintf "unsupported CSR 0x%x at pc 0x%x" csr t.pc_))));
  t.instret <- t.instret + 1;
  if running t then t.pc_ <- !next_pc

let stop t = function
  | Fault msg -> t.status_ <- Faulted msg
  | Integrity_violation msg -> t.status_ <- Integrity_fault msg
  | Memory.Trap msg -> t.status_ <- Faulted (msg ^ Printf.sprintf " (pc 0x%x)" t.pc_)
  | e -> raise e

let step t =
  match t.status_ with
  | Exited _ | Faulted _ | Integrity_fault _ -> ()
  | Running -> ( try execute t with e -> stop t e)

(* One handler for the whole loop, not one per instruction.  The step
   that faults counts, as with [step]; the core is then no longer
   [Running], so the loop would have stopped there anyway. *)
let run_until t ~fuel ~cycles =
  let steps = ref 0 in
  (try
     while running t && !steps < fuel && t.cycles_ < cycles do
       execute t;
       incr steps
     done
   with e ->
     incr steps;
     stop t e);
  !steps

let run ?(fuel = 50_000_000) t =
  ignore (run_until t ~fuel ~cycles:max_int);
  if running t then t.status_ <- Faulted "out of fuel";
  t.status_
