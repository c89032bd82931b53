open Eric_rv
module Memory = Eric_util.Memory

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

(* ------------------------------------------------------------------ *)
(* The decoded form                                                    *)
(* ------------------------------------------------------------------ *)

(* One constant constructor per operation the core executes, so that a
   step dispatches once. *)
type kind =
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Addw | Subw | Sllw | Srlw | Sraw
  | Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu
  | Mulw | Divw | Divuw | Remw | Remuw
  | Addi | Slti | Sltiu | Xori | Ori | Andi | Addiw
  | Slli | Srli | Srai | Slliw | Srliw | Sraiw
  | Lui | Auipc
  | Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu
  | Sb | Sh | Sw | Sd
  | Beq | Bne | Blt | Bge | Bltu | Bgeu
  | Jal | Jalr | Ecall | Ebreak | Fence | Csrr

(* A decoded instruction.  Registers are byte offsets into the register
   file: [rd] is the slot written (the sink for x0), [rs1] and [rs2] the
   slots read (a store's base and source).  [imm] is the immediate, the
   shift amount, the offset, the U-type value already shifted, or the
   CSR number.  [pc] is the address decoded and [fall] the one after it.
   [uses] has bit [r] for each xr read, and [loads] bit [r] for the xr a
   load writes, x0 included (0 for other kinds): the load-use check
   compares the two.  [uses] also has bit [crosses_line] when [fall]
   starts a new I-cache line.  The record keeps no [Inst.t]: the trace
   hook's is rebuilt from it ([inst_of]), so that a run keeps one block
   per decode.

   [next] and [jump] link to the decodes of the successors that last ran
   after this one, [fall] and any other (a branch, [jal] or [jalr]
   target); see "Fetch / decode" below. *)
type decoded = {
  kind : kind;
  rd : int;
  rs1 : int;
  rs2 : int;
  imm : int;
  pc : int;
  fall : int;
  uses : int;
  loads : int;
  mutable next : decoded;
  mutable jump : decoded;
}

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
  mutable last_loads : int;  (** [loads] of the previous instruction *)
  mutable trace : (pc:int -> Inst.t -> unit) option;
  mutable on_store : (addr:int -> len:int -> unit) option;
  mutable on_ifetch_miss : (addr:int -> int) option;
  predictor : int array option;  (** bimodal 2-bit counters, pc-indexed *)
  out : Buffer.t;
  mutable predecoded : decoded array array;  (** see "Fetch / decode" below *)
  fetch_mask : int;  (** clears a pc's offset within its I-cache line *)
  mutable fetch_repeats : int;
  data_mask : int;  (** clears an address's offset within its D-cache line *)
  mutable data_line : int;  (** see "Step" below *)
  mutable dirty_line : int;
  mutable data_repeats : int;
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
let src r = (r : Reg.t :> int) lsl 3
let dst r = (if (r : Reg.t :> int) = 0 then sink else (r :> int)) lsl 3

(* The decode cache is a page table over the memory up to the highest
   4 KiB page fetched, with one slot array per page allocated at the
   page's first fetch; slot [i] holds the decode of the pc
   [page base + 2i].  Its one sentinel, at an odd pc that no link is
   checked against, links to itself. *)
let page_bits = 12
let page_mask = (1 lsl page_bits) - 1

let rec undecoded =
  { kind = Fence; rd = 0; rs1 = 0; rs2 = 0; imm = 0; pc = -1; fall = -1; uses = 0; loads = 0;
    next = undecoded; jump = undecoded }

let no_slots : decoded array = [||]

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
      last_loads = 0;
      trace = None;
      on_store = None;
      on_ifetch_miss = None;
      predictor = (if branch_predictor then Some (Array.make 512 1) else None);
      out = Buffer.create 256;
      predecoded = [||];
      fetch_mask = lnot (icache.Cache.line_bytes - 1);
      fetch_repeats = 0;
      data_mask = lnot (dcache.Cache.line_bytes - 1);
      data_line = -1;
      dirty_line = -1;
      data_repeats = 0;
    }
  in
  set64 t.regs (dst Reg.sp) (Int64.of_int sp);
  t

let reg t r = get64 t.regs (src r)

let set_reg t r v = set64 t.regs (dst r) v

(* Accesses that repeat the cache's last line are counted in the core and
   credited in one call; see "Fetch / decode" and "Step". *)
let credit_fetches t =
  if t.fetch_repeats > 0 then begin
    Cache.credit_hits t.icache_ t.fetch_repeats;
    t.fetch_repeats <- 0
  end

let credit_data t =
  if t.data_repeats > 0 then begin
    Cache.credit_hits t.dcache_ t.data_repeats;
    t.data_repeats <- 0
  end

let pc t = t.pc_
let cycles t = t.cycles_
let instructions t = Int64.of_int t.instret

let icache t =
  credit_fetches t;
  t.icache_

let dcache t =
  credit_data t;
  t.dcache_

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

(* ------------------------------------------------------------------ *)
(* 64-bit arithmetic helpers                                           *)
(* ------------------------------------------------------------------ *)

let sext32 v = Int64.of_int32 (Int64.to_int32 v)
let low32_mask = 0xFFFFFFFFL

(* The helpers below are [@inline] so that their [int64] arguments and
   results stay unboxed inside [execute]. *)
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

let[@inline] divw a b =
  let a32 = sext32 a and b32 = sext32 b in
  if b32 = 0L then -1L
  else if a32 = Int64.of_int32 Int32.min_int && b32 = -1L then sext32 a32
  else sext32 (Int64.div a32 b32)

let[@inline] remw a b =
  let a32 = sext32 a and b32 = sext32 b in
  if b32 = 0L then a32
  else if a32 = Int64.of_int32 Int32.min_int && b32 = -1L then 0L
  else sext32 (Int64.rem a32 b32)

(* Zero-extended, the 32-bit operands divide alike signed and
   unsigned. *)
let[@inline] divuw a b =
  let a32 = Int64.logand a low32_mask and b32 = Int64.logand b low32_mask in
  if b32 = 0L then -1L else sext32 (Int64.div a32 b32)

let[@inline] remuw a b =
  let a32 = Int64.logand a low32_mask and b32 = Int64.logand b low32_mask in
  if b32 = 0L then sext32 a32 else sext32 (Int64.rem a32 b32)

let bool_to_i64 c = if c then 1L else 0L

(* ------------------------------------------------------------------ *)
(* Fetch / decode                                                      *)
(* ------------------------------------------------------------------ *)

exception Fault of string

let r_kind : Inst.r_op -> kind = function
  | Add -> Add | Sub -> Sub | Sll -> Sll | Slt -> Slt | Sltu -> Sltu | Xor -> Xor
  | Srl -> Srl | Sra -> Sra | Or -> Or | And -> And
  | Addw -> Addw | Subw -> Subw | Sllw -> Sllw | Srlw -> Srlw | Sraw -> Sraw
  | Mul -> Mul | Mulh -> Mulh | Mulhsu -> Mulhsu | Mulhu -> Mulhu
  | Div -> Div | Divu -> Divu | Rem -> Rem | Remu -> Remu
  | Mulw -> Mulw | Divw -> Divw | Divuw -> Divuw | Remw -> Remw | Remuw -> Remuw

let i_kind : Inst.i_op -> kind = function
  | Addi -> Addi | Slti -> Slti | Sltiu -> Sltiu | Xori -> Xori | Ori -> Ori | Andi -> Andi
  | Addiw -> Addiw

let shift_kind : Inst.shift_op -> kind = function
  | Slli -> Slli | Srli -> Srli | Srai -> Srai | Slliw -> Slliw | Srliw -> Srliw
  | Sraiw -> Sraiw

let load_kind : Inst.load_op -> kind = function
  | Lb -> Lb | Lh -> Lh | Lw -> Lw | Ld -> Ld | Lbu -> Lbu | Lhu -> Lhu | Lwu -> Lwu

let store_kind : Inst.store_op -> kind = function Sb -> Sb | Sh -> Sh | Sw -> Sw | Sd -> Sd

let branch_kind : Inst.branch_op -> kind = function
  | Beq -> Beq | Bne -> Bne | Blt -> Blt | Bge -> Bge | Bltu -> Bltu | Bgeu -> Bgeu

let bit r = 1 lsl (r : Reg.t :> int)

(* Above the 32 register bits of [uses]. *)
let crosses_line = 1 lsl 32

let flat t pc size kind rd rs1 rs2 imm uses loads =
  let fall = pc + size in
  let uses = if (pc lxor fall) land t.fetch_mask = 0 then uses else uses lor crosses_line in
  { kind; rd; rs1; rs2; imm; pc; fall; uses; loads; next = undecoded; jump = undecoded }

let flatten t inst pc size =
  let x0 = src Reg.x0 and none = dst Reg.x0 in
  match inst with
  | Inst.R (op, rd, rs1, rs2) ->
    flat t pc size (r_kind op) (dst rd) (src rs1) (src rs2) 0 (bit rs1 lor bit rs2) 0
  | Inst.I (op, rd, rs1, imm) ->
    flat t pc size (i_kind op) (dst rd) (src rs1) x0 imm (bit rs1) 0
  | Inst.Shift (op, rd, rs1, sh) ->
    flat t pc size (shift_kind op) (dst rd) (src rs1) x0 sh (bit rs1) 0
  | Inst.U (Lui, rd, imm) -> flat t pc size Lui (dst rd) x0 x0 (imm lsl 12) 0 0
  | Inst.U (Auipc, rd, imm) -> flat t pc size Auipc (dst rd) x0 x0 (imm lsl 12) 0 0
  | Inst.Load (op, rd, base, off) ->
    flat t pc size (load_kind op) (dst rd) (src base) x0 off (bit base) (bit rd)
  | Inst.Store (op, value, base, off) ->
    flat t pc size (store_kind op) none (src base) (src value) off (bit value lor bit base) 0
  | Inst.Branch (op, rs1, rs2, off) ->
    flat t pc size (branch_kind op) none (src rs1) (src rs2) off (bit rs1 lor bit rs2) 0
  | Inst.Jal (rd, off) -> flat t pc size Jal (dst rd) x0 x0 off 0 0
  | Inst.Jalr (rd, rs1, imm) -> flat t pc size Jalr (dst rd) (src rs1) x0 imm (bit rs1) 0
  | Inst.Ecall -> flat t pc size Ecall none x0 x0 0 0 0
  | Inst.Ebreak -> flat t pc size Ebreak none x0 x0 0 0 0
  | Inst.Fence -> flat t pc size Fence none x0 x0 0 0 0
  | Inst.Csrr (rd, csr) -> flat t pc size Csrr (dst rd) x0 x0 csr 0 0

(* The instruction [flatten] made [d] from. *)
let inst_of d =
  let reg slot = Reg.of_int (if slot = sink lsl 3 then 0 else slot lsr 3) in
  let rd = reg d.rd and rs1 = reg d.rs1 and rs2 = reg d.rs2 and imm = d.imm in
  let r op = Inst.R (op, rd, rs1, rs2) and i op = Inst.I (op, rd, rs1, imm) in
  let shift op = Inst.Shift (op, rd, rs1, imm) and load op = Inst.Load (op, rd, rs1, imm) in
  let store op = Inst.Store (op, rs2, rs1, imm) and branch op = Inst.Branch (op, rs1, rs2, imm) in
  match d.kind with
  | Add -> r Add | Sub -> r Sub | Sll -> r Sll | Slt -> r Slt | Sltu -> r Sltu | Xor -> r Xor
  | Srl -> r Srl | Sra -> r Sra | Or -> r Or | And -> r And
  | Addw -> r Addw | Subw -> r Subw | Sllw -> r Sllw | Srlw -> r Srlw | Sraw -> r Sraw
  | Mul -> r Mul | Mulh -> r Mulh | Mulhsu -> r Mulhsu | Mulhu -> r Mulhu
  | Div -> r Div | Divu -> r Divu | Rem -> r Rem | Remu -> r Remu
  | Mulw -> r Mulw | Divw -> r Divw | Divuw -> r Divuw | Remw -> r Remw | Remuw -> r Remuw
  | Addi -> i Addi | Slti -> i Slti | Sltiu -> i Sltiu | Xori -> i Xori | Ori -> i Ori
  | Andi -> i Andi | Addiw -> i Addiw
  | Slli -> shift Slli | Srli -> shift Srli | Srai -> shift Srai | Slliw -> shift Slliw
  | Srliw -> shift Srliw | Sraiw -> shift Sraiw
  | Lui -> Inst.U (Lui, rd, imm asr 12) | Auipc -> Inst.U (Auipc, rd, imm asr 12)
  | Lb -> load Lb | Lh -> load Lh | Lw -> load Lw | Ld -> load Ld | Lbu -> load Lbu
  | Lhu -> load Lhu | Lwu -> load Lwu
  | Sb -> store Sb | Sh -> store Sh | Sw -> store Sw | Sd -> store Sd
  | Beq -> branch Beq | Bne -> branch Bne | Blt -> branch Blt | Bge -> branch Bge
  | Bltu -> branch Bltu | Bgeu -> branch Bgeu
  | Jal -> Inst.Jal (rd, imm) | Jalr -> Inst.Jalr (rd, rs1, imm)
  | Ecall -> Inst.Ecall | Ebreak -> Inst.Ebreak | Fence -> Inst.Fence | Csrr -> Inst.Csrr (rd, imm)

let decode t pc =
  let half = Memory.read_u16 t.memory pc in
  if half land 0b11 = 0b11 then begin
    let word = Memory.read_u32 t.memory pc in
    match Decode.decode (Int32.of_int word) with
    | Some inst -> flatten t inst pc 4
    | None -> raise (Fault (Printf.sprintf "invalid instruction 0x%08x at pc 0x%x" word pc))
  end
  else
    match Rvc.expand half with
    | Some inst -> flatten t inst pc 2
    | None -> raise (Fault (Printf.sprintf "invalid compressed parcel 0x%04x at pc 0x%x" half pc))

(* The slots of [page], growing the table to it and allocating them at
   the page's first decode. *)
let page_slots t page =
  let table = t.predecoded in
  if page >= Array.length table then begin
    let grown = Array.make (page + 1) no_slots in
    Array.blit table 0 grown 0 (Array.length table);
    t.predecoded <- grown
  end;
  let s = t.predecoded.(page) in
  if s != no_slots then s
  else begin
    let s = Array.make ((page_mask + 1) lsr 1) undecoded in
    t.predecoded.(page) <- s;
    s
  end

(* A pc is decoded on its first fetch and that decode is kept for the
   whole run: a later store to the same bytes is not seen by fetch, as on
   a core without FENCE.I.  Odd pcs, which no jump or branch produces,
   bypass the cache and are decoded on every fetch; pcs outside memory
   (a negative one's page is past the table too) trap in
   [Memory.read_u16] before the table grows. *)
let fetch_decode t pc =
  if pc land 1 <> 0 then decode t pc
  else begin
    let page = pc lsr page_bits and i = (pc land page_mask) lsr 1 in
    let table = t.predecoded in
    let d =
      if page < Array.length table && table.(page) != no_slots then table.(page).(i)
      else undecoded
    in
    if d != undecoded then d
    else begin
      let d = decode t pc in
      (page_slots t page).(i) <- d;
      d
    end
  end

(* The I-side charge of a fetch that goes to the cache.  On a miss the
   line is filled from memory, which is where a fetch-checking integrity
   guard re-hashes the granule being filled (and may raise
   {!Integrity_violation}). *)
let fill t pc =
  match Cache.access t.icache_ ~addr:pc ~write:false with
  | Cache.Hit -> ()
  | Cache.Miss { writeback } -> (
    add_cycles t
      (t.timing.icache_miss_penalty + if writeback then t.timing.writeback_penalty else 0);
    match t.on_ifetch_miss with Some hook -> add_cycles t (hook ~addr:pc) | None -> ())

(* The fetch and decode of the pc that follows [prev], as [fill] and
   [fetch_decode] would make them.

   Only fetches touch the I-cache, so a fetch from the line of the
   previous one is exactly [Cache.access]'s repeat-line hit: one access
   and one hit, no change to the LRU order or the clock.  Those fetches
   are only counted, and [credit_fetches] passes the count on before
   [step], [run_until] and [icache] return.  Whether [fall] shares
   [prev]'s line is known at decode; any other pc is compared.  The
   first fetch of a call has no previous one in the call and always
   goes to the cache, which may have been flushed or accessed since the
   last.  A line is named by its first address: a negative pc's is
   negative, unlike that of any pc that decoded, so a negative pc always
   reaches the cache (and ends the run).

   The decode is [prev]'s link when the link is that pc's: a link is set
   only to a decode the table holds, after that pc's first fetch, so
   following it is the table lookup.  [next] is only ever set to the
   decode of [fall], so it is that pc's once set; [jump] is compared.
   Otherwise the pc is looked up (and decoded at its first fetch), and
   the link set to the result.  Odd pcs are never linked to, as the
   table never holds them. *)
let[@inline] follow t prev =
  let pc = t.pc_ in
  if pc = prev.fall then begin
    if prev.uses land crosses_line <> 0 then fill t pc
    else t.fetch_repeats <- t.fetch_repeats + 1;
    let d = prev.next in
    if d != undecoded then d
    else begin
      let d = fetch_decode t pc in
      if pc land 1 = 0 then prev.next <- d;
      d
    end
  end
  else begin
    if (pc lxor prev.pc) land t.fetch_mask = 0 then t.fetch_repeats <- t.fetch_repeats + 1
    else fill t pc;
    let d = prev.jump in
    if d.pc = pc then d
    else begin
      let d = fetch_decode t pc in
      if pc land 1 = 0 then prev.jump <- d;
      d
    end
  end

(* The [bits]-bit unsigned [v], sign-extended. *)
let sext bits v = (v lxor (1 lsl (bits - 1))) - (1 lsl (bits - 1))

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

let misaligned what addr pc =
  raise (Fault (Printf.sprintf "misaligned %s at 0x%x (pc 0x%x)" what addr pc))

(* The D-side charge of an access that goes to the cache, after which
   the core knows the access's line, and knows it dirty after a write. *)
let charge_dcache t ~addr ~write =
  (match Cache.access t.dcache_ ~addr ~write with
  | Cache.Hit -> ()
  | Cache.Miss { writeback } ->
    add_cycles t
      (t.timing.dcache_miss_penalty + if writeback then t.timing.writeback_penalty else 0));
  let line = addr land t.data_mask in
  t.data_line <- line;
  t.dirty_line <- (if write then line else -1)

(* A load's or store's address, charged to the D-cache once it is known
   to be a multiple of [align].

   Only loads and stores touch the D-cache, so a read from the line of
   the previous access, and a write to it once a write has made it
   dirty, are exactly [Cache.access]'s repeat-line hit: one access and
   one hit, the dirty bit already set.  The core counts them, and
   [credit_data] passes the count on before [step], [run_until] and
   [dcache] return.  Any other write goes to the cache, which sets the
   dirty bit.  Entering [run_until] forgets the line ([-1], which no
   line is), so the first access of a call goes to the cache.  A
   negative address is tested with the alignment and also goes to the
   cache (and then traps in [Memory]). *)
let[@inline] data_address t d ~align ~write =
  let addr = Int64.to_int (get64 t.regs d.rs1) + d.imm in
  if addr land (min_int lor (align - 1)) <> 0 then begin
    if addr land (align - 1) <> 0 then misaligned (if write then "store" else "load") addr d.pc;
    charge_dcache t ~addr ~write
  end
  else if addr land t.data_mask = if write then t.dirty_line else t.data_line then
    t.data_repeats <- t.data_repeats + 1
  else charge_dcache t ~addr ~write;
  addr

let stored t addr len = match t.on_store with Some hook -> hook ~addr ~len | None -> ()

(* A conditional branch: the taken target or the fall-through, with the
   penalty of a taken branch, or with the predictor of a mispredicted
   one. *)
let[@inline] branch t pc next off taken =
  (match t.predictor with
  | None -> if taken then add_cycles t t.timing.taken_branch_penalty
  | Some counters ->
    (* Bimodal 2-bit saturating counters: penalty on mispredict only. *)
    let slot = (pc lsr 1) land (Array.length counters - 1) in
    let predicted_taken = counters.(slot) >= 2 in
    if predicted_taken <> taken then add_cycles t t.timing.taken_branch_penalty;
    counters.(slot) <-
      (if taken then min 3 (counters.(slot) + 1) else max 0 (counters.(slot) - 1)));
  if taken then pc + off else next

(* One instruction of a [Running] core, the decode [d] of its pc, once
   fetched: one dispatch on the decoded kind, whose arm reads its
   operands, charges its extra cycles and returns the next pc.  A fault
   raises; [stop] turns it into the core's status. *)
let execute t d =
  let pc = d.pc in
  (match t.trace with Some hook -> hook ~pc (inst_of d) | None -> ());
  add_cycles t 1;
  (* Load-use hazard: stalls when an instruction consumes the result of
     the immediately preceding load. *)
  if d.uses land t.last_loads <> 0 then add_cycles t t.timing.load_use_stall;
  t.last_loads <- d.loads;
  let r = t.regs and m = t.memory in
  let next = d.fall in
  let open Int64 in
  let next =
    match d.kind with
    | Add -> set64 r d.rd (add (get64 r d.rs1) (get64 r d.rs2)); next
    | Sub -> set64 r d.rd (sub (get64 r d.rs1) (get64 r d.rs2)); next
    | Sll -> set64 r d.rd (shift_left (get64 r d.rs1) (to_int (get64 r d.rs2) land 63)); next
    | Slt -> set64 r d.rd (bool_to_i64 (compare (get64 r d.rs1) (get64 r d.rs2) < 0)); next
    | Sltu ->
      set64 r d.rd (bool_to_i64 (unsigned_compare (get64 r d.rs1) (get64 r d.rs2) < 0));
      next
    | Xor -> set64 r d.rd (logxor (get64 r d.rs1) (get64 r d.rs2)); next
    | Srl ->
      set64 r d.rd (shift_right_logical (get64 r d.rs1) (to_int (get64 r d.rs2) land 63));
      next
    | Sra -> set64 r d.rd (shift_right (get64 r d.rs1) (to_int (get64 r d.rs2) land 63)); next
    | Or -> set64 r d.rd (logor (get64 r d.rs1) (get64 r d.rs2)); next
    | And -> set64 r d.rd (logand (get64 r d.rs1) (get64 r d.rs2)); next
    | Addw -> set64 r d.rd (sext32 (add (get64 r d.rs1) (get64 r d.rs2))); next
    | Subw -> set64 r d.rd (sext32 (sub (get64 r d.rs1) (get64 r d.rs2))); next
    | Sllw ->
      set64 r d.rd (sext32 (shift_left (get64 r d.rs1) (to_int (get64 r d.rs2) land 31)));
      next
    | Srlw ->
      set64 r d.rd
        (sext32
           (shift_right_logical
              (logand (get64 r d.rs1) low32_mask)
              (to_int (get64 r d.rs2) land 31)));
      next
    | Sraw ->
      set64 r d.rd
        (sext32 (shift_right (sext32 (get64 r d.rs1)) (to_int (get64 r d.rs2) land 31)));
      next
    | Mul ->
      add_cycles t t.timing.mul_extra;
      set64 r d.rd (mul (get64 r d.rs1) (get64 r d.rs2));
      next
    | Mulh ->
      add_cycles t t.timing.mul_extra;
      set64 r d.rd (mulh (get64 r d.rs1) (get64 r d.rs2));
      next
    | Mulhsu ->
      add_cycles t t.timing.mul_extra;
      set64 r d.rd (mulhsu (get64 r d.rs1) (get64 r d.rs2));
      next
    | Mulhu ->
      add_cycles t t.timing.mul_extra;
      set64 r d.rd (mulhu (get64 r d.rs1) (get64 r d.rs2));
      next
    | Mulw ->
      add_cycles t t.timing.mul_extra;
      set64 r d.rd (sext32 (mul (get64 r d.rs1) (get64 r d.rs2)));
      next
    | Div ->
      add_cycles t t.timing.div_extra;
      set64 r d.rd (div_signed (get64 r d.rs1) (get64 r d.rs2));
      next
    | Divu ->
      add_cycles t t.timing.div_extra;
      set64 r d.rd (div_unsigned (get64 r d.rs1) (get64 r d.rs2));
      next
    | Rem ->
      add_cycles t t.timing.div_extra;
      set64 r d.rd (rem_signed (get64 r d.rs1) (get64 r d.rs2));
      next
    | Remu ->
      add_cycles t t.timing.div_extra;
      set64 r d.rd (rem_unsigned (get64 r d.rs1) (get64 r d.rs2));
      next
    | Divw ->
      add_cycles t t.timing.div_extra;
      set64 r d.rd (divw (get64 r d.rs1) (get64 r d.rs2));
      next
    | Divuw ->
      add_cycles t t.timing.div_extra;
      set64 r d.rd (divuw (get64 r d.rs1) (get64 r d.rs2));
      next
    | Remw ->
      add_cycles t t.timing.div_extra;
      set64 r d.rd (remw (get64 r d.rs1) (get64 r d.rs2));
      next
    | Remuw ->
      add_cycles t t.timing.div_extra;
      set64 r d.rd (remuw (get64 r d.rs1) (get64 r d.rs2));
      next
    | Addi -> set64 r d.rd (add (get64 r d.rs1) (of_int d.imm)); next
    | Slti -> set64 r d.rd (bool_to_i64 (compare (get64 r d.rs1) (of_int d.imm) < 0)); next
    | Sltiu ->
      set64 r d.rd (bool_to_i64 (unsigned_compare (get64 r d.rs1) (of_int d.imm) < 0));
      next
    | Xori -> set64 r d.rd (logxor (get64 r d.rs1) (of_int d.imm)); next
    | Ori -> set64 r d.rd (logor (get64 r d.rs1) (of_int d.imm)); next
    | Andi -> set64 r d.rd (logand (get64 r d.rs1) (of_int d.imm)); next
    | Addiw -> set64 r d.rd (sext32 (add (get64 r d.rs1) (of_int d.imm))); next
    | Slli -> set64 r d.rd (shift_left (get64 r d.rs1) d.imm); next
    | Srli -> set64 r d.rd (shift_right_logical (get64 r d.rs1) d.imm); next
    | Srai -> set64 r d.rd (shift_right (get64 r d.rs1) d.imm); next
    | Slliw -> set64 r d.rd (sext32 (shift_left (get64 r d.rs1) d.imm)); next
    | Srliw ->
      set64 r d.rd (sext32 (shift_right_logical (logand (get64 r d.rs1) low32_mask) d.imm));
      next
    | Sraiw -> set64 r d.rd (sext32 (shift_right (sext32 (get64 r d.rs1)) d.imm)); next
    | Lui -> set64 r d.rd (of_int d.imm); next
    | Auipc -> set64 r d.rd (of_int (pc + d.imm)); next
    (* [Memory]'s narrow accessors take and return native ints, and a
       doubleword moves between memory and the register file's slot, so
       no load or store boxes a value. *)
    | Lb ->
      let addr = data_address t d ~align:1 ~write:false in
      set64 r d.rd (of_int (sext 8 (Memory.read_u8 m addr)));
      next
    | Lbu ->
      let addr = data_address t d ~align:1 ~write:false in
      set64 r d.rd (of_int (Memory.read_u8 m addr));
      next
    | Lh ->
      let addr = data_address t d ~align:2 ~write:false in
      set64 r d.rd (of_int (sext 16 (Memory.read_u16 m addr)));
      next
    | Lhu ->
      let addr = data_address t d ~align:2 ~write:false in
      set64 r d.rd (of_int (Memory.read_u16 m addr));
      next
    | Lw ->
      let addr = data_address t d ~align:4 ~write:false in
      set64 r d.rd (of_int (sext 32 (Memory.read_u32 m addr)));
      next
    | Lwu ->
      let addr = data_address t d ~align:4 ~write:false in
      set64 r d.rd (of_int (Memory.read_u32 m addr));
      next
    | Ld ->
      let addr = data_address t d ~align:8 ~write:false in
      Memory.read_u64 m addr r d.rd;
      next
    | Sb ->
      let addr = data_address t d ~align:1 ~write:true in
      Memory.write_u8 m addr (to_int (get64 r d.rs2));
      stored t addr 1;
      next
    | Sh ->
      let addr = data_address t d ~align:2 ~write:true in
      Memory.write_u16 m addr (to_int (get64 r d.rs2));
      stored t addr 2;
      next
    | Sw ->
      let addr = data_address t d ~align:4 ~write:true in
      Memory.write_u32 m addr (to_int (get64 r d.rs2));
      stored t addr 4;
      next
    | Sd ->
      let addr = data_address t d ~align:8 ~write:true in
      Memory.write_u64 m addr r d.rs2;
      stored t addr 8;
      next
    | Beq -> branch t pc next d.imm (equal (get64 r d.rs1) (get64 r d.rs2))
    | Bne -> branch t pc next d.imm (not (equal (get64 r d.rs1) (get64 r d.rs2)))
    | Blt -> branch t pc next d.imm (compare (get64 r d.rs1) (get64 r d.rs2) < 0)
    | Bge -> branch t pc next d.imm (compare (get64 r d.rs1) (get64 r d.rs2) >= 0)
    | Bltu -> branch t pc next d.imm (unsigned_compare (get64 r d.rs1) (get64 r d.rs2) < 0)
    | Bgeu -> branch t pc next d.imm (unsigned_compare (get64 r d.rs1) (get64 r d.rs2) >= 0)
    | Jal ->
      set64 r d.rd (of_int next);
      add_cycles t t.timing.jump_penalty;
      pc + d.imm
    | Jalr ->
      (* The target is read before rd is written: rd may be rs1. *)
      let target = (to_int (get64 r d.rs1) + d.imm) land lnot 1 in
      set64 r d.rd (of_int next);
      add_cycles t t.timing.jalr_penalty;
      target
    | Ecall -> (
      match syscall t with
      | Sys_continue -> next
      | Sys_exit code ->
        t.status_ <- Exited code;
        pc)
    | Ebreak -> raise (Fault (Printf.sprintf "ebreak at pc 0x%x" pc))
    | Fence -> next
    | Csrr ->
      set64 r d.rd
        (match d.imm with
        | 0xC00 -> of_int t.cycles_
        | 0xC01 -> of_int (t.cycles_ / 25) (* microseconds at the 25 MHz clock *)
        | 0xC02 -> of_int t.instret
        | csr -> raise (Fault (Printf.sprintf "unsupported CSR 0x%x at pc 0x%x" csr pc)));
      next
  in
  t.instret <- t.instret + 1;
  (* An exit, the one way a step ends the run without raising, returns
     its own pc, so a stopped core's pc stays where it stopped. *)
  t.pc_ <- next

let stop t = function
  | Fault msg -> t.status_ <- Faulted msg
  | Integrity_violation msg -> t.status_ <- Integrity_fault msg
  | Memory.Trap msg -> t.status_ <- Faulted (msg ^ Printf.sprintf " (pc 0x%x)" t.pc_)
  | e -> raise e

(* One handler for the whole loop, not one per instruction; the step
   that faults counts.  The first step fetches through the cache and
   decodes through the table, and each later one follows its
   predecessor's decode.  The line fill precedes decode, as in silicon:
   a fetch-checking integrity guard must get to refuse the granule
   before a corrupted encoding can raise its own (less diagnosable)
   decode fault. *)
let run_until t ~fuel ~cycles =
  t.data_line <- -1;
  t.dirty_line <- -1;
  let steps = ref 0 in
  (try
     if running t && fuel > 0 && t.cycles_ < cycles then begin
       let pc = t.pc_ in
       fill t pc;
       let d = ref (fetch_decode t pc) in
       execute t !d;
       steps := 1;
       while running t && !steps < fuel && t.cycles_ < cycles do
         let next = follow t !d in
         d := next;
         execute t next;
         incr steps
       done
     end
   with e ->
     incr steps;
     stop t e);
  credit_fetches t;
  credit_data t;
  !steps

let step t = ignore (run_until t ~fuel:1 ~cycles:max_int)

let run ?(fuel = 50_000_000) t =
  ignore (run_until t ~fuel ~cycles:max_int);
  if running t then t.status_ <- Faulted "out of fuel";
  t.status_
