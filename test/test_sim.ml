(* Tests for eric_sim: memory bounds, cache geometry and LRU, CPU
   instruction semantics (including M-extension corner cases, checked
   against independently computed expectations), syscalls and timing. *)

open Eric_rv
open Eric_sim
module Memory = Eric_util.Memory

let check = Alcotest.check
let qtest ?(count = 300) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* A 64-bit word goes through the 8 bytes of a buffer, as a native-endian
   int64, the way the core's register file holds it. *)
let read_u64 m addr =
  let word = Bytes.create 8 in
  Memory.read_u64 m addr word 0;
  Bytes.get_int64_ne word 0

let write_u64 m addr v =
  let word = Bytes.create 8 in
  Bytes.set_int64_ne word 0 v;
  Memory.write_u64 m addr word 0

let test_memory_rw () =
  let m = Memory.create ~size:4096 in
  write_u64 m 128 0x1122334455667788L;
  check Alcotest.int64 "u64" 0x1122334455667788L (read_u64 m 128);
  check Alcotest.int "low byte" 0x88 (Memory.read_u8 m 128);
  check Alcotest.int "u16" 0x7788 (Memory.read_u16 m 128);
  check Alcotest.int "u32" 0x55667788 (Memory.read_u32 m 128);
  Memory.write_u8 m 128 0xFF;
  check Alcotest.int "byte replaced" 0xFF (Memory.read_u8 m 128);
  let regs = Bytes.make 24 '\000' in
  Memory.read_u64 m 128 regs 8;
  check Alcotest.int64 "u64 into a buffer slot" 0x11223344556677FFL (Bytes.get_int64_ne regs 8);
  check Alcotest.bool "the slot's neighbours untouched" true
    (Bytes.get_int64_ne regs 0 = 0L && Bytes.get_int64_ne regs 16 = 0L);
  Bytes.set_int64_ne regs 16 (-2L);
  Memory.write_u64 m 136 regs 16;
  check Alcotest.int64 "u64 from a buffer slot" (-2L) (read_u64 m 136);
  Memory.write_u32 m 136 (-1);
  check Alcotest.int "u32 zero-extends" 0xFFFF_FFFF (Memory.read_u32 m 136);
  Memory.write_u16 m 136 0x12345;
  check Alcotest.int "u16 keeps the low 16 bits" 0x2345 (Memory.read_u16 m 136);
  Memory.write_u32 m 136 0x1_2345_6789;
  check Alcotest.int "u32 keeps the low 32 bits" 0x2345_6789 (Memory.read_u32 m 136);
  check Alcotest.int "the word above untouched" 0xFFFF_FFFF (Memory.read_u32 m 140)

let test_memory_bounds () =
  let m = Memory.create ~size:64 in
  let trap f = try f (); false with Memory.Trap _ -> true in
  check Alcotest.bool "read past end" true (trap (fun () -> ignore (read_u64 m 60)));
  let word = Bytes.make 8 'x' in
  check Alcotest.bool "u64 read past end" true (trap (fun () -> Memory.read_u64 m 60 word 0));
  check Alcotest.string "a trapped u64 read leaves its buffer" "xxxxxxxx" (Bytes.to_string word);
  check Alcotest.bool "negative" true (trap (fun () -> ignore (Memory.read_u8 m (-1))));
  check Alcotest.bool "blit past end" true
    (trap (fun () -> Memory.blit_bytes m ~addr:60 (Bytes.make 8 'x')))

let test_memory_blit_fill () =
  let m = Memory.create ~size:64 in
  Memory.blit_bytes m ~addr:8 (Bytes.of_string "abc");
  check Alcotest.string "blit" "abc" (Bytes.to_string (Memory.read_bytes m ~addr:8 ~len:3));
  Memory.fill m ~addr:8 ~len:2 'z';
  check Alcotest.string "fill" "zzc" (Bytes.to_string (Memory.read_bytes m ~addr:8 ~len:3))

let test_memory_bounds_overflow () =
  (* [addr + len] wraps past max_int; the check must not. *)
  let m = Memory.create ~size:64 in
  let trap f = try f (); false with Memory.Trap _ -> true in
  check Alcotest.bool "read_u64 near max_int" true
    (trap (fun () -> ignore (read_u64 m (max_int - 7))));
  check Alcotest.bool "read_bytes huge length" true
    (trap (fun () -> ignore (Memory.read_bytes m ~addr:8 ~len:max_int)));
  check Alcotest.bool "fill huge length" true
    (trap (fun () -> Memory.fill m ~addr:8 ~len:max_int 'x'));
  check Alcotest.bool "read_bytes negative length" true
    (trap (fun () -> ignore (Memory.read_bytes m ~addr:8 ~len:(-1))))

(* The paged memory against a flat [Bytes] reference: random sequences
   of every access, biased to page edges, unwritten pages and both ends
   of memory, must read the same values and trap on the same accesses. *)
type mem_op =
  | Read of int * int  (** width in bytes, address *)
  | Write of int * int * int64
  | Blit of int * string
  | Read_bytes of int * int
  | Fill of int * int * char
  | Digest of int * int

let model_page = 4096
let model_size = (5 * model_page) + 100

let mem_op_gen =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (6, map2 (fun p d -> (p * model_page) + d) (int_range 0 6) (int_range (-9) 9));
        (2, int_range 0 (model_size - 1));
        ( 1,
          oneofl
            [ -1; -8; model_size - 8; model_size - 1; model_size; max_int - 7; max_int; min_int ] ) ]
  in
  let len =
    frequency
      [ (4, int_range 0 16);
        (3, map2 (fun k d -> (k * model_page) + d) (int_range 1 2) (int_range (-3) 3));
        (1, oneofl [ -1; model_size; model_size + 1; max_int; min_int ]) ]
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  let byte = frequency [ (3, return '\000'); (1, char) ] in
  frequency
    [ (4, map2 (fun w a -> Read (w, a)) width addr);
      (4, map3 (fun w a v -> Write (w, a, v)) width addr ui64);
      (1, map2 (fun a s -> Blit (a, s)) addr (string_size (int_range 0 ((2 * model_page) + 8))));
      (2, map2 (fun a n -> Read_bytes (a, n)) addr len);
      (2, map3 (fun a n c -> Fill (a, n, c)) addr len byte);
      (1, map2 (fun a n -> Digest (a, n)) addr len) ]

let pp_mem_op = function
  | Read (w, a) -> Printf.sprintf "read%d 0x%x" (8 * w) a
  | Write (w, a, v) -> Printf.sprintf "write%d 0x%x %Ld" (8 * w) a v
  | Blit (a, s) -> Printf.sprintf "blit 0x%x (%d bytes)" a (String.length s)
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes 0x%x %d" a n
  | Fill (a, n, c) -> Printf.sprintf "fill 0x%x %d %C" a n c
  | Digest (a, n) -> Printf.sprintf "fnv1a 0x%x %d" a n

(* The reference; [None] is a trap. *)
let model_apply flat op =
  let a, n =
    match op with
    | Read (w, a) | Write (w, a, _) -> (a, w)
    | Blit (a, s) -> (a, String.length s)
    | Read_bytes (a, n) | Fill (a, n, _) | Digest (a, n) -> (a, n)
  in
  if a < 0 || n < 0 || a > Bytes.length flat - n then None
  else
    Some
      (match op with
      | Read (1, a) -> Int64.to_string (Int64.of_int (Bytes.get_uint8 flat a))
      | Read (2, a) -> Int64.to_string (Int64.of_int (Bytes.get_uint16_le flat a))
      | Read (4, a) ->
        Int64.to_string (Int64.logand (Int64.of_int32 (Bytes.get_int32_le flat a)) 0xFFFF_FFFFL)
      | Read (_, a) -> Int64.to_string (Bytes.get_int64_le flat a)
      | Write (1, a, v) -> Bytes.set_uint8 flat a (Int64.to_int v land 0xFF); ""
      | Write (2, a, v) -> Bytes.set_uint16_le flat a (Int64.to_int v land 0xFFFF); ""
      | Write (4, a, v) -> Bytes.set_int32_le flat a (Int64.to_int32 v); ""
      | Write (_, a, v) -> Bytes.set_int64_le flat a v; ""
      | Blit (a, s) -> Bytes.blit_string s 0 flat a (String.length s); ""
      | Read_bytes (a, n) -> Bytes.sub_string flat a n
      | Fill (a, n, c) -> Bytes.fill flat a n c; ""
      | Digest (a, n) ->
        let h = ref 0xcbf29ce484222325L in
        for i = a to a + n - 1 do
          h := Int64.mul (Int64.logxor !h (Int64.of_int (Bytes.get_uint8 flat i))) 0x100000001b3L
        done;
        Int64.to_string !h)

(* A trap must come before anything is allocated for the access: only
   the exception and its message may be.  A 64-bit access goes through
   [word], as a native-endian int64. *)
let memory_apply m op =
  let blit_src = match op with Blit (_, s) -> Bytes.of_string s | _ -> Bytes.empty in
  let word = Bytes.create 8 in
  (match op with Write (8, _, v) -> Bytes.set_int64_ne word 0 v | _ -> ());
  let before = Gc.allocated_bytes () in
  try
    Some
      (match op with
      | Read (1, a) -> Int64.to_string (Int64.of_int (Memory.read_u8 m a))
      | Read (2, a) -> Int64.to_string (Int64.of_int (Memory.read_u16 m a))
      | Read (4, a) -> Int64.to_string (Int64.of_int (Memory.read_u32 m a))
      | Read (_, a) -> Memory.read_u64 m a word 0; Int64.to_string (Bytes.get_int64_ne word 0)
      | Write (1, a, v) -> Memory.write_u8 m a (Int64.to_int v); ""
      | Write (2, a, v) -> Memory.write_u16 m a (Int64.to_int v); ""
      | Write (4, a, v) -> Memory.write_u32 m a (Int64.to_int v); ""
      | Write (_, a, _) -> Memory.write_u64 m a word 0; ""
      | Blit (a, _) -> Memory.blit_bytes m ~addr:a blit_src; ""
      | Read_bytes (a, n) -> Bytes.to_string (Memory.read_bytes m ~addr:a ~len:n)
      | Fill (a, n, c) -> Memory.fill m ~addr:a ~len:n c; ""
      | Digest (a, n) -> Int64.to_string (Memory.fnv1a m ~addr:a ~len:n))
  with Memory.Trap _ ->
    if Gc.allocated_bytes () -. before < 1024.0 then None else Some "allocated, then trapped"

let memory_model_equivalence =
  qtest ~count:200 "paged memory = flat bytes"
    (QCheck.make ~print:(QCheck.Print.list pp_mem_op)
       QCheck.Gen.(list_size (int_range 1 40) mem_op_gen))
    (fun ops ->
      let m = Memory.create ~size:model_size and flat = Bytes.make model_size '\000' in
      List.for_all (fun op -> memory_apply m op = model_apply flat op) ops
      && Bytes.equal (Memory.read_bytes m ~addr:0 ~len:model_size) flat)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let small_cache () = Cache.create { Cache.size_bytes = 512; ways = 2; line_bytes = 64 }
(* 512/64 = 8 lines, 2-way -> 4 sets; set index = line mod 4 *)

let test_cache_hit_after_fill () =
  let c = small_cache () in
  check Alcotest.bool "first access misses" true (Cache.access c ~addr:0 ~write:false <> Cache.Hit);
  check Alcotest.bool "second hits" true (Cache.access c ~addr:32 ~write:false = Cache.Hit);
  check Alcotest.int "stats" 1 (Cache.stats c).Cache.hits

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* Three lines mapping to set 0: line 0 (addr 0), line 4 (addr 256),
     line 8 (addr 512). *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:256 ~write:false);
  (* touch line 0 so line 4 is LRU *)
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:512 ~write:false);
  (* evicts line 4 *)
  check Alcotest.bool "line 0 still resident" true (Cache.access c ~addr:0 ~write:false = Cache.Hit);
  check Alcotest.bool "line 4 evicted" true (Cache.access c ~addr:256 ~write:false <> Cache.Hit)

let test_cache_writeback () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:0 ~write:true);
  (* dirty line 0 *)
  ignore (Cache.access c ~addr:256 ~write:false);
  match Cache.access c ~addr:512 ~write:false with
  | Cache.Miss { writeback = true } -> ()
  | Cache.Miss { writeback = false } -> Alcotest.fail "expected dirty eviction"
  | Cache.Hit -> Alcotest.fail "expected miss"

let test_cache_flush () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:0 ~write:false);
  Cache.flush c;
  check Alcotest.bool "miss after flush" true (Cache.access c ~addr:0 ~write:false <> Cache.Hit)

(* A miss at a negative address (an access about to fault) evicts like
   any other, so it must replace the remembered repeat line: here it
   evicts the line of the access before it. *)
let test_cache_negative_miss_replaces_repeat_line () =
  let c = Cache.create { Cache.size_bytes = 256; ways = 1; line_bytes = 16 } in
  (* 16 sets: line 1 is set 1, tag 0; line -31 is set 1, tag -1. *)
  ignore (Cache.access c ~addr:16 ~write:false);
  check Alcotest.bool "the negative address misses" true
    (Cache.access c ~addr:(-496) ~write:false <> Cache.Hit);
  check Alcotest.bool "line 1 was evicted" true (Cache.access c ~addr:20 ~write:false <> Cache.Hit)

let test_cache_geometry_validation () =
  let bad geometry = try ignore (Cache.create geometry); false with Invalid_argument _ -> true in
  check Alcotest.bool "non power of two line" true
    (bad { Cache.size_bytes = 512; ways = 2; line_bytes = 48 });
  check Alcotest.bool "zero ways" true (bad { Cache.size_bytes = 512; ways = 0; line_bytes = 64 })

let test_cache_table1_geometry () =
  let c = Cache.create Cache.table1_config in
  check Alcotest.int "16 KiB" (16 * 1024) (Cache.config c).Cache.size_bytes;
  check Alcotest.int "4-way" 4 (Cache.config c).Cache.ways

(* A plain list/closure implementation of [Cache.access], the reference
   model for the allocation-free one. *)
module Ref_cache = struct
  type way = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable age : int }

  type t = { line_bytes : int; sets : way array array; stats : Cache.stats; mutable clock : int }

  let create (cfg : Cache.config) =
    let nsets = cfg.Cache.size_bytes / cfg.Cache.line_bytes / cfg.Cache.ways in
    { line_bytes = cfg.Cache.line_bytes;
      sets =
        Array.init nsets (fun _ ->
            Array.init cfg.Cache.ways (fun _ -> { tag = 0; valid = false; dirty = false; age = 0 }));
      stats = { Cache.accesses = 0; hits = 0; misses = 0; writebacks = 0 };
      clock = 0 }

  let access t ~addr ~write =
    let s = t.stats in
    s.Cache.accesses <- s.Cache.accesses + 1;
    t.clock <- t.clock + 1;
    let line = addr / t.line_bytes in
    let nsets = Array.length t.sets in
    let set = t.sets.(line land (nsets - 1)) in
    let tag = line / nsets in
    let found = ref None in
    Array.iter (fun w -> if w.valid && w.tag = tag then found := Some w) set;
    match !found with
    | Some w ->
      s.Cache.hits <- s.Cache.hits + 1;
      w.age <- t.clock;
      if write then w.dirty <- true;
      Cache.Hit
    | None ->
      s.Cache.misses <- s.Cache.misses + 1;
      let victim =
        match Array.to_list set |> List.find_opt (fun w -> not w.valid) with
        | Some w -> w
        | None -> Array.fold_left (fun best w -> if w.age < best.age then w else best) set.(0) set
      in
      let writeback = victim.valid && victim.dirty in
      if writeback then s.Cache.writebacks <- s.Cache.writebacks + 1;
      victim.tag <- tag;
      victim.valid <- true;
      victim.dirty <- write;
      victim.age <- t.clock;
      Cache.Miss { writeback }

  let flush t =
    Array.iter
      (Array.iter (fun w ->
           w.valid <- false;
           w.dirty <- false;
           w.age <- 0))
      t.sets
end

type cache_op = Access of int * bool | Flush

(* The address [off] bytes into the line of [addr], on its side of zero:
   a negative address's line is the one its magnitude divides to. *)
let same_line ~line_bytes addr off =
  let within a = a land lnot (line_bytes - 1) lor (off land (line_bytes - 1)) in
  if addr >= 0 then within addr else -within (-addr)

let cache_equivalence =
  let geometries =
    [ { Cache.size_bytes = 512; ways = 2; line_bytes = 64 };
      { Cache.size_bytes = 256; ways = 1; line_bytes = 16 };
      { Cache.size_bytes = 1024; ways = 4; line_bytes = 32 };
      { Cache.size_bytes = 512; ways = 8; line_bytes = 64 } (* one fully associative set *);
      Cache.table1_config ]
  in
  (* [Repeat] re-reads or re-writes the line of the previous access, the
     cache's repeat-line path; [ops] resolves it to an address. *)
  let op =
    QCheck.Gen.(
      frequency
        [ ( 40,
            map2
              (fun addr write -> `Access (addr, write))
              (frequency
                 [ (8, int_range 0 4095); (2, int_range 0 65535); (1, int_range (-4096) (-1)) ])
              bool );
          (30, map2 (fun off write -> `Repeat (off, write)) (int_range 0 4095) bool);
          (1, return `Flush) ])
  in
  let ops (cfg : Cache.config) =
    QCheck.Gen.map
      (fun raw ->
        let prev = ref 0 in
        List.map
          (function
            | `Flush -> Flush
            | `Access (addr, write) ->
              prev := addr;
              Access (addr, write)
            | `Repeat (off, write) ->
              prev := same_line ~line_bytes:cfg.Cache.line_bytes !prev off;
              Access (!prev, write))
          raw)
      (QCheck.Gen.list_size (QCheck.Gen.int_range 1 300) op)
  in
  let print (cfg, ops) =
    Printf.sprintf "%d B, %d-way, %d B lines: %s" cfg.Cache.size_bytes cfg.Cache.ways
      cfg.Cache.line_bytes
      (String.concat " "
         (List.map
            (function
              | Access (a, w) -> Printf.sprintf "%s%d" (if w then "w" else "r") a
              | Flush -> "flush")
            ops))
  in
  qtest ~count:200 "access = list/closure reference"
    (QCheck.make ~print QCheck.Gen.(oneofl geometries >>= fun cfg -> pair (return cfg) (ops cfg)))
    (fun (cfg, ops) ->
      let c = Cache.create cfg and r = Ref_cache.create cfg in
      List.for_all
        (function
          | Flush ->
            Cache.flush c;
            Ref_cache.flush r;
            true
          | Access (addr, write) -> Cache.access c ~addr ~write = Ref_cache.access r ~addr ~write)
        ops
      && Cache.stats c = r.Ref_cache.stats)

(* ------------------------------------------------------------------ *)
(* CPU semantics                                                       *)
(* ------------------------------------------------------------------ *)

(* Run a single R-type instruction with the given operand values and
   return rd. *)
let exec_r op a b =
  let memory = Memory.create ~size:0x20000 in
  let encode inst = Int32.to_int (Encode.encode inst) in
  Memory.write_u32 memory 0x10000 (encode (Inst.R (op, Reg.a 0, Reg.a 1, Reg.a 2)));
  Memory.write_u32 memory 0x10004 (encode (Inst.I (Addi, Reg.x0, Reg.x0, 0)));
  let cpu = Cpu.create ~memory ~pc:0x10000 ~sp:0x1F000 () in
  Cpu.set_reg cpu (Reg.a 1) a;
  Cpu.set_reg cpu (Reg.a 2) b;
  Cpu.step cpu;
  (match Cpu.status cpu with
  | Cpu.Running -> ()
  | Cpu.Exited _ | Cpu.Faulted _ | Cpu.Integrity_fault _ ->
    Alcotest.fail "single step should leave CPU running");
  Cpu.reg cpu (Reg.a 0)

let test_div_corner_cases () =
  check Alcotest.int64 "div by zero" (-1L) (exec_r Inst.Div 42L 0L);
  check Alcotest.int64 "rem by zero" 42L (exec_r Inst.Rem 42L 0L);
  check Alcotest.int64 "divu by zero" (-1L) (exec_r Inst.Divu 42L 0L);
  check Alcotest.int64 "remu by zero" 42L (exec_r Inst.Remu 42L 0L);
  check Alcotest.int64 "signed overflow div" Int64.min_int (exec_r Inst.Div Int64.min_int (-1L));
  check Alcotest.int64 "signed overflow rem" 0L (exec_r Inst.Rem Int64.min_int (-1L));
  check Alcotest.int64 "divw by zero" (-1L) (exec_r Inst.Divw 7L 0L);
  check Alcotest.int64 "remw by zero" 7L (exec_r Inst.Remw 7L 0L);
  check Alcotest.int64 "divw overflow" (Int64.of_int32 Int32.min_int)
    (exec_r Inst.Divw (Int64.of_int32 Int32.min_int) (-1L));
  check Alcotest.int64 "trunc toward zero" (-3L) (exec_r Inst.Div (-7L) 2L);
  check Alcotest.int64 "rem sign follows dividend" (-1L) (exec_r Inst.Rem (-7L) 2L)

let test_mulh_identities () =
  (* mulhu/mulh cross-checked against a 32x32 split computed here,
     independent of the CPU implementation's helper. *)
  let samples =
    [ (0x123456789ABCDEFL, 0x0FEDCBA987654321L); (-1L, -1L); (Int64.min_int, 2L);
      (Int64.max_int, Int64.max_int); (0xFFFFFFFFFFFFFFFFL, 2L); (3L, -5L) ]
  in
  let ref_mulhu a b =
    let lo32 = 0xFFFFFFFFL in
    let al = Int64.logand a lo32 and ah = Int64.shift_right_logical a 32 in
    let bl = Int64.logand b lo32 and bh = Int64.shift_right_logical b 32 in
    let open Int64 in
    let ll = mul al bl in
    let lh = mul al bh and hl = mul ah bl and hh = mul ah bh in
    let mid = add (add lh (shift_right_logical ll 32)) (logand hl lo32) in
    add (add hh (shift_right_logical hl 32)) (shift_right_logical mid 32)
  in
  List.iter
    (fun (a, b) ->
      let hu = ref_mulhu a b in
      check Alcotest.int64 "mulhu" hu (exec_r Inst.Mulhu a b);
      let hs =
        let r = hu in
        let r = if Int64.compare a 0L < 0 then Int64.sub r b else r in
        if Int64.compare b 0L < 0 then Int64.sub r a else r
      in
      check Alcotest.int64 "mulh" hs (exec_r Inst.Mulh a b);
      let hsu = if Int64.compare a 0L < 0 then Int64.sub hu b else hu in
      check Alcotest.int64 "mulhsu" hsu (exec_r Inst.Mulhsu a b))
    samples

let mul_small_products =
  qtest "mul/mulh on small magnitudes" QCheck.(pair int64 int64) (fun (a, b) ->
      let a = Int64.rem a 0x40000000L and b = Int64.rem b 0x40000000L in
      exec_r Inst.Mul a b = Int64.mul a b
      && exec_r Inst.Mulh a b = (if Int64.mul a b < 0L then -1L else 0L))

let test_w_ops () =
  check Alcotest.int64 "addw wraps" (Int64.of_int32 (Int32.add Int32.max_int 1l))
    (exec_r Inst.Addw (Int64.of_int32 Int32.max_int) 1L);
  check Alcotest.int64 "subw" (-1L) (exec_r Inst.Subw 0L 1L);
  check Alcotest.int64 "sllw truncates high bits" 0L (exec_r Inst.Sllw 0x100000000L 0L);
  check Alcotest.int64 "srlw on bit31" 1L (exec_r Inst.Srlw 0x80000000L 31L);
  check Alcotest.int64 "sraw sign extends" (-1L) (exec_r Inst.Sraw 0x80000000L 31L);
  check Alcotest.int64 "mulw" (Int64.of_int32 (Int32.mul 123456789l 987654321l))
    (exec_r Inst.Mulw 123456789L 987654321L)

let test_shifts_mask_shamt () =
  check Alcotest.int64 "sll uses low 6 bits" (Int64.shift_left 1L 1) (exec_r Inst.Sll 1L 65L);
  check Alcotest.int64 "srl logical" 1L (exec_r Inst.Srl Int64.min_int 63L);
  check Alcotest.int64 "sra arithmetic" (-1L) (exec_r Inst.Sra Int64.min_int 63L)

let test_slt_family () =
  check Alcotest.int64 "slt" 1L (exec_r Inst.Slt (-1L) 0L);
  check Alcotest.int64 "sltu unsigned" 0L (exec_r Inst.Sltu (-1L) 0L);
  check Alcotest.int64 "sltu small" 1L (exec_r Inst.Sltu 0L 1L)

(* ------------------------------------------------------------------ *)
(* Program-level behaviour                                             *)
(* ------------------------------------------------------------------ *)

let build_program ?(data = Bytes.empty) insts =
  let parcels = Array.of_list (List.map (fun i -> Program.P32 (Encode.encode i)) insts) in
  { (Parcel_image.of_parcels parcels) with Program.data }

let test_x0_hardwired () =
  let image =
    build_program
      [ Inst.I (Addi, Reg.x0, Reg.x0, 55) (* attempt to write x0 *);
        Inst.I (Addi, Reg.a 0, Reg.x0, 0) (* a0 = x0 *);
        Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ]
  in
  match (Soc.run_program image).Soc.status with
  | Cpu.Exited 0 -> ()
  | Cpu.Exited n -> Alcotest.failf "x0 was written: exit %d" n
  | _ -> Alcotest.fail "fault"

let test_load_store_widths () =
  let a n = Reg.a n in
  let image =
    build_program
      [ Inst.I (Addi, a 1, Reg.x0, -128) (* 0xFF..80 *);
        Inst.U (Lui, Reg.t_ 0, 0x12) (* scratch memory at 0x12000 *);
        Inst.Store (Sd, a 1, Reg.t_ 0, 0);
        Inst.Load (Lb, a 2, Reg.t_ 0, 0) (* -128 *);
        Inst.Load (Lbu, a 3, Reg.t_ 0, 0) (* 128 *);
        Inst.Load (Lh, a 4, Reg.t_ 0, 0) (* -128 *);
        Inst.Load (Lhu, a 5, Reg.t_ 0, 0) (* 65408 *);
        Inst.R (Add, a 0, a 2, a 3); Inst.R (Add, a 0, a 0, a 4); Inst.R (Add, a 0, a 0, a 5);
        Inst.I (Addi, a 7, Reg.x0, 93); Inst.Ecall ]
  in
  match (Soc.run_program image).Soc.status with
  | Cpu.Exited code -> check Alcotest.int "widths checksum" (-128 + 128 - 128 + 65408) code
  | _ -> Alcotest.fail "did not exit"

let test_misaligned_store_faults () =
  let image =
    build_program
      [ Inst.U (Lui, Reg.t_ 0, 0x12); Inst.I (Addi, Reg.t_ 0, Reg.t_ 0, 1);
        Inst.Store (Sd, Reg.x0, Reg.t_ 0, 0) ]
  in
  match (Soc.run_program image).Soc.status with
  | Cpu.Faulted msg ->
    check Alcotest.bool "mentions misaligned" true
      (String.length msg >= 10 && String.sub msg 0 10 = "misaligned")
  | _ -> Alcotest.fail "expected fault"

let test_invalid_instruction_faults () =
  let image =
    Parcel_image.of_parcels [| Program.P32 0xFFFFFFFFl |]
  in
  match (Soc.run_program image).Soc.status with
  | Cpu.Faulted _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_ebreak_faults () =
  let image = build_program [ Inst.Ebreak ] in
  match (Soc.run_program image).Soc.status with
  | Cpu.Faulted _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_write_syscall () =
  let image =
    build_program ~data:(Bytes.of_string "xyz")
      [ Inst.U (Lui, Reg.a 1, 0x11) (* data base: text rounds up to one page *);
        Inst.I (Addi, Reg.a 0, Reg.x0, 1); Inst.I (Addi, Reg.a 2, Reg.x0, 3);
        Inst.I (Addi, Reg.a 7, Reg.x0, 64); Inst.Ecall;
        Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.I (Addi, Reg.a 0, Reg.x0, 0); Inst.Ecall ]
  in
  let r = Soc.run_program image in
  check Alcotest.string "output" "xyz" r.Soc.output;
  check Alcotest.bool "exit 0" true (r.Soc.status = Cpu.Exited 0)

(* ------------------------------------------------------------------ *)
(* Timing model                                                        *)
(* ------------------------------------------------------------------ *)

let cycles_of insts =
  let image = build_program (insts @ [ Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ]) in
  let r = Soc.run_program image in
  (match r.Soc.status with Cpu.Exited _ -> () | _ -> Alcotest.fail "did not exit");
  r.Soc.exec_cycles

let test_timing_load_use_stall () =
  let independent =
    cycles_of
      [ Inst.U (Lui, Reg.t_ 0, 0x12); Inst.Load (Ld, Reg.a 1, Reg.t_ 0, 0);
        Inst.I (Addi, Reg.t_ 1, Reg.t_ 1, 1);
        Inst.R (Add, Reg.a 2, Reg.a 1, Reg.a 1) ]
  in
  let dependent =
    cycles_of
      [ Inst.U (Lui, Reg.t_ 0, 0x12); Inst.Load (Ld, Reg.a 1, Reg.t_ 0, 0);
        Inst.R (Add, Reg.a 2, Reg.a 1, Reg.a 1);
        Inst.I (Addi, Reg.t_ 1, Reg.t_ 1, 1) ]
  in
  check Alcotest.int64 "dependent order costs one stall" (Int64.add independent 1L) dependent

let test_timing_div_slower_than_add () =
  let adds = cycles_of (List.init 10 (fun _ -> Inst.R (Add, Reg.a 0, Reg.a 0, Reg.a 1))) in
  let divs = cycles_of (List.init 10 (fun _ -> Inst.R (Div, Reg.a 0, Reg.a 0, Reg.a 1))) in
  check Alcotest.bool "div expensive" true (Int64.compare divs (Int64.add adds 200L) > 0)

let test_timing_taken_branch_penalty () =
  let taken =
    cycles_of [ Inst.Branch (Beq, Reg.x0, Reg.x0, 8); Inst.I (Addi, Reg.a 0, Reg.x0, 1) ]
  in
  let straight =
    cycles_of [ Inst.I (Addi, Reg.a 0, Reg.x0, 1); Inst.I (Addi, Reg.a 1, Reg.x0, 1) ]
  in
  check Alcotest.bool "taken branch pays penalty" true (Int64.compare taken straight > 0)

let test_icache_stats_exposed () =
  let image = build_program [ Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ] in
  let r = Soc.run_program image in
  check Alcotest.bool "icache rate sane" true
    (r.Soc.icache_hit_rate >= 0.0 && r.Soc.icache_hit_rate <= 1.0)

let test_plain_load_cycles () =
  let image = build_program [ Inst.Ecall ] in
  let bytes = Bytes.length (Program.to_binary image) in
  check Alcotest.int64 "dma cycles" (Int64.of_int ((bytes + 7) / 8)) (Soc.plain_load_cycles image)


let test_branch_predictor () =
  (* A hot loop: the bimodal predictor should eliminate most taken-branch
     penalties without changing architectural results. *)
  let a n = Reg.a n in
  let insts =
    [ Inst.I (Addi, a 0, Reg.x0, 0); Inst.I (Addi, Reg.t_ 0, Reg.x0, 0);
      Inst.I (Addi, Reg.t_ 1, Reg.x0, 1000);
      (* loop: *)
      Inst.R (Add, a 0, a 0, Reg.t_ 0); Inst.I (Addi, Reg.t_ 0, Reg.t_ 0, 1);
      Inst.Branch (Blt, Reg.t_ 0, Reg.t_ 1, -8);
      Inst.I (Addi, a 7, Reg.x0, 93); Inst.Ecall ]
  in
  let image = build_program insts in
  let fixed = Soc.run_program image in
  let predicted = Soc.run_program ~branch_predictor:true image in
  check Alcotest.bool "same status" true (fixed.Soc.status = predicted.Soc.status);
  (match (fixed.Soc.status, predicted.Soc.status) with
  | Cpu.Exited a, Cpu.Exited b -> check Alcotest.int "same result" a b
  | _ -> Alcotest.fail "did not exit");
  check Alcotest.int64 "same instruction count" fixed.Soc.instructions predicted.Soc.instructions;
  (* ~999 taken branches at 2 cycles each should nearly all disappear *)
  check Alcotest.bool "prediction saves cycles" true
    (Int64.compare (Int64.add predicted.Soc.exec_cycles 1500L) fixed.Soc.exec_cycles < 0)


let test_csr_counters () =
  (* rdcycle twice and rdinstret once; check deltas. *)
  let a n = Reg.a n in
  let image =
    build_program
      [ Inst.Csrr (a 1, 0xC00) (* cycles #1 *); Inst.I (Addi, Reg.t_ 0, Reg.x0, 1);
        Inst.I (Addi, Reg.t_ 0, Reg.t_ 0, 1); Inst.Csrr (a 2, 0xC00) (* cycles #2 *);
        Inst.Csrr (a 3, 0xC02) (* instret *);
        Inst.R (Sub, a 0, a 2, a 1) (* cycle delta -> exit code *);
        Inst.I (Addi, a 7, Reg.x0, 93); Inst.Ecall ]
  in
  let memory = Soc.load image in
  let cpu = Soc.boot image memory in
  (match Cpu.run cpu with
  | Cpu.Exited delta ->
    check Alcotest.bool "cycles advance" true (delta >= 3);
    (* rdinstret executed as the 5th instruction; it reads the count of
       instructions retired before it *)
    check Alcotest.int64 "instret" 4L (Cpu.reg cpu (a 3))
  | _ -> Alcotest.fail "did not exit")

(* ------------------------------------------------------------------ *)
(* Integrity guard runtime                                             *)
(* ------------------------------------------------------------------ *)

(* A countdown loop long enough for several scrub passes, with optional
   preamble instructions and never-executed padding to flip bits in. *)
let loop_program ?(iters = 1500) ?(extra = []) ?(pad = 0) ?data () =
  build_program ?data
    ([ Inst.I (Addi, Reg.t_ 0, Reg.x0, iters) ]
    @ extra
    @ [ Inst.I (Addi, Reg.t_ 0, Reg.t_ 0, -1);
        Inst.Branch (Bne, Reg.t_ 0, Reg.x0, -4);
        Inst.I (Addi, Reg.a 0, Reg.x0, 0);
        Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ]
    @ List.init pad (fun _ -> Inst.I (Addi, Reg.x0, Reg.x0, 0)))

let run_flipped ~guard ?(flip = fun _ _ -> ()) image =
  let memory = Soc.load image in
  flip memory image;
  Soc.run_loaded ~guard ~load_cycles:0L image memory

let flip_text_byte ~off memory (image : Program.t) =
  ignore image;
  let addr = Program.Layout.text_base + off in
  Memory.write_u8 memory addr (Memory.read_u8 memory addr lxor 0x10)

(* The per-step reference loop: the scrub engine gets a look between
   every two steps.  [Soc.run_loaded] runs the core to each scrub
   deadline in one call and must agree with this loop on every count;
   [scrub] stands in for {!Integrity.scrub} to watch each pass. *)
let run_stepwise ?(fuel = 50_000_000) ?(scrub = Integrity.scrub) ~guard image memory =
  let cpu = Soc.boot image memory in
  let integ = Integrity.create ~config:guard ~image memory in
  Integrity.attach integ cpu;
  let remaining = ref fuel in
  while Cpu.status cpu = Cpu.Running && !remaining > 0 do
    if Integrity.scrub_due integ ~now:(Cpu.cycles cpu) then scrub integ cpu;
    if Cpu.status cpu = Cpu.Running then begin
      Cpu.step cpu;
      decr remaining
    end
  done;
  (* Sets the out-of-fuel fault without stepping. *)
  ignore (Cpu.run ~fuel:0 cpu);
  (cpu, integ)

(* Programs that store into their own text, both ending in an integrity
   fault.  The first overwrites its first instruction before any pass
   has run.  The second counts down in t1 for several [scrub:256]
   passes, which hash its text, then overwrites its last, never-executed
   padding word and counts down again: the pass after the store must
   hash that granule again. *)
let self_modifying_programs () =
  let early =
    loop_program ~extra:[ Inst.U (Lui, Reg.a 1, 0x10); Inst.Store (Sw, Reg.x0, Reg.a 1, 0) ] ()
  in
  let pad = 32 and before_pad = 11 in
  let last_word = 4 * (before_pad + pad - 1) in
  let late =
    loop_program ~pad
      ~extra:
        [ Inst.I (Addi, Reg.t_ 1, Reg.x0, 1500); Inst.I (Addi, Reg.t_ 1, Reg.t_ 1, -1);
          Inst.Branch (Bne, Reg.t_ 1, Reg.x0, -4); Inst.U (Lui, Reg.a 1, 0x10);
          Inst.Store (Sw, Reg.x0, Reg.a 1, last_word) ]
      ()
  in
  check Alcotest.int "the late store hits the last word" (Program.text_size late) (last_word + 4);
  check Alcotest.bool "the last word is padding" true
    ((Program.parcels late).(last_word / 4)
    = Program.P32 (Encode.encode (Inst.I (Addi, Reg.x0, Reg.x0, 0))));
  [ ("early text store", early); ("late text store", late) ]

let test_guard_clean_run_equivalent () =
  let image = loop_program () in
  let plain = run_flipped ~guard:Eric_hw.Guard.disabled image in
  let guarded = run_flipped ~guard:(Eric_hw.Guard.fetch_and_scrub ~interval_cycles:256) image in
  (match (plain.Soc.status, guarded.Soc.status) with
  | Cpu.Exited 0, Cpu.Exited 0 -> ()
  | _ -> Alcotest.fail "clean run did not exit 0 under the guard");
  check Alcotest.int64 "same instructions" plain.Soc.instructions guarded.Soc.instructions;
  check Alcotest.int64 "plain charges no guard cycles" 0L plain.Soc.guard_cycles;
  check Alcotest.bool "guard cycles charged" true
    (Int64.compare guarded.Soc.guard_cycles 0L > 0);
  check Alcotest.bool "guard slows the run" true
    (Int64.compare guarded.Soc.exec_cycles plain.Soc.exec_cycles > 0)

let test_guard_fetch_detects_before_decode () =
  (* The flipped first instruction would also fail decode; the fetch
     check must win (check-before-decode in Cpu.step), yielding a typed
     integrity fault rather than an invalid-instruction trap. *)
  let image = loop_program () in
  let r =
    run_flipped ~guard:Eric_hw.Guard.fetch_check ~flip:(flip_text_byte ~off:0) image
  in
  match r.Soc.status with
  | Cpu.Integrity_fault _ -> ()
  | Cpu.Faulted m -> Alcotest.failf "machine fault preempted the guard: %s" m
  | _ -> Alcotest.fail "corrupted fetch not detected"

let test_guard_scrub_detects_dead_code () =
  (* Flip in padding that is never fetched: I-side checking alone is
     blind to it, a scrub pass is not. *)
  let image = loop_program ~pad:32 () in
  let flip = flip_text_byte ~off:(Program.text_size image - 4) in
  let scrubbed =
    run_flipped ~guard:(Eric_hw.Guard.scrub ~interval_cycles:256) ~flip image
  in
  (match scrubbed.Soc.status with
  | Cpu.Integrity_fault _ -> ()
  | _ -> Alcotest.fail "scrub missed a dead-code flip");
  let fetch_only = run_flipped ~guard:Eric_hw.Guard.fetch_check ~flip image in
  match fetch_only.Soc.status with
  | Cpu.Exited 0 -> ()  (* the honest I-side blind spot *)
  | _ -> Alcotest.fail "fetch-only guard should not see never-fetched text"

let test_guard_self_modifying_text_faults () =
  (* A store below the data segment is never re-enrolled, so the next
     scrub pass faults it, also after earlier passes found the granule
     clean. *)
  List.iter
    (fun (name, image) ->
      let r = run_flipped ~guard:(Eric_hw.Guard.scrub ~interval_cycles:256) image in
      match r.Soc.status with
      | Cpu.Integrity_fault _ -> ()
      | _ -> Alcotest.failf "%s: self-modified text not faulted" name)
    (self_modifying_programs ())

let test_guard_reenrolls_dirty_data () =
  (* Legitimate data writes re-enroll instead of faulting: the guarded
     run completes, and the stats show the re-enrollment happened. *)
  let image =
    loop_program
      ~extra:[ Inst.U (Lui, Reg.a 1, 0x11); Inst.Store (Sw, Reg.t_ 0, Reg.a 1, 0) ]
      ~data:(Bytes.make 16 '\x00') ()
  in
  let cpu, integ =
    run_stepwise ~fuel:100_000 ~guard:(Eric_hw.Guard.scrub ~interval_cycles:128) image
      (Soc.load image)
  in
  (match Cpu.status cpu with
  | Cpu.Exited 0 -> ()
  | _ -> Alcotest.fail "data write must not integrity-fault");
  let s = Integrity.stats integ in
  check Alcotest.bool "scrubs ran" true (s.Integrity.scrub_passes > 1);
  check Alcotest.bool "dirty granule re-enrolled" true (s.Integrity.granules_reenrolled >= 1);
  check Alcotest.bool "clean granules checked" true (s.Integrity.granules_checked > 0);
  check Alcotest.bool "post-run audit clean" true (Result.is_ok (Integrity.verify_all integ))

(* A scrub pass skips re-hashing granules no store touched since they
   last matched.  That must never hide what a full re-hash sees: before
   every pass of the per-step loop, [Integrity.verify_all] hashes every
   granule the pass checks, and the pass must fault exactly when the
   audit fails. *)
let test_guard_scrub_matches_full_rehash () =
  let guard = Eric_hw.Guard.fetch_and_scrub ~interval_cycles:1024 in
  let audited name ?(flip = fun _ _ -> ()) image =
    let memory = Soc.load image in
    flip memory image;
    let passes = ref 0 in
    let scrub integ cpu =
      let audit = Integrity.verify_all integ in
      Integrity.scrub integ cpu;
      incr passes;
      let faulted = match Cpu.status cpu with Cpu.Integrity_fault _ -> true | _ -> false in
      if faulted <> Result.is_error audit then
        Alcotest.failf "%s: pass %d %s, the full re-hash %s" name !passes
          (if faulted then "faulted" else "passed")
          (if faulted then "passed" else "failed")
    in
    let cpu, _ = run_stepwise ~scrub ~guard image memory in
    check Alcotest.bool (name ^ ": scrubbed") true (!passes > 0);
    Cpu.status cpu
  in
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let name = w.Eric_workloads.Workloads.name in
      let image = Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source_small in
      if audited name image <> Cpu.Exited 0 then Alcotest.failf "%s: did not exit 0" name)
    Eric_workloads.Workloads.all;
  let dead_code = loop_program ~pad:32 () in
  let faulted_programs =
    ( "dead-code flip",
      dead_code,
      flip_text_byte ~off:(Program.text_size dead_code - 4) )
    :: List.map (fun (name, image) -> (name, image, fun _ _ -> ())) (self_modifying_programs ())
  in
  List.iter
    (fun (name, image, flip) ->
      match audited name ~flip image with
      | Cpu.Integrity_fault _ -> ()
      | _ -> Alcotest.failf "%s: not faulted" name)
    faulted_programs

(* ------------------------------------------------------------------ *)
(* Out of fuel, out-of-range addresses, the decode cache, allocation   *)
(* ------------------------------------------------------------------ *)

(* Fuel counts instructions exactly, also when a guarded run steps the
   core in chunks between scrub deadlines: one fuel ends inside a chunk,
   the other exactly on a deadline, where the reference loop stops with
   the pass due but not run. *)
let test_out_of_fuel () =
  let image = build_program [ Inst.Jal (Reg.x0, 0) (* jump to self *) ] in
  (match (Soc.run_program ~fuel:1000 image).Soc.status with
  | Cpu.Faulted "out of fuel" -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion");
  List.iter
    (fun guard ->
      let mechanism = Eric_hw.Guard.mechanism_name guard.Eric_hw.Guard.mechanism in
      let due = ref [] in
      let note_due integ cpu =
        due := Int64.to_int (Cpu.instructions cpu) :: !due;
        Integrity.scrub integ cpu
      in
      ignore (run_stepwise ~fuel:5_000 ~scrub:note_due ~guard image (Soc.load image));
      let third_due = List.nth (List.rev !due) 2 in
      List.iter
        (fun (what, fuel, on_deadline) ->
          let name = Printf.sprintf "%s, fuel %d (%s)" mechanism fuel what in
          let cpu, integ = run_stepwise ~fuel ~guard image (Soc.load image) in
          check Alcotest.bool (name ^ ": ends on a deadline") on_deadline
            (Integrity.scrub_due integ ~now:(Cpu.cycles cpu));
          let r = Soc.run_loaded ~fuel ~guard ~load_cycles:0L image (Soc.load image) in
          check Alcotest.bool (name ^ ": out of fuel") true
            (r.Soc.status = Cpu.Faulted "out of fuel" && Cpu.status cpu = r.Soc.status);
          check Alcotest.int64 (name ^ ": instructions") (Int64.of_int fuel) r.Soc.instructions;
          check Alcotest.int64 (name ^ ": exec cycles")
            (Int64.of_int (Cpu.cycles cpu)) r.Soc.exec_cycles;
          check Alcotest.int64 (name ^ ": guard cycles")
            (Int64.of_int (Integrity.stats integ).Integrity.guard_cycles) r.Soc.guard_cycles)
        [ ("mid-chunk", third_due - 7, false); ("on a deadline", third_due, true) ])
    [ Eric_hw.Guard.scrub ~interval_cycles:256;
      Eric_hw.Guard.fetch_and_scrub ~interval_cycles:1024 ]

let run_with_regs insts regs =
  let image = build_program insts in
  let cpu = Soc.boot image (Soc.load image) in
  List.iter (fun (r, v) -> Cpu.set_reg cpu r v) regs;
  Cpu.run cpu

let expect_fault what expected status =
  match status with
  | Cpu.Faulted msg -> check Alcotest.string what expected msg
  | _ -> Alcotest.failf "%s: expected a fault" what

(* Addresses whose [addr + len] wraps past max_int must fault like any
   other out-of-range access, not escape [Cpu.step]. *)
let test_wrapping_addresses_fault () =
  expect_fault "ld near max_int" "memory access out of bounds: 0x3ffffffffffffff8 (+8) (pc 0x10000)"
    (run_with_regs [ Inst.Load (Ld, Reg.a 0, Reg.a 1, 0) ] [ (Reg.a 1, 0x3FFF_FFFF_FFFF_FFF8L) ]);
  expect_fault "write syscall with a huge length"
    "memory access out of bounds: 0x11000 (+4611686018427387903) (pc 0x10004)"
    (run_with_regs
       [ Inst.I (Addi, Reg.a 7, Reg.x0, 64); Inst.Ecall ]
       [ (Reg.a 1, 0x11000L); (Reg.a 2, Int64.of_int max_int) ]);
  expect_fault "jump near max_int"
    "memory access out of bounds: 0x3ffffffffffffffe (+2) (pc 0x3ffffffffffffffe)"
    (run_with_regs [ Inst.Jalr (Reg.x0, Reg.a 1, 0) ] [ (Reg.a 1, 0x3FFF_FFFF_FFFF_FFFEL) ])

(* A pc is decoded on its first fetch and never again: without FENCE.I,
   a store over text that already ran is not seen by fetch. *)
let test_decode_once_stale_text () =
  let a n = Reg.a n in
  let patch = Inst.I (Addi, a 0, a 0, 100) in
  let data = Bytes.create 4 in
  Bytes.set_int32_le data 0 (Encode.encode patch);
  let image =
    build_program ~data
      [ Inst.U (Lui, a 1, 0x10); Inst.I (Addi, a 1, a 1, 24) (* a1 = instruction 6 *);
        Inst.U (Lui, a 2, 0x11); Inst.Load (Lw, Reg.t_ 2, a 2, 0) (* t2 = the patch *);
        Inst.I (Addi, Reg.t_ 0, Reg.x0, 2); Inst.I (Addi, a 0, Reg.x0, 0);
        Inst.I (Addi, a 0, a 0, 1) (* patched by the first iteration *);
        Inst.Store (Sw, Reg.t_ 2, a 1, 0);
        Inst.I (Addi, Reg.t_ 0, Reg.t_ 0, -1); Inst.Branch (Bne, Reg.t_ 0, Reg.x0, -12);
        Inst.I (Addi, a 7, Reg.x0, 93); Inst.Ecall ]
  in
  let memory = Soc.load image in
  (match Cpu.run (Soc.boot image memory) with
  | Cpu.Exited code -> check Alcotest.int "the stale decode ran both times" 2 code
  | _ -> Alcotest.fail "did not exit");
  check Alcotest.int "the store reached memory"
    (Int32.to_int (Encode.encode patch) land 0xFFFF_FFFF)
    (Memory.read_u32 memory (Program.Layout.text_base + 24))

(* Decode comes at a pc's first fetch, not ahead of it: a store into a
   later instruction of the same straight-line run, made before that
   instruction's first fetch, is what runs. *)
let test_decode_store_ahead_seen () =
  let a n = Reg.a n in
  let patch = Inst.I (Addi, a 0, Reg.x0, 7) in
  let data = Bytes.create 4 in
  Bytes.set_int32_le data 0 (Encode.encode patch);
  let image =
    build_program ~data
      [ Inst.U (Lui, a 1, 0x10); Inst.I (Addi, a 1, a 1, 24) (* a1 = instruction 6 *);
        Inst.U (Lui, a 2, 0x11); Inst.Load (Lw, Reg.t_ 2, a 2, 0) (* t2 = the patch *);
        Inst.Store (Sw, Reg.t_ 2, a 1, 0); Inst.I (Addi, a 7, Reg.x0, 93);
        Inst.I (Addi, a 0, Reg.x0, 1) (* patched before it is fetched *); Inst.Ecall ]
  in
  let stepped = Soc.boot image (Soc.load image) in
  while Cpu.status stepped = Cpu.Running do
    Cpu.step stepped
  done;
  List.iter
    (fun (how, status) ->
      match status with
      | Cpu.Exited code -> check Alcotest.int (how ^ ": the patched instruction ran") 7 code
      | _ -> Alcotest.failf "%s: did not exit" how)
    [ ("run", Cpu.run (Soc.boot image (Soc.load image))); ("step", Cpu.status stepped) ]

let test_decode_pc_in_data () =
  let data = Bytes.create 12 in
  List.iteri
    (fun i inst -> Bytes.set_int32_le data (4 * i) (Encode.encode inst))
    [ Inst.I (Addi, Reg.a 0, Reg.x0, 7); Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ];
  let image = build_program ~data [ Inst.U (Lui, Reg.t_ 0, 0x11); Inst.Jalr (Reg.x0, Reg.t_ 0, 0) ] in
  match (Soc.run_program image).Soc.status with
  | Cpu.Exited 7 -> ()
  | _ -> Alcotest.fail "code in the data segment did not run"

(* Pcs the decode table does not hold (odd, past the end, negative) fault
   with the decoder's or the memory trap's own message. *)
let test_decode_bad_pc_faults () =
  let image = build_program [ Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ] in
  let run_at pc =
    let cpu = Cpu.create ~memory:(Soc.load image) ~pc ~sp:Program.Layout.stack_top () in
    Cpu.run cpu
  in
  expect_fault "odd pc in text" "invalid compressed parcel 0x0000 at pc 0x10005"
    (run_at (Program.Layout.text_base + 1));
  expect_fault "odd pc in unwritten memory" "invalid compressed parcel 0x0000 at pc 0x20001"
    (run_at 0x20001);
  expect_fault "pc at the end of memory"
    "memory access out of bounds: 0x1000000 (+2) (pc 0x1000000)"
    (run_at Program.Layout.memory_size);
  expect_fault "last byte of memory" "memory access out of bounds: 0xffffff (+2) (pc 0xffffff)"
    (run_at (Program.Layout.memory_size - 1));
  expect_fault "negative pc"
    "memory access out of bounds: 0x7ffffffffffffffe (+2) (pc 0x7ffffffffffffffe)" (run_at (-2))

(* The decode table grows with the pages fetched, so a core costs little
   before it runs.  [Gc.allocated_bytes] also counts what goes straight
   to the major heap, as a large table would. *)
let test_boot_allocates_little () =
  let image = loop_program () in
  let memory = Soc.load image in
  let before = Gc.allocated_bytes () in
  let cpu = Soc.boot image memory in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  ignore (Sys.opaque_identity cpu);
  check Alcotest.bool (Printf.sprintf "%.0f words" words) true (words < 1000.)

(* Minor words and instructions of one run of [image] on a booted core,
   with the guard's fetch and store hooks attached when it is enabled;
   booting is not counted. *)
let booted_run_words ?(guard = Eric_hw.Guard.disabled) image =
  let memory = Soc.load image in
  let cpu = Soc.boot image memory in
  if Eric_hw.Guard.enabled guard then
    Integrity.attach (Integrity.create ~config:guard ~image memory) cpu;
  let before = Gc.minor_words () in
  if Cpu.run cpu <> Cpu.Exited 0 then Alcotest.fail "loop did not exit 0";
  (Gc.minor_words () -. before, Int64.to_float (Cpu.instructions cpu))

(* Minor words that fetch+scrub:1024 adds to a [Soc.run_loaded] of a
   loop of [iterations_lui] * 4096 iterations, with its instructions. *)
let guard_run_words ~iterations_lui =
  let image = loop_program ~extra:[ Inst.U (Lui, Reg.t_ 0, iterations_lui) ] () in
  let words guard =
    let memory = Soc.load image in
    let before = Gc.minor_words () in
    let r = Soc.run_loaded ~guard ~load_cycles:0L image memory in
    let words = Gc.minor_words () -. before in
    if r.Soc.status <> Cpu.Exited 0 then Alcotest.fail "loop did not exit 0";
    (words, Int64.to_float r.Soc.instructions)
  in
  let guarded, n = words (Eric_hw.Guard.fetch_and_scrub ~interval_cycles:1024) in
  (guarded -. fst (words Eric_hw.Guard.disabled), n)

(* [short] and [long] are (words, instructions) of the same loop at two
   lengths.  Their difference over the extra instructions is what a step
   allocates, and must stay below 0.1 words; the short run's words, what
   a run allocates whatever its length, below 0.1 per instruction.  Each
   bound fails by its own name. *)
let check_run_and_step_words label ~short:(ws, is) ~long:(wl, il) =
  let per_step = (wl -. ws) /. (il -. is) in
  check Alcotest.bool
    (Printf.sprintf "%s per step: %.4f words" label per_step)
    true (per_step < 0.1);
  check Alcotest.bool
    (Printf.sprintf "%s per run: %.0f words over %.0f instructions" label ws is)
    true
    (ws < 0.1 *. is)

let test_steps_allocate_nothing () =
  check_run_and_step_words "ALU and branch loop"
    ~short:(booted_run_words (loop_program ~iters:1500 ()))
    ~long:(booted_run_words (loop_program ~iters:2000 ()));
  (* The guard runs the core in chunks between its passes; over loops of
     20k and 80k iterations it adds nothing per step. *)
  check_run_and_step_words "fetch+scrub:1024's addition"
    ~short:(guard_run_words ~iterations_lui:5)
    ~long:(guard_run_words ~iterations_lui:20);
  (* Every load and store width and the M extension's high multiplies
     and divides, 4096 and 8192 times round a loop over the data
     segment.  Under the guard the core runs with its fetch and store
     hooks attached. *)
  let a n = Reg.a n and t0 = Reg.t_ 0 in
  let body =
    List.map (fun op -> Inst.Load (op, a 2, a 1, 0)) [ Lb; Lh; Lw; Ld; Lbu; Lhu; Lwu ]
    @ List.map (fun (op, off) -> Inst.Store (op, t0, a 1, off)) [ (Sb, 8); (Sh, 16); (Sw, 24); (Sd, 32) ]
    @ List.map
        (fun op -> Inst.R (op, a 3, a 1, t0))
        [ Mulh; Mulhsu; Mulhu; Div; Divu; Rem; Remu; Divw; Remw ]
    @ [ Inst.I (Addi, t0, t0, -1) ]
  in
  let image iterations_lui =
    build_program ~data:(Bytes.make 64 '\001')
      ([ Inst.U (Lui, t0, iterations_lui); Inst.U (Lui, a 1, 0x11) (* the data base *) ]
      @ body
      @ [ Inst.Branch (Bne, t0, Reg.x0, -4 * List.length body); Inst.I (Addi, a 0, Reg.x0, 0);
          Inst.I (Addi, a 7, Reg.x0, 93); Inst.Ecall ])
  in
  List.iter
    (fun (label, guard) ->
      check_run_and_step_words
        (label ^ " load, store and M loop")
        ~short:(booted_run_words ~guard (image 1))
        ~long:(booted_run_words ~guard (image 2)))
    [ ("unguarded", Eric_hw.Guard.disabled);
      ("fetch+scrub:1024", Eric_hw.Guard.fetch_and_scrub ~interval_cycles:1024) ]

(* A scrub pass and a fetch check allocate nothing: at the same interval,
   a loop four times as long runs about four times the passes and
   checks, and the guard must add no more words to it than to the short
   one. *)
let test_scrub_pass_allocates_nothing () =
  let short, _ = guard_run_words ~iterations_lui:5
  and long, _ = guard_run_words ~iterations_lui:20 in
  check Alcotest.bool
    (Printf.sprintf "the guard adds %.0f words, and %.0f at 4x the length" short long)
    true
    (Float.abs (long -. short) <= 8.)

(* ------------------------------------------------------------------ *)
(* Golden cycle pin                                                    *)
(* ------------------------------------------------------------------ *)

(* Absolute simulated counts of every small-dataset workload, unguarded
   and under fetch+scrub:1024: status, instructions, exec and guard
   cycles, I- and D-cache accesses/hits/misses/writebacks and the MD5 of
   the output.  Work on the simulator's speed must leave every one
   unchanged; a deliberate change to the timing model updates them
   here. *)
let golden_rows =
  [ "basicmath off: exit 0 instr=55676 exec=104520 guard=0 icache=55676/55663/13/0 \
     dcache=5009/4988/21/0 out=9b1fd9c8d5ee1c357d453dfe7832f70f";
    "basicmath fetch+scrub:1024: exit 0 instr=55676 exec=689571 guard=585051 \
     icache=55676/55663/13/0 dcache=5009/4988/21/0 out=9b1fd9c8d5ee1c357d453dfe7832f70f";
    "bitcount off: exit 0 instr=97100 exec=112844 guard=0 icache=97100/97082/18/0 \
     dcache=4772/4734/38/0 out=b6ad0dc0dd72136de36c0133b600ee50";
    "bitcount fetch+scrub:1024: exit 0 instr=97100 exec=872327 guard=759483 \
     icache=97100/97082/18/0 dcache=4772/4734/38/0 out=b6ad0dc0dd72136de36c0133b600ee50";
    "qsort off: exit 0 instr=63056 exec=105556 guard=0 icache=63056/63036/20/0 \
     dcache=14854/14813/41/0 out=069ec1c14401db628b748ddf401b1ddc";
    "qsort fetch+scrub:1024: exit 0 instr=63056 exec=767128 guard=661572 \
     icache=63056/63036/20/0 dcache=14854/14813/41/0 out=069ec1c14401db628b748ddf401b1ddc";
    "dijkstra off: exit 0 instr=118640 exec=213577 guard=0 icache=118640/118623/17/0 \
     dcache=8561/8348/213/0 out=399d4fdb2196513d175ef079149fca10";
    "dijkstra fetch+scrub:1024: exit 0 instr=118640 exec=4147198 guard=3933621 \
     icache=118640/118623/17/0 dcache=8561/8348/213/0 out=399d4fdb2196513d175ef079149fca10";
    "crc32 off: exit 0 instr=100180 exec=118287 guard=0 icache=100180/100163/17/0 \
     dcache=3220/3172/48/0 out=a0126569e2baed17eed9197ca22f4c82";
    "crc32 fetch+scrub:1024: exit 0 instr=100180 exec=991896 guard=873609 \
     icache=100180/100163/17/0 dcache=3220/3172/48/0 out=a0126569e2baed17eed9197ca22f4c82";
    "stringsearch off: exit 0 instr=148301 exec=216763 guard=0 icache=148301/148275/26/0 \
     dcache=13451/13402/49/0 out=64ccc2acebb62671bae26801215ca1a8";
    "stringsearch fetch+scrub:1024: exit 0 instr=148301 exec=1835227 guard=1618464 \
     icache=148301/148275/26/0 dcache=13451/13402/49/0 out=64ccc2acebb62671bae26801215ca1a8";
    "sha off: exit 0 instr=101616 exec=124639 guard=0 icache=101616/101587/29/0 \
     dcache=8493/8471/22/0 out=192fa1ae38160d711d1d0756ed44ac25";
    "sha fetch+scrub:1024: exit 0 instr=101616 exec=814087 guard=689448 \
     icache=101616/101587/29/0 dcache=8493/8471/22/0 out=192fa1ae38160d711d1d0756ed44ac25";
    "adpcm off: exit 0 instr=104564 exec=162406 guard=0 icache=104564/104540/24/0 \
     dcache=8536/8381/155/0 out=d2434477b4e7344c99fda967a586a6f9";
    "adpcm fetch+scrub:1024: exit 0 instr=104564 exec=2599624 guard=2437218 \
     icache=104564/104540/24/0 dcache=8536/8381/155/0 out=d2434477b4e7344c99fda967a586a6f9";
    "rijndael off: exit 0 instr=121733 exec=181375 guard=0 icache=121733/121696/37/0 \
     dcache=18218/18198/20/0 out=2f472ea7d52696c598c28150eb86e4fd";
    "rijndael fetch+scrub:1024: exit 0 instr=121733 exec=1166488 guard=985113 \
     icache=121733/121696/37/0 dcache=18218/18198/20/0 out=2f472ea7d52696c598c28150eb86e4fd";
    "fft off: exit 0 instr=307268 exec=589173 guard=0 icache=307268/307239/29/0 \
     dcache=46895/46786/109/0 out=7cc676aa3d62f1b57196cf08beb87d16";
    "fft fetch+scrub:1024: exit 0 instr=307268 exec=7284588 guard=6695415 \
     icache=307268/307239/29/0 dcache=46895/46786/109/0 out=7cc676aa3d62f1b57196cf08beb87d16" ]

(* The ten large-dataset workloads, unguarded: Fig 7's large rows. *)
let golden_large_rows =
  [ "basicmath large off: exit 0 instr=4793509 exec=24850219 guard=0 \
     icache=4793509/4793496/13/0 dcache=224490/220249/4241/3914 \
     out=85600a46569b1b3cb0aca1f75116f727";
    "bitcount large off: exit 0 instr=12967590 exec=14820988 guard=0 \
     icache=12967590/12967572/18/0 dcache=560860/560822/38/0 \
     out=70daa82fb2156e7717e1db4dc0805922";
    "qsort large off: exit 0 instr=1052039 exec=1698423 guard=0 \
     icache=1052039/1052019/20/0 dcache=241853/239975/1878/1090 \
     out=f741bd1d1f07ba6b00e633353059eda2";
    "dijkstra large off: exit 0 instr=3471788 exec=5290789 guard=0 \
     icache=3471788/3471771/17/0 dcache=309902/299585/10317/1154 \
     out=42f5c07a452775db45e41a7cf49ef0ea";
    "crc32 large off: exit 0 instr=823977 exec=953047 guard=0 \
     icache=823977/823960/17/0 dcache=51027/50563/464/174 \
     out=c04aa1cb73acf82c8e746a5ef0d63d04";
    "stringsearch large off: exit 0 instr=1427356 exec=2126422 guard=0 \
     icache=1427356/1427330/26/0 dcache=125139/124974/165/0 \
     out=64ccc2acebb62671bae26801215ca1a8";
    "sha large off: exit 0 instr=834773 exec=973158 guard=0 \
     icache=834773/834744/29/0 dcache=67943/67863/80/0 \
     out=244eddc3a8d534a65f1fcabe81b769d4";
    "adpcm large off: exit 0 instr=1112195 exec=1770910 guard=0 \
     icache=1112195/1112171/24/0 dcache=90199/86075/4124/1541 \
     out=69e655f525b51a21fa58f09ee9d5dbf1";
    "rijndael large off: exit 0 instr=2165110 exec=3209968 guard=0 \
     icache=2165110/2165073/37/0 dcache=356986/356935/51/0 \
     out=30c2a7729818e494f5e7e30c922ee4c8";
    "fft large off: exit 0 instr=1811518 exec=3329867 guard=0 \
     icache=1811518/1811489/29/0 dcache=283362/283253/109/0 \
     out=7cc676aa3d62f1b57196cf08beb87d16" ]

(* The small-dataset workloads with the bimodal branch predictor. *)
let golden_predictor_rows =
  [ "basicmath off, predictor: exit 0 instr=55676 exec=102746 guard=0 \
     icache=55676/55663/13/0 dcache=5009/4988/21/0 \
     out=9b1fd9c8d5ee1c357d453dfe7832f70f";
    "bitcount off, predictor: exit 0 instr=97100 exec=112826 guard=0 \
     icache=97100/97082/18/0 dcache=4772/4734/38/0 \
     out=b6ad0dc0dd72136de36c0133b600ee50";
    "qsort off, predictor: exit 0 instr=63056 exec=105028 guard=0 \
     icache=63056/63036/20/0 dcache=14854/14813/41/0 \
     out=069ec1c14401db628b748ddf401b1ddc";
    "dijkstra off, predictor: exit 0 instr=118640 exec=205109 guard=0 \
     icache=118640/118623/17/0 dcache=8561/8348/213/0 \
     out=399d4fdb2196513d175ef079149fca10";
    "crc32 off, predictor: exit 0 instr=100180 exec=118173 guard=0 \
     icache=100180/100163/17/0 dcache=3220/3172/48/0 \
     out=a0126569e2baed17eed9197ca22f4c82";
    "stringsearch off, predictor: exit 0 instr=148301 exec=190779 guard=0 \
     icache=148301/148275/26/0 dcache=13451/13402/49/0 \
     out=64ccc2acebb62671bae26801215ca1a8";
    "sha off, predictor: exit 0 instr=101616 exec=122843 guard=0 \
     icache=101616/101587/29/0 dcache=8493/8471/22/0 \
     out=192fa1ae38160d711d1d0756ed44ac25";
    "adpcm off, predictor: exit 0 instr=104564 exec=150834 guard=0 \
     icache=104564/104540/24/0 dcache=8536/8381/155/0 \
     out=d2434477b4e7344c99fda967a586a6f9";
    "rijndael off, predictor: exit 0 instr=121733 exec=181407 guard=0 \
     icache=121733/121696/37/0 dcache=18218/18198/20/0 \
     out=2f472ea7d52696c598c28150eb86e4fd";
    "fft off, predictor: exit 0 instr=307268 exec=576405 guard=0 \
     icache=307268/307239/29/0 dcache=46895/46786/109/0 \
     out=7cc676aa3d62f1b57196cf08beb87d16" ]

let status_label = function
  | Cpu.Running -> "running"
  | Cpu.Exited n -> Printf.sprintf "exit %d" n
  | Cpu.Faulted m -> "fault " ^ m
  | Cpu.Integrity_fault m -> "integrity " ^ m

let cache_label c =
  let s = Cache.stats c in
  Printf.sprintf "%d/%d/%d/%d" s.Cache.accesses s.Cache.hits s.Cache.misses s.Cache.writebacks

(* A guarded core is stepped one instruction at a time, so that its
   caches are in reach; [Soc.run_loaded], which runs it in chunks between
   scrub deadlines, must then agree on every field it reports, as must
   [Soc.run_program] for a core with the branch predictor. *)
let golden_row name ?branch_predictor ~guard image =
  let memory = Soc.load image in
  let cpu = Soc.boot ?branch_predictor image memory in
  let guard_cycles =
    if Eric_hw.Guard.enabled guard then begin
      let integ = Integrity.create ~config:guard ~image memory in
      Integrity.attach integ cpu;
      while Cpu.status cpu = Cpu.Running do
        if Integrity.scrub_due integ ~now:(Cpu.cycles cpu) then Integrity.scrub integ cpu;
        if Cpu.status cpu = Cpu.Running then Cpu.step cpu
      done;
      (Integrity.stats integ).Integrity.guard_cycles
    end
    else begin
      ignore (Cpu.run cpu);
      0
    end
  in
  let r =
    match branch_predictor with
    | Some branch_predictor -> Soc.run_program ~branch_predictor image
    | None -> Soc.run_loaded ~guard ~load_cycles:0L image (Soc.load image)
  in
  check Alcotest.bool (name ^ ": Soc agrees") true
    (r.Soc.status = Cpu.status cpu
    && r.Soc.instructions = Cpu.instructions cpu
    && r.Soc.exec_cycles = Int64.of_int (Cpu.cycles cpu)
    && r.Soc.guard_cycles = Int64.of_int guard_cycles
    && r.Soc.output = Cpu.output cpu
    && r.Soc.icache_hit_rate = Cache.hit_rate (Cpu.icache cpu)
    && r.Soc.dcache_hit_rate = Cache.hit_rate (Cpu.dcache cpu));
  Printf.sprintf "%s: %s instr=%Ld exec=%d guard=%d icache=%s dcache=%s out=%s" name
    (status_label (Cpu.status cpu)) (Cpu.instructions cpu) (Cpu.cycles cpu) guard_cycles
    (cache_label (Cpu.icache cpu)) (cache_label (Cpu.dcache cpu))
    (Digest.to_hex (Digest.string (Cpu.output cpu)))

let test_golden_cycles () =
  let rows =
    List.concat_map
      (fun (w : Eric_workloads.Workloads.t) ->
        let name = w.Eric_workloads.Workloads.name in
        let image = Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source_small in
        [ golden_row (name ^ " off") ~guard:Eric_hw.Guard.disabled image;
          golden_row (name ^ " fetch+scrub:1024")
            ~guard:(Eric_hw.Guard.fetch_and_scrub ~interval_cycles:1024)
            image ])
      Eric_workloads.Workloads.all
  in
  check Alcotest.(list string) "golden rows" golden_rows rows

let test_golden_large () =
  let rows =
    List.map
      (fun (w : Eric_workloads.Workloads.t) ->
        golden_row (w.Eric_workloads.Workloads.name ^ " large off") ~guard:Eric_hw.Guard.disabled
          (Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source))
      Eric_workloads.Workloads.all
  in
  check Alcotest.(list string) "golden rows" golden_large_rows rows

let test_golden_predictor () =
  let rows =
    List.map
      (fun (w : Eric_workloads.Workloads.t) ->
        golden_row (w.Eric_workloads.Workloads.name ^ " off, predictor") ~branch_predictor:true
          ~guard:Eric_hw.Guard.disabled
          (Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source_small))
      Eric_workloads.Workloads.all
  in
  check Alcotest.(list string) "golden rows" golden_predictor_rows rows

(* ------------------------------------------------------------------ *)
(* The core against its reference                                      *)
(* ------------------------------------------------------------------ *)

(* The core as it was when a step dispatched twice, on the instruction
   and then on its op, and every fetch went through [Cache.access].  One
   dispatch on the flat decoded form, and counting same-line fetches in
   the core, must give the same registers, pc, status, counts and cache
   stats after every step.  It is kept here without the hooks, which the
   comparison installs none of, and without [run_until] and [run]: it
   only steps. *)
module Reference_cpu = struct
  type syscall_result = Sys_continue | Sys_exit of int

  type status = Cpu.status =
    | Running
    | Exited of int
    | Faulted of string
    | Integrity_fault of string

  exception Integrity_violation = Cpu.Integrity_violation

  (* A decoded instruction, with the registers it reads as a bitmask (bit
     [r] for xr) for the load-use check. *)
  type decoded = { inst : Inst.t; size : int; uses : int }

  type t = {
    regs : Bytes.t;  (** see "Register file" below *)
    mutable pc_ : int;
    memory : Memory.t;
    icache_ : Cache.t;
    dcache_ : Cache.t;
    timing : Cpu.timing;
    mutable cycles_ : int;
    mutable instret : int;
    mutable status_ : status;
    mutable last_load_dest : int;  (** register the previous instruction loaded, or -1 *)
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

  let create ?(timing = Cpu.default_timing) ?(icache = Cache.table1_config)
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
  let cycles t = Int64.of_int t.cycles_
  let instructions t = Int64.of_int t.instret
  let icache t = t.icache_
  let dcache t = t.dcache_
  let output t = Buffer.contents t.out
  let status t = t.status_

  let running t =
    match t.status_ with Running -> true | Exited _ | Faulted _ | Integrity_fault _ -> false

  let add_cycles t n = t.cycles_ <- t.cycles_ + n
  let charge_cache t cache ~addr ~write =
    match Cache.access cache ~addr ~write with
    | Cache.Hit -> ()
    | Cache.Miss { writeback } ->
      let penalty =
        (if cache == t.icache_ then t.timing.icache_miss_penalty else t.timing.dcache_miss_penalty)
        + if writeback then t.timing.writeback_penalty else 0
      in
      add_cycles t penalty

  let charge_ifetch t ~addr =
    match Cache.access t.icache_ ~addr ~write:false with
    | Cache.Hit -> ()
    | Cache.Miss { writeback } ->
      add_cycles t
        (t.timing.icache_miss_penalty + if writeback then t.timing.writeback_penalty else 0)

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
      store t op addr (src :> int)
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
end

(* Everything the two cores let a caller see, but the output. *)
type core_state = {
  s_pc : int;
  s_status : Cpu.status;
  s_cycles : int;
  s_instret : int64;
  s_regs : int64 array;
  s_icache : int * int * int * int;
  s_dcache : int * int * int * int;
}

let cache_counts c =
  let s = Cache.stats c in
  (s.Cache.accesses, s.Cache.hits, s.Cache.misses, s.Cache.writebacks)

let core_state cpu =
  { s_pc = Cpu.pc cpu;
    s_status = Cpu.status cpu;
    s_cycles = Cpu.cycles cpu;
    s_instret = Cpu.instructions cpu;
    s_regs = Array.init 32 (fun r -> Cpu.reg cpu (Reg.of_int r));
    s_icache = cache_counts (Cpu.icache cpu);
    s_dcache = cache_counts (Cpu.dcache cpu) }

let reference_state r =
  { s_pc = Reference_cpu.pc r;
    s_status = Reference_cpu.status r;
    s_cycles = Int64.to_int (Reference_cpu.cycles r);
    s_instret = Reference_cpu.instructions r;
    s_regs = Array.init 32 (fun i -> Reference_cpu.reg r (Reg.of_int i));
    s_icache = cache_counts (Reference_cpu.icache r);
    s_dcache = cache_counts (Reference_cpu.dcache r) }

let pp_core_state s =
  let counts (a, h, m, w) = Printf.sprintf "%d/%d/%d/%d" a h m w in
  Printf.sprintf "pc=0x%x %s cycles=%d instret=%Ld icache=%s dcache=%s regs=[%s]" s.s_pc
    (status_label s.s_status) s.s_cycles s.s_instret (counts s.s_icache) (counts s.s_dcache)
    (String.concat " " (Array.to_list (Array.map Int64.to_string s.s_regs)))

(* One [Cpu.run_until] call: with a fuel, or to a cycle deadline this
   many cycles past the core's count. *)
type chunk = Fuel of int | Cycles of int

let chunk_label = function Fuel n -> Printf.sprintf "fuel %d" n | Cycles k -> Printf.sprintf "cycles +%d" k

(* Runs [image] on the core and on the reference, from the same registers
   ([init] over the boot state), until the reference stops or has taken
   [max_steps] steps.  The core is driven by [Cpu.step] when [chunks] is
   empty, and otherwise by [Cpu.run_until] with the chunks in [chunks],
   round and round.  The reference steps until the same fuel or cycle
   deadline stops it; it must take as many steps as the core did, and
   the two states must be equal after every call. *)
let against_reference ?branch_predictor ?dcache ?(init = []) ?(max_steps = 1_000_000) ~chunks
    image =
  let pc = Program.Layout.entry_address image and sp = Program.Layout.stack_top in
  let cpu = Cpu.create ?branch_predictor ?dcache ~memory:(Soc.load image) ~pc ~sp () in
  let r = Reference_cpu.create ?branch_predictor ?dcache ~memory:(Soc.load image) ~pc ~sp () in
  List.iter
    (fun (reg, v) ->
      Cpu.set_reg cpu reg v;
      Reference_cpu.set_reg r reg v)
    init;
  let rec go steps call =
    if Reference_cpu.status r <> Cpu.Running || steps >= max_steps then
      if Cpu.output cpu = Reference_cpu.output r then Ok ()
      else Error (Printf.sprintf "outputs %S and %S" (Cpu.output cpu) (Reference_cpu.output r))
    else begin
      let fuel, cycles =
        if chunks = [||] then (1, max_int)
        else
          let fuel = max_steps - steps in
          match chunks.(call mod Array.length chunks) with
          | Fuel n -> (min n fuel, max_int)
          | Cycles k -> (fuel, Cpu.cycles cpu + k)
      in
      let taken =
        if chunks = [||] then begin
          Cpu.step cpu;
          1
        end
        else Cpu.run_until cpu ~fuel ~cycles
      in
      (* The reference stops by the same rule, one step at a time. *)
      let stepped = ref 0 in
      while
        Reference_cpu.status r = Cpu.Running
        && !stepped < fuel
        && Int64.to_int (Reference_cpu.cycles r) < cycles
      do
        Reference_cpu.step r;
        incr stepped
      done;
      if taken <> !stepped then
        Error (Printf.sprintf "after step %d: the core took %d steps, the reference %d" steps taken !stepped)
      else
      let got = core_state cpu and expected = reference_state r in
      if got = expected then go (steps + taken) (call + 1)
      else
        Error
          (Printf.sprintf "after step %d:\n  core      %s\n  reference %s" (steps + taken)
             (pp_core_state got) (pp_core_state expected))
    end
  in
  go 0 0

let all_r_ops : Inst.r_op list =
  [ Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And; Addw; Subw; Sllw; Srlw; Sraw; Mul; Mulh;
    Mulhsu; Mulhu; Div; Divu; Rem; Remu; Mulw; Divw; Divuw; Remw; Remuw ]

let all_i_ops : Inst.i_op list = [ Addi; Slti; Sltiu; Xori; Ori; Andi; Addiw ]
let all_shift_ops : Inst.shift_op list = [ Slli; Srli; Srai; Slliw; Srliw; Sraiw ]
let all_load_ops : Inst.load_op list = [ Lb; Lh; Lw; Ld; Lbu; Lhu; Lwu ]
let all_store_ops : Inst.store_op list = [ Sb; Sh; Sw; Sd ]
let all_branch_ops : Inst.branch_op list = [ Beq; Bne; Blt; Bge; Bltu; Bgeu ]

(* Straight-line programs over every instruction form and op.  Operands
   come from a small pool, x0 included, so that results feed later
   operands and loads feed the instructions after them.  s0 points at
   the data segment and s1 into the text; loads, stores and jalr mostly
   take them as base, so that most accesses and indirect jumps land. *)
let operand_pool = [| Reg.x0; Reg.a 0; Reg.a 1; Reg.a 2; Reg.t_ 0; Reg.t_ 1 |]
let data_ptr = Reg.s 0
let text_ptr = Reg.s 1

type straight_line = {
  init : (Reg.t * int64) list;
  insts : Inst.t list;
  chunks : chunk array;
  data : string;
  branch_predictor : bool;
  small_dcache : bool;
}

(* One set of two 64-byte lines, so that the four lines of the data
   segment evict each other, dirty ones included. *)
let small_dcache = { Cache.size_bytes = 128; ways = 2; line_bytes = 64 }

let straight_line_gen =
  let open QCheck.Gen in
  let reg = oneofa operand_pool in
  let source = frequency [ (8, reg); (1, oneofl [ data_ptr; text_ptr ]) ] in
  let simm bits = int_range (-(1 lsl (bits - 1))) ((1 lsl (bits - 1)) - 1) in
  let even bits = map (fun v -> v land lnot 1) (simm bits) in
  (* Mostly an aligned offset into the 256-byte data segment. *)
  let access w =
    frequency
      [ (6, map (fun k -> (k * w, data_ptr)) (int_range 0 ((256 / w) - 1))); (1, pair (simm 12) reg) ]
  in
  let near = frequency [ (4, map (fun k -> 4 * k) (int_range 1 6)); (1, even 6); (1, even 13) ] in
  let one =
    frequency
      [ (28, map4 (fun op rd a b -> [ Inst.R (op, rd, a, b) ]) (oneofl all_r_ops) reg source source);
        (7, map4 (fun op rd a i -> [ Inst.I (op, rd, a, i) ]) (oneofl all_i_ops) reg source (simm 12));
        ( 6,
          oneofl all_shift_ops >>= fun op ->
          map3
            (fun rd a sh -> [ Inst.Shift (op, rd, a, sh) ])
            reg source
            (int_range 0 (match op with Slliw | Srliw | Sraiw -> 31 | Slli | Srli | Srai -> 63)) );
        (2, map3 (fun op rd i -> [ Inst.U (op, rd, i) ]) (oneofl [ Inst.Lui; Auipc ]) reg (simm 20));
        ( 7,
          oneofl all_load_ops >>= fun op ->
          map2 (fun rd (off, base) -> [ Inst.Load (op, rd, base, off) ]) reg (access (Reference_cpu.alignment op)) );
        ( 4,
          oneofl all_store_ops >>= fun op ->
          map2
            (fun v (off, base) -> [ Inst.Store (op, v, base, off) ])
            source
            (access (Reference_cpu.store_alignment op)) );
        ( 6,
          map4 (fun op a b off -> [ Inst.Branch (op, a, b, off) ]) (oneofl all_branch_ops) source
            source near );
        (1, map2 (fun rd off -> [ Inst.Jal (rd, off) ]) reg near);
        ( 1,
          map3
            (fun rd base imm -> [ Inst.Jalr (rd, base, imm) ])
            reg
            (frequency [ (4, return text_ptr); (1, reg) ])
            (frequency [ (4, map (fun k -> 4 * k) (int_range 0 40)); (1, simm 12) ]) );
        ( 1,
          map2
            (fun off len ->
              [ Inst.I (Addi, Reg.a 7, Reg.x0, 64); Inst.I (Addi, Reg.a 1, data_ptr, off);
                Inst.I (Addi, Reg.a 2, Reg.x0, len); Inst.Ecall ])
            (int_range 0 200) (int_range 0 16) );
        (1, oneofl [ [ Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ]; [ Inst.Ecall ] ]);
        (1, return [ Inst.Fence ]);
        (1, map2 (fun rd csr -> [ Inst.Csrr (rd, csr) ]) reg (oneofl [ 0xC00; 0xC01; 0xC02 ]));
        (1, return [ Inst.Ebreak ]) ]
  in
  let value =
    frequency
      [ (2, oneofl [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x8000_0000L; 0xFFFF_FFFFL ]);
        (2, map Int64.of_int (int_range (-64) 64));
        (3, ui64) ]
  in
  let init =
    flatten_l (List.map (fun r -> map (fun v -> (r, v)) value) (List.tl (Array.to_list operand_pool)))
  in
  let body = map List.concat (list_size (int_range 1 40) one) in
  let chunk =
    frequency
      [ (3, map (fun n -> Fuel n) (int_range 1 24)); (1, return (Cycles 1));
        (2, map (fun k -> Cycles k) (int_range 1 64)) ]
  in
  let chunks = array_size (int_range 1 4) chunk in
  map
    (fun ((init, body), (chunks, data, (branch_predictor, small_dcache))) ->
      { init;
        insts =
          [ Inst.U (Lui, data_ptr, 0x11) (* the data base *); Inst.U (Auipc, text_ptr, 0) ]
          @ body
          @ [ Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ];
        chunks;
        data;
        branch_predictor;
        small_dcache })
    (pair (pair init body) (triple chunks (string_size (return 256)) (pair bool bool)))

let print_straight_line p =
  Printf.sprintf "registers %s, chunks [%s], predictor %b, small D-cache %b:\n%s"
    (String.concat ", "
       (List.map (fun (r, v) -> Printf.sprintf "%s=%Ld" (Reg.abi_name r) v) p.init))
    (String.concat "; " (Array.to_list (Array.map chunk_label p.chunks)))
    p.branch_predictor p.small_dcache
    (String.concat "\n" (List.map Disasm.inst_to_string p.insts))

(* The trace hook sees every instruction, as decoded, and changes
   nothing: a traced run reports what an untraced one does, and the hook
   fires once per instruction with the instruction at its pc.  One
   program runs every op once, in order. *)
let test_traced_run_equals_untraced () =
  List.iter
    (fun (w : Eric_workloads.Workloads.t) ->
      let image = Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source_small in
      List.iter
        (fun guard ->
          let name =
            w.Eric_workloads.Workloads.name ^ " "
            ^ Eric_hw.Guard.mechanism_name guard.Eric_hw.Guard.mechanism
          in
          let run ?trace memory = Soc.run_loaded ~guard ?trace ~load_cycles:0L image memory in
          let untraced = run (Soc.load image) in
          let memory = Soc.load image and fired = ref 0 in
          let trace ~pc inst =
            incr fired;
            let half = Memory.read_u16 memory pc in
            let decoded =
              if half land 0b11 = 0b11 then Decode.decode (Int32.of_int (Memory.read_u32 memory pc))
              else Rvc.expand half
            in
            if decoded <> Some inst then
              Alcotest.failf "%s: traced %s at pc 0x%x" name (Disasm.inst_to_string inst) pc
          in
          let traced = run ~trace memory in
          check Alcotest.bool (name ^ ": same result") true (traced = untraced);
          check Alcotest.int (name ^ ": one call per instruction")
            (Int64.to_int traced.Soc.instructions) !fired)
        [ Eric_hw.Guard.disabled; Eric_hw.Guard.fetch_and_scrub ~interval_cycles:1024 ])
    Eric_workloads.Workloads.all;
  let a n = Reg.a n and s0 = Reg.s 0 and t1 = Reg.t_ 1 in
  let head =
    [ Inst.U (Lui, s0, 0x11); Inst.U (Auipc, t1, 0) ]
    @ List.map (fun op -> Inst.R (op, a 0, a 1, a 2)) all_r_ops
    @ List.map (fun op -> Inst.I (op, a 0, a 1, -5)) all_i_ops
    @ List.map (fun op -> Inst.Shift (op, a 0, a 1, 3)) all_shift_ops
    @ List.map (fun op -> Inst.Load (op, a 3, s0, 8)) all_load_ops
    @ List.map (fun op -> Inst.Store (op, a 3, s0, 16)) all_store_ops
    @ List.map (fun op -> Inst.Branch (op, a 0, a 1, 4)) all_branch_ops
    @ [ Inst.Jal (Reg.ra, 4); Inst.Fence; Inst.Csrr (a 4, 0xC02) ]
  in
  let insts =
    head
    @ [ Inst.Jalr (Reg.x0, t1, 4 * List.length head) (* to the next instruction *);
        Inst.I (Addi, a 7, Reg.x0, 64); Inst.I (Addi, a 1, s0, 0); Inst.I (Addi, a 2, Reg.x0, 0);
        Inst.Ecall; Inst.Ebreak ]
  in
  let image = build_program ~data:(Bytes.make 32 '\001') insts in
  let traced = ref [] in
  let r =
    Soc.run_loaded ~trace:(fun ~pc:_ inst -> traced := inst :: !traced) ~load_cycles:0L image
      (Soc.load image)
  in
  check Alcotest.string "every op ran"
    (Printf.sprintf "fault ebreak at pc 0x%x" (Program.Layout.text_base + (4 * List.length head) + 20))
    (status_label r.Soc.status);
  check Alcotest.(list string) "every op traced as decoded"
    (List.map Disasm.inst_to_string insts)
    (List.rev_map Disasm.inst_to_string !traced);
  check Alcotest.bool "structurally equal" true (List.rev !traced = insts)

(* Each program runs twice: step by step, and in [Cpu.run_until] chunks,
   fuels and cycle deadlines, where fetches from the line of the previous
   one and data accesses that repeat a line are counted by the core.  Half
   of them run with a D-cache small enough to write dirty lines back. *)
let straight_line_matches_reference =
  qtest ~count:400 "straight-line programs = reference core"
    (QCheck.make ~print:print_straight_line straight_line_gen)
    (fun p ->
      let image = build_program ~data:(Bytes.of_string p.data) p.insts in
      List.for_all
        (fun chunks ->
          match
            against_reference ~branch_predictor:p.branch_predictor
              ?dcache:(if p.small_dcache then Some small_dcache else None)
              ~init:p.init ~max_steps:400 ~chunks image
          with
          | Ok () -> true
          | Error msg -> QCheck.Test.fail_report msg)
        [ [||]; p.chunks ])

(* Entering [Cpu.run_until] forgets the line of the last fetch, so a
   flush of the I-cache between two calls makes the next fetch miss, as
   it does the reference's. *)
let test_flush_between_calls_is_seen () =
  let image = loop_program ~iters:40 () in
  let cpu = Soc.boot image (Soc.load image) in
  let r =
    Reference_cpu.create ~memory:(Soc.load image) ~pc:(Program.Layout.entry_address image)
      ~sp:Program.Layout.stack_top ()
  in
  while Cpu.status cpu = Cpu.Running do
    for _ = 1 to Cpu.run_until cpu ~fuel:9 ~cycles:max_int do
      Reference_cpu.step r
    done;
    Cache.flush (Cpu.icache cpu);
    Cache.flush (Reference_cpu.icache r);
    let got = core_state cpu and expected = reference_state r in
    if got <> expected then
      Alcotest.failf "core %s\nreference %s" (pp_core_state got) (pp_core_state expected)
  done

(* The core counts a write to the line of the previous data access as a
   hit only once a write has made that line dirty: after a read, the
   write goes to the cache, which sets the dirty bit that a later
   eviction writes back. *)
let test_write_after_read_dirties () =
  let s0 = Reg.s 0 and a0 = Reg.a 0 in
  let evict = [ Inst.Load (Ld, a0, s0, 64); Inst.Load (Ld, a0, s0, 128) ] in
  let image =
    build_program ~data:(Bytes.make 256 '\001')
      ([ Inst.U (Lui, s0, 0x11); Inst.Load (Ld, a0, s0, 0); Inst.Store (Sd, a0, s0, 8) ]
      @ evict
      @ [ Inst.Store (Sd, a0, s0, 0); Inst.Store (Sd, a0, s0, 16) ]
      @ evict
      @ [ Inst.I (Addi, a0, Reg.x0, 0); Inst.I (Addi, Reg.a 7, Reg.x0, 93); Inst.Ecall ])
  in
  List.iter
    (fun chunks ->
      match against_reference ~dcache:small_dcache ~chunks image with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    [ [||]; [| Fuel 100 |] ];
  let cpu = Cpu.create ~dcache:small_dcache ~memory:(Soc.load image)
      ~pc:(Program.Layout.entry_address image) ~sp:Program.Layout.stack_top () in
  ignore (Cpu.run cpu);
  check Alcotest.int "both dirty lines written back" 2 (Cache.stats (Cpu.dcache cpu)).Cache.writebacks

(* A fetch from a negative pc goes to the I-cache, and faults, whatever
   the line size, also as the first fetch of a call. *)
let test_negative_pc_fetch_reaches_cache () =
  List.iter
    (fun (line_bytes, pc) ->
      let icache = { Cache.size_bytes = 64 * line_bytes; ways = 1; line_bytes } in
      let memory () = Memory.create ~size:0x20000 in
      let cpu = Cpu.create ~icache ~memory:(memory ()) ~pc ~sp:0x1F000 () in
      let r = Reference_cpu.create ~icache ~memory:(memory ()) ~pc ~sp:0x1F000 () in
      check Alcotest.int (Printf.sprintf "line %d, pc %d: one step" line_bytes pc) 1
        (Cpu.run_until cpu ~fuel:5 ~cycles:max_int);
      Reference_cpu.step r;
      check Alcotest.string
        (Printf.sprintf "line %d, pc %d" line_bytes pc)
        (pp_core_state (reference_state r))
        (pp_core_state (core_state cpu)))
    [ (1, -1); (1, -2); (2, -1); (2, -2); (64, -2); (64, -64); (64, min_int); (1, min_int) ]

(* Besides fixed fuels, each seed draws cycle deadlines, 1 among them,
   and a fuel to mix with them. *)
let test_gen_programs_match_reference () =
  for seed = 1 to 100 do
    let source = (Eric_verif.Gen.generate ~seed:(Int64.of_int seed) ()).Eric_verif.Gen.source in
    let image = Eric_cc.Driver.compile_exn source in
    let rng = Random.State.make [| seed |] in
    let cycles bound = Cycles (1 + Random.State.int rng bound) in
    let deadlines () =
      [| Cycles 1; cycles 40; Fuel (1 + Random.State.int rng 64); cycles 3000 |]
    in
    List.iter
      (fun (branch_predictor, chunks) ->
        match against_reference ~branch_predictor ~chunks image with
        | Ok () -> ()
        | Error msg ->
          Alcotest.failf "Gen seed %d, predictor %b, chunks [%s]: %s" seed branch_predictor
            (String.concat "; " (Array.to_list (Array.map chunk_label chunks)))
            msg)
      [ (false, [||]); (true, [||]); (false, [| Fuel 1; Fuel 7; Fuel 64; Fuel 1000 |]);
        (true, [| Fuel 3; Fuel 500 |]); (false, deadlines ()); (true, deadlines ()) ]
  done

let () =
  Alcotest.run "eric_sim"
    [ ( "memory",
        [ Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "bounds without wrapping" `Quick test_memory_bounds_overflow;
          Alcotest.test_case "blit/fill" `Quick test_memory_blit_fill;
          memory_model_equivalence ] );
      ( "cache",
        [ Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "writeback" `Quick test_cache_writeback;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "geometry validation" `Quick test_cache_geometry_validation;
          Alcotest.test_case "table1 geometry" `Quick test_cache_table1_geometry;
          cache_equivalence;
          Alcotest.test_case "negative-address miss replaces the repeat line" `Quick
            test_cache_negative_miss_replaces_repeat_line ] );
      ( "cpu-semantics",
        [ Alcotest.test_case "div corner cases" `Quick test_div_corner_cases;
          Alcotest.test_case "mulh identities" `Quick test_mulh_identities;
          mul_small_products;
          Alcotest.test_case "w ops" `Quick test_w_ops;
          Alcotest.test_case "shift masking" `Quick test_shifts_mask_shamt;
          Alcotest.test_case "slt family" `Quick test_slt_family;
          Alcotest.test_case "x0 hardwired" `Quick test_x0_hardwired;
          Alcotest.test_case "load/store widths" `Quick test_load_store_widths ] );
      ( "faults",
        [ Alcotest.test_case "misaligned store" `Quick test_misaligned_store_faults;
          Alcotest.test_case "invalid instruction" `Quick test_invalid_instruction_faults;
          Alcotest.test_case "ebreak" `Quick test_ebreak_faults;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
          Alcotest.test_case "wrapping addresses" `Quick test_wrapping_addresses_fault ] );
      ( "decode-cache",
        [ Alcotest.test_case "stale text after a store" `Quick test_decode_once_stale_text;
          Alcotest.test_case "a store ahead of the pc is seen" `Quick
            test_decode_store_ahead_seen;
          Alcotest.test_case "pc in data" `Quick test_decode_pc_in_data;
          Alcotest.test_case "bad pcs fault" `Quick test_decode_bad_pc_faults;
          Alcotest.test_case "ALU and branch steps allocate nothing" `Quick
            test_steps_allocate_nothing;
          Alcotest.test_case "a scrub pass allocates nothing" `Quick
            test_scrub_pass_allocates_nothing;
          Alcotest.test_case "Soc.boot allocates under 1,000 words" `Quick
            test_boot_allocates_little ] );
      ( "golden",
        [ Alcotest.test_case "small workloads" `Quick test_golden_cycles;
          Alcotest.test_case "large workloads" `Quick test_golden_large;
          Alcotest.test_case "small workloads, branch predictor" `Quick test_golden_predictor;
          Alcotest.test_case "a traced run equals an untraced one" `Quick
            test_traced_run_equals_untraced ] );
      ("syscalls", [ Alcotest.test_case "write" `Quick test_write_syscall ]);
      ( "timing",
        [ Alcotest.test_case "load-use stall" `Quick test_timing_load_use_stall;
          Alcotest.test_case "div slower" `Quick test_timing_div_slower_than_add;
          Alcotest.test_case "taken branch penalty" `Quick test_timing_taken_branch_penalty;
          Alcotest.test_case "icache stats" `Quick test_icache_stats_exposed;
          Alcotest.test_case "plain load cycles" `Quick test_plain_load_cycles;
          Alcotest.test_case "branch predictor" `Quick test_branch_predictor;
          Alcotest.test_case "csr counters" `Quick test_csr_counters ] );
      ( "integrity",
        [ Alcotest.test_case "clean run equivalent" `Quick test_guard_clean_run_equivalent;
          Alcotest.test_case "fetch check beats decode" `Quick
            test_guard_fetch_detects_before_decode;
          Alcotest.test_case "scrub finds dead-code flip" `Quick
            test_guard_scrub_detects_dead_code;
          Alcotest.test_case "self-modifying text faults" `Quick
            test_guard_self_modifying_text_faults;
          Alcotest.test_case "dirty data re-enrolls" `Quick
            test_guard_reenrolls_dirty_data;
          Alcotest.test_case "scrub agrees with a full re-hash" `Quick
            test_guard_scrub_matches_full_rehash ] );
      ( "reference",
        [ straight_line_matches_reference;
          Alcotest.test_case "Gen programs = reference core" `Quick
            test_gen_programs_match_reference;
          Alcotest.test_case "a flush between calls is seen" `Quick
            test_flush_between_calls_is_seen;
          Alcotest.test_case "a negative pc's fetch reaches the cache" `Quick
            test_negative_pc_fetch_reaches_cache;
          Alcotest.test_case "a write after a read dirties the line" `Quick
            test_write_after_read_dirties ] ) ]
