(* Memory is an array of 4 KiB pages.  Every page starts as the one
   shared [zero_page], which is never written: untouched memory reads as
   zeros, and a page gets bytes of its own on its first write.  A run
   therefore costs only the pages it touches. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

type t = { size : int; pages : Bytes.t array }

exception Trap of string

let create ~size =
  if size <= 0 then invalid_arg "Memory.create: size must be positive";
  { size; pages = Array.make ((size + page_mask) lsr page_bits) zero_page }

let size t = t.size

(* With [len >= 0] established first, [size - len] cannot wrap the way
   [addr + len] can. *)
let check t addr len =
  if addr < 0 || len < 0 || addr > t.size - len then
    raise (Trap (Printf.sprintf "memory access out of bounds: 0x%x (+%d)" addr len))

(* Only ever called on checked addresses. *)
let page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

let writable_page t addr =
  let p = page t addr in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set t.pages (addr lsr page_bits) p;
    p
  end

(* The [n] bytes at [addr] lie in one page. *)
let in_page addr n = addr land page_mask <= page_size - n

(* Byte-wise little-endian access of up to 4 bytes, for an access that
   straddles two pages. *)
let get_le t addr n =
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor Bytes.get_uint8 (page t (addr + i)) ((addr + i) land page_mask)
  done;
  !v

let set_le t addr n v =
  for i = 0 to n - 1 do
    Bytes.set_uint8 (writable_page t (addr + i)) ((addr + i) land page_mask) ((v lsr (8 * i)) land 0xFF)
  done

let read_u8 t addr =
  check t addr 1;
  Bytes.get_uint8 (page t addr) (addr land page_mask)

let read_u16 t addr =
  check t addr 2;
  if in_page addr 2 then Bytes.get_uint16_le (page t addr) (addr land page_mask)
  else get_le t addr 2

let read_u32 t addr =
  check t addr 4;
  if in_page addr 4 then
    Int32.to_int (Bytes.get_int32_le (page t addr) (addr land page_mask)) land 0xFFFF_FFFF
  else get_le t addr 4

(* A doubleword goes straight between its page and [b], so its [int64]
   is never boxed; one that straddles two pages goes as two halves. *)
let read_u64 t addr b off =
  check t addr 8;
  Bytes.set_int64_ne b off
    (if in_page addr 8 then Bytes.get_int64_le (page t addr) (addr land page_mask)
     else
       Int64.logor
         (Int64.of_int (get_le t addr 4))
         (Int64.shift_left (Int64.of_int (get_le t (addr + 4) 4)) 32))

let write_u8 t addr v =
  check t addr 1;
  Bytes.set_uint8 (writable_page t addr) (addr land page_mask) (v land 0xFF)

let write_u16 t addr v =
  check t addr 2;
  if in_page addr 2 then
    Bytes.set_uint16_le (writable_page t addr) (addr land page_mask) (v land 0xFFFF)
  else set_le t addr 2 v

let write_u32 t addr v =
  check t addr 4;
  if in_page addr 4 then Bytes.set_int32_le (writable_page t addr) (addr land page_mask) (Int32.of_int v)
  else set_le t addr 4 v

let write_u64 t addr b off =
  check t addr 8;
  let v = Bytes.get_int64_ne b off in
  if in_page addr 8 then Bytes.set_int64_le (writable_page t addr) (addr land page_mask) v
  else begin
    set_le t addr 4 (Int64.to_int v);
    set_le t (addr + 4) 4 (Int64.to_int (Int64.shift_right_logical v 32))
  end

(* [f a off n] for each page-bounded span of the checked range
   [addr, addr + len): the span starts at address [a], [off] bytes into
   the range, and is [n] bytes long. *)
let iter_spans addr len f =
  let stop = addr + len in
  let a = ref addr in
  while !a < stop do
    let n = min (stop - !a) (page_size - (!a land page_mask)) in
    f !a (!a - addr) n;
    a := !a + n
  done

let blit_bytes t ~addr b =
  check t addr (Bytes.length b);
  iter_spans addr (Bytes.length b) (fun a off n ->
      Bytes.blit b off (writable_page t a) (a land page_mask) n)

let read_bytes t ~addr ~len =
  check t addr len;
  let out = Bytes.create len in
  iter_spans addr len (fun a off n -> Bytes.blit (page t a) (a land page_mask) out off n);
  out

let fill t ~addr ~len c =
  check t addr len;
  iter_spans addr len (fun a _ n ->
      if c <> '\000' || page t a != zero_page then
        Bytes.fill (writable_page t a) (a land page_mask) n c)

(* No closure here: a captured [ref] would box the running hash on
   every byte. *)
let fnv1a t ~addr ~len =
  check t addr len;
  let h = ref 0xcbf29ce484222325L in
  let stop = addr + len in
  let a = ref addr in
  while !a < stop do
    let p = page t !a and off = !a land page_mask in
    let n = min (stop - !a) (page_size - off) in
    for i = off to off + n - 1 do
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get p i)))) 0x100000001b3L
    done;
    a := !a + n
  done;
  !h
