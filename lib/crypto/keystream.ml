(* Block [i] is SHA-256(key || le64 i): only the 8 counter bytes change
   from one block to the next, so the message is padded once, here, and
   [create] compresses every block that holds key bytes only once (there
   are none for keys under 64 bytes).  Each keystream block compresses
   the rest from there: one block for the 32-byte keys [Kmu.derive]
   produces. *)
type t = {
  msg : Bytes.t; (* key || le64 counter || padding *)
  counter : int; (* offset of the counter in [msg] *)
  state : Sha256.midstate; (* key material, like [msg] *)
  mutable pos : int; (* absolute byte offset of the [take] reader *)
  mutable block_index : int; (* index of the block cached in [block], or -1 *)
  block : Bytes.t;
}

(* [Sha256.digest_size], as a literal: dividing by it is then a shift. *)
let block_size = 32

let create ~key =
  let n = Bytes.length key in
  let msg = Sha256_pad.blocks ~len:(n + 8) ~total:(n + 8) in
  Bytes.blit key 0 msg 0 n;
  {
    msg;
    counter = n;
    state = Sha256.midstate msg ~word:(n / 4);
    pos = 0;
    block_index = -1;
    block = Bytes.create block_size;
  }

let at ~key ~offset =
  if offset < 0 then invalid_arg "Keystream.at: negative offset";
  let t = create ~key in
  t.pos <- offset;
  t

let offset t = t.pos

let fill_block t index =
  Bytes.set_int64_le t.msg t.counter (Int64.of_int index);
  Sha256.resume t.state t.msg ~dst:t.block;
  t.block_index <- index

(* [buf.[p, p + n)] lxor= [t.block.[o, o + n)], the stream bytes ANDed
   with [mask.[p, p + n)] if there is a mask: 8 bytes per step, then the
   tail a byte at a time. *)
let xor_chunk t ~o buf ~p ~n =
  let k = ref 0 in
  while !k + 8 <= n do
    Bytes.set_int64_le buf (p + !k)
      (Int64.logxor (Bytes.get_int64_le buf (p + !k)) (Bytes.get_int64_le t.block (o + !k)));
    k := !k + 8
  done;
  for i = !k to n - 1 do
    Bytes.set_uint8 buf (p + i) (Bytes.get_uint8 buf (p + i) lxor Bytes.get_uint8 t.block (o + i))
  done

let xor_chunk_masked t ~o mask buf ~p ~n =
  let k = ref 0 in
  while !k + 8 <= n do
    Bytes.set_int64_le buf (p + !k)
      (Int64.logxor
         (Bytes.get_int64_le buf (p + !k))
         (Int64.logand (Bytes.get_int64_le t.block (o + !k)) (Bytes.get_int64_le mask (p + !k))));
    k := !k + 8
  done;
  for i = !k to n - 1 do
    Bytes.set_uint8 buf (p + i)
      (Bytes.get_uint8 buf (p + i)
      lxor (Bytes.get_uint8 t.block (o + i) land Bytes.get_uint8 mask (p + i)))
  done

let xor_in_place ?mask t ~offset buf =
  if offset < 0 then invalid_arg "Keystream.xor_in_place: negative offset";
  let len = Bytes.length buf in
  (match mask with
  | Some m when Bytes.length m <> len -> invalid_arg "Keystream.xor_in_place: mask length"
  | _ -> ());
  let p = ref 0 in
  while !p < len do
    let abs = offset + !p in
    let index = abs / block_size and o = abs mod block_size in
    if index <> t.block_index then fill_block t index;
    let n = if len - !p < block_size - o then len - !p else block_size - o in
    (match mask with
    | None -> xor_chunk t ~o buf ~p:!p ~n
    | Some mask -> xor_chunk_masked t ~o mask buf ~p:!p ~n);
    p := !p + n
  done

let byte t offset =
  let index = offset / block_size in
  if index <> t.block_index then fill_block t index;
  Bytes.get_uint8 t.block (offset mod block_size)

let half t offset =
  if offset < 0 then invalid_arg "Keystream.half: negative offset";
  byte t offset lor (byte t (offset + 1) lsl 8)

let take t n =
  if n < 0 then invalid_arg "Keystream.take: negative length";
  let out = Bytes.make n '\000' in
  xor_in_place t ~offset:t.pos out;
  t.pos <- t.pos + n;
  out

let xor ~key ?(offset = 0) data =
  let out = Bytes.copy data in
  xor_in_place (create ~key) ~offset out;
  out
