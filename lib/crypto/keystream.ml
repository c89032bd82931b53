(* Block [i] is SHA-256(key || le64 i): only the 8 counter bytes change
   from one block to the next, so the message is padded once, here, and
   each block is one [Sha256.digest_padded] of it (one compression for
   keys of up to 47 bytes, two up to 111). *)
type t = {
  msg : Bytes.t; (* key || le64 counter || padding *)
  counter : int; (* offset of the counter in [msg] *)
  ctx : Sha256.ctx;
  mutable pos : int; (* absolute byte offset in the stream *)
  mutable block_index : int; (* index of the block cached in [block], or -1 *)
  block : Bytes.t;
}

let block_size = Sha256.digest_size

let create ~key =
  let n = Bytes.length key in
  let msg = Sha256_pad.blocks ~len:(n + 8) ~total:(n + 8) in
  Bytes.blit key 0 msg 0 n;
  {
    msg;
    counter = n;
    ctx = Sha256.init ();
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
  Sha256.digest_padded t.ctx t.msg ~dst:t.block;
  t.block_index <- index

let take t n =
  if n < 0 then invalid_arg "Keystream.take: negative length";
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    let abs = t.pos + !filled in
    let index = abs / block_size and off = abs mod block_size in
    if index <> t.block_index then fill_block t index;
    let chunk = min (n - !filled) (block_size - off) in
    Bytes.blit t.block off out !filled chunk;
    filled := !filled + chunk
  done;
  t.pos <- t.pos + n;
  out

let xor ~key ?(offset = 0) data =
  let t = at ~key ~offset in
  let ks = take t (Bytes.length data) in
  let out = Bytes.create (Bytes.length data) in
  Eric_util.Bytesx.xor_into ~src:data ~key:ks ~dst:out;
  out
