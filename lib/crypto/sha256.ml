let digest_size = 32
let block_size = 64

(* The initial hash value (FIPS 180-2, section 5.3.2).  A chaining value
   is held as the digest it becomes, eight big-endian 32-bit words in 32
   bytes, which [compress], the process-wide hot spot, reads and adds
   into. *)
let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

(* sha256_stubs.c: the compression on the x86 SHA extensions, which reads
   the block and the chaining value unchecked, and the CPUID probe. *)
external compress_sha_extensions : bytes -> bytes -> int -> unit = "eric_sha256_compress"
[@@noalloc]

external probe_sha_extensions : unit -> bool = "eric_sha256_sha_extensions" [@@noalloc]

let sha_extensions = probe_sha_extensions ()
let portable_compress = Sha256_compress.compress

let compress h b pos =
  if pos < 0 || pos > Bytes.length b - block_size || Bytes.length h < digest_size then
    invalid_arg "Sha256.compress: block or chaining value out of range";
  if sha_extensions then compress_sha_extensions h b pos else portable_compress h b pos

type ctx = {
  h : Bytes.t; (* chaining value *)
  buf : Bytes.t; (* one block of pending input *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes absorbed *)
  mutable finished : bool;
}

let init () =
  { h = Bytes.of_string iv; buf = Bytes.create block_size; buf_len = 0; total = 0; finished = false }

(* Pad [src.[pos, pos + len)], the end of a [total]-byte message, and
   absorb it into [h]. *)
let absorb_last h src ~pos ~len ~total =
  let last = Sha256_pad.blocks ~len ~total in
  Bytes.blit src pos last 0 len;
  for i = 0 to (Bytes.length last / block_size) - 1 do
    compress h last (i * block_size)
  done

let feed_sub ctx data ~pos ~len =
  if ctx.finished then invalid_arg "Sha256.feed: context already finalized";
  if pos < 0 || len < 0 || pos > Bytes.length data - len then
    invalid_arg "Sha256.feed_sub: bad range";
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !len (block_size - ctx.buf_len) in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    len := !len - take;
    if ctx.buf_len = block_size then begin
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !len >= block_size do
    compress ctx.h data !pos;
    pos := !pos + block_size;
    len := !len - block_size
  done;
  if !len > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let feed ctx data = feed_sub ctx data ~pos:0 ~len:(Bytes.length data)

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  absorb_last ctx.h ctx.buf ~pos:0 ~len:ctx.buf_len ~total:ctx.total;
  ctx.finished <- true;
  Bytes.copy ctx.h

type midstate = {
  blocks : int; (* length of the padded message, in blocks *)
  block : int; (* the block holding message word [word] *)
  chain : Bytes.t; (* chaining value before [block] *)
}

let whole_blocks fn m =
  if Bytes.length m = 0 || Bytes.length m mod block_size <> 0 then
    invalid_arg (fn ^ ": not a whole number of blocks");
  Bytes.length m / block_size

let midstate m ~word =
  let blocks = whole_blocks "Sha256.midstate" m in
  if word < 0 || word >= 16 * blocks then invalid_arg "Sha256.midstate: word out of range";
  let block = word / 16 and chain = Bytes.of_string iv in
  for b = 0 to block - 1 do
    compress chain m (b * block_size)
  done;
  { blocks; block; chain }

let resume s m ~dst =
  if whole_blocks "Sha256.resume" m <> s.blocks then
    invalid_arg "Sha256.resume: message length differs from the midstate's";
  if Bytes.length dst < digest_size then invalid_arg "Sha256.resume: short destination";
  Bytes.blit s.chain 0 dst 0 digest_size;
  for b = s.block to s.blocks - 1 do
    compress dst m (b * block_size)
  done

let digest data =
  let h = Bytes.of_string iv and whole = Bytes.length data / block_size in
  for b = 0 to whole - 1 do
    compress h data (b * block_size)
  done;
  let pos = whole * block_size in
  absorb_last h data ~pos ~len:(Bytes.length data - pos) ~total:(Bytes.length data);
  h

let digest_string s = digest (Bytes.of_string s)
let hex data = Eric_util.Bytesx.to_hex (digest data)
