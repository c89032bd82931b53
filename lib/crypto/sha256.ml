let digest_size = 32
let block_size = 64

(* Round constants: first 32 bits of the fractional parts of the cube roots
   of the first 64 primes (FIPS 180-2, section 4.2.2). *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* eight 32-bit words, kept masked *)
  buf : Bytes.t; (* one block of pending input *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes absorbed *)
  mutable finished : bool;
  w : int array; (* message schedule scratch *)
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let init () =
  {
    h = Array.copy iv;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    finished = false;
    w = Array.make 64 0;
  }

let mask32 = 0xFFFFFFFF

(* The compression function ([schedule], then [rounds]) is the
   process-wide hot spot: every keystream byte, signature and content
   digest funnels through it.  Each rotation is one shift of the doubled
   word [d = x lor (x lsl 32)]: bits [n] to [n + 31] of [d] are [x]
   rotated right by [n].  On 63-bit ints [x lsl 32] drops bit 31 of [x],
   which would land on bit 63; every SHA-256 rotation amount is between 1
   and 31, so bit [n + 31] never reaches past bit 62 and the dropped bit
   is never read.  The high bits the shifts leave behind only feed xors
   and additions, whose low 32 bits do not depend on them, so the sigmas,
   [ch] and [maj] stay unmasked: [t1] and the words stored back are
   masked once each. *)

(* Message words 0-15 of the block at [pos], then the schedule's words
   16-63. *)
let schedule w block pos =
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be block (pos + (4 * t))) land mask32)
  done;
  for t = 16 to 63 do
    let x15 = Array.unsafe_get w (t - 15) and x2 = Array.unsafe_get w (t - 2) in
    let d15 = x15 lor (x15 lsl 32) and d2 = x2 lor (x2 lsl 32) in
    let s0 = (d15 lsr 7) lxor (d15 lsr 18) lxor (x15 lsr 3) in
    let s1 = (d2 lsr 17) lxor (d2 lsr 19) lxor (x2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask32)
  done

(* Rounds [from] to [upto - 1] on the working variables (a to h) read
   from [src].  Round [t] reads message word [t] and no later one.  With
   [add] the result is added into [dst], which holds the chaining value
   (the end of a block), else it overwrites [dst] (a state partway
   through one).  [src] and [dst] may be one array. *)
let rounds ~src ~dst ~add w ~from ~upto =
  let a = ref src.(0) and b = ref src.(1) and c = ref src.(2) and d = ref src.(3) in
  let e = ref src.(4) and f = ref src.(5) and g = ref src.(6) and hh = ref src.(7) in
  for t = from to upto - 1 do
    let ee = !e and aa = !a in
    let de = ee lor (ee lsl 32) and da = aa lor (aa lsl 32) in
    let s1 = (de lsr 6) lxor (de lsr 11) lxor (de lsr 25) in
    let ch = !g lxor (ee land (!f lxor !g)) in
    let t1 = (!hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t) land mask32 in
    let s0 = (da lsr 2) lxor (da lsr 13) lxor (da lsr 22) in
    let maj = (aa land !b) lor (!c land (aa lor !b)) in
    hh := !g;
    g := !f;
    f := ee;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := aa;
    a := (t1 + s0 + maj) land mask32
  done;
  if add then begin
    dst.(0) <- (dst.(0) + !a) land mask32;
    dst.(1) <- (dst.(1) + !b) land mask32;
    dst.(2) <- (dst.(2) + !c) land mask32;
    dst.(3) <- (dst.(3) + !d) land mask32;
    dst.(4) <- (dst.(4) + !e) land mask32;
    dst.(5) <- (dst.(5) + !f) land mask32;
    dst.(6) <- (dst.(6) + !g) land mask32;
    dst.(7) <- (dst.(7) + !hh) land mask32
  end
  else begin
    dst.(0) <- !a;
    dst.(1) <- !b;
    dst.(2) <- !c;
    dst.(3) <- !d;
    dst.(4) <- !e;
    dst.(5) <- !f;
    dst.(6) <- !g;
    dst.(7) <- !hh
  end

(* Absorb the block at [pos] into the chaining value [h]; [w] is
   scratch. *)
let compress_into h w block pos =
  schedule w block pos;
  rounds ~src:h ~dst:h ~add:true w ~from:0 ~upto:64

let compress ctx block pos = compress_into ctx.h ctx.w block pos

let write_digest h dst =
  for i = 0 to 7 do
    Bytes.set_int32_be dst (4 * i) (Int32.of_int h.(i))
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
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !len >= block_size do
    compress ctx data !pos;
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
  let last = Sha256_pad.blocks ~len:ctx.buf_len ~total:ctx.total in
  Bytes.blit ctx.buf 0 last 0 ctx.buf_len;
  for i = 0 to (Bytes.length last / block_size) - 1 do
    compress ctx last (i * block_size)
  done;
  ctx.finished <- true;
  let out = Bytes.create digest_size in
  write_digest ctx.h out;
  out

type midstate = {
  blocks : int; (* length of the padded message, in blocks *)
  block : int; (* the block holding message word [word] *)
  round : int; (* [word mod 16]: rounds of [block] already run *)
  chain : int array; (* chaining value before [block] *)
  mid : int array; (* working variables after rounds 0 to [round - 1] *)
  h : int array; (* scratch *)
  w : int array;
}

let whole_blocks fn m =
  if Bytes.length m = 0 || Bytes.length m mod block_size <> 0 then
    invalid_arg (fn ^ ": not a whole number of blocks");
  Bytes.length m / block_size

let midstate m ~word =
  let blocks = whole_blocks "Sha256.midstate" m in
  if word < 0 || word >= 16 * blocks then invalid_arg "Sha256.midstate: word out of range";
  let block = word / 16 and round = word mod 16 in
  let chain = Array.copy iv and mid = Array.make 8 0 and w = Array.make 64 0 in
  for b = 0 to block - 1 do
    compress_into chain w m (b * block_size)
  done;
  (* The schedule also reads words from [word] on, but rounds below
     [round] use only words 0 to [round - 1]. *)
  schedule w m (block * block_size);
  rounds ~src:chain ~dst:mid ~add:false w ~from:0 ~upto:round;
  { blocks; block; round; chain; mid; h = Array.make 8 0; w }

let resume s m ~dst =
  if whole_blocks "Sha256.resume" m <> s.blocks then
    invalid_arg "Sha256.resume: message length differs from the midstate's";
  if Bytes.length dst < digest_size then invalid_arg "Sha256.resume: short destination";
  schedule s.w m (s.block * block_size);
  for i = 0 to 7 do
    s.h.(i) <- s.chain.(i)
  done;
  rounds ~src:s.mid ~dst:s.h ~add:true s.w ~from:s.round ~upto:64;
  for b = s.block + 1 to s.blocks - 1 do
    compress_into s.h s.w m (b * block_size)
  done;
  write_digest s.h dst

let digest data =
  let ctx = init () in
  feed ctx data;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
let hex data = Eric_util.Bytesx.to_hex (digest data)
