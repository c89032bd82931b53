type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* SplitMix64: used only to expand the user seed into the xoshiro256** state,
   as recommended by the xoshiro authors. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  mix64 !state

let create ~seed =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  { s0; s1; s2; s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = create ~seed:(bits64 t)
let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits avoids modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFFL in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (bits64 t) mask) in
    let limit = max_int - (max_int mod bound) in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t =
  (* 53 high-quality bits, as in the reference xoshiro double conversion. *)
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t in
    if u <= 1e-300 then nonzero () else u
  in
  let u1 = nonzero () in
  let u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let bytes t ~len =
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let v = ref (bits64 t) in
    let n = min 8 (len - !i) in
    for j = 0 to n - 1 do
      Bytes.set b (!i + j) (Char.chr (Int64.to_int (Int64.logand !v 0xFFL)));
      v := Int64.shift_right_logical !v 8
    done;
    i := !i + n
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose_subset t ~n ~k =
  if n < 0 then invalid_arg "Prng.choose_subset: n must be non-negative";
  let k = max 0 (min k n) in
  let idx = Array.init n (fun i -> i) in
  shuffle t idx;
  let marks = Array.make n false in
  for i = 0 to k - 1 do
    marks.(idx.(i)) <- true
  done;
  marks
