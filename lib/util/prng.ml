(* The xoshiro256** state s0..s3 lives in one 32-byte buffer, read and
   written as unboxed int64s, so an update allocates nothing (a record of
   mutable int64 fields boxes every store). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

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
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 st)
  done;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let split t = create ~seed:(bits64 t)
let copy = Bytes.copy

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

(* 53 high-quality bits, as in the reference xoshiro double conversion.
   They fit a native int, whose conversion is exact and runs inline
   ([Int64.to_float] is a C call). *)
let[@inline] float t =
  Float.of_int (Int64.to_int (Int64.shift_right_logical (bits64 t) 11))
  *. (1.0 /. 9007199254740992.0)

let[@inline] nonzero_float t =
  let u = ref (float t) in
  while !u <= 1e-300 do
    u := float t
  done;
  !u

let[@inline] box_muller ~mu ~sigma u1 u2 =
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let gaussian t ~mu ~sigma =
  let u1 = nonzero_float t in
  let u2 = float t in
  box_muller ~mu ~sigma u1 u2

let uniform_pairs t (a : float array) =
  let n = Array.length a in
  if n land 1 <> 0 then invalid_arg "Prng.uniform_pairs: odd length";
  for i = 0 to (n / 2) - 1 do
    a.(2 * i) <- nonzero_float t;
    a.((2 * i) + 1) <- float t
  done

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
