(* Per-function PRNG streams derived from the single build seed.

   Reproducibility contract: the stream a pass sees for a function is a
   pure function of (build seed, function name, pass salt) — never of
   compilation order, previous passes' draw counts, or anything else
   that could differ between two builds of the same source.  Two builds
   with the same seed are therefore byte-identical, and adding a
   function to a program does not reshuffle the streams of the others. *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let golden = 0x9e3779b97f4a7c15L

let stream ~seed ~name ~salt =
  let z =
    Int64.add
      (Int64.logxor seed (fnv1a64 name))
      (Int64.mul golden (Int64.of_int (salt + 1)))
  in
  (* the finalizer spreads the structured (seed, name, salt) combination
     over the whole 64-bit space before it becomes a xoshiro seed *)
  Eric_util.Prng.create ~seed:(Eric_util.Prng.mix64 z)
