(* Unit and property tests for eric_util: PRNG, bit vectors, byte codecs. *)

open Eric_util

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 2)

let test_prng_copy () =
  let a = Prng.create ~seed:7L in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copies continue identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_independent () =
  let parent = Prng.create ~seed:9L in
  let child = Prng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 parent = Prng.bits64 child then incr matches
  done;
  check Alcotest.bool "split stream is distinct" true (!matches < 2)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Prng.int rng ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_int_rejects_bad_bound () =
  let rng = Prng.create ~seed:3L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng ~bound:0))

let test_prng_float_range () =
  let rng = Prng.create ~seed:5L in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_prng_gaussian_moments () =
  let rng = Prng.create ~seed:11L in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian rng ~mu:10.0 ~sigma:3.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check (Alcotest.float 0.2) "mean" 10.0 mean;
  check (Alcotest.float 0.5) "stddev" 3.0 (sqrt var)

let test_prng_bytes_len () =
  let rng = Prng.create ~seed:13L in
  List.iter
    (fun len -> check Alcotest.int "length" len (Bytes.length (Prng.bytes rng ~len)))
    [ 0; 1; 7; 8; 9; 63; 200 ]

let test_choose_subset () =
  let rng = Prng.create ~seed:17L in
  let marks = Prng.choose_subset rng ~n:50 ~k:20 in
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 marks in
  check Alcotest.int "exactly k marked" 20 count;
  let none = Prng.choose_subset rng ~n:10 ~k:0 in
  check Alcotest.int "k=0" 0 (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 none);
  let clamped = Prng.choose_subset rng ~n:5 ~k:99 in
  check Alcotest.int "k clamped to n" 5
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 clamped)

let test_shuffle_permutation () =
  let rng = Prng.create ~seed:19L in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 100 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitvec_basic () =
  let v = Bitvec.create 10 in
  check Alcotest.int "length" 10 (Bitvec.length v);
  check Alcotest.bool "initially clear" false (Bitvec.get v 3);
  Bitvec.set v 3 true;
  check Alcotest.bool "set" true (Bitvec.get v 3);
  Bitvec.set v 3 false;
  check Alcotest.bool "cleared" false (Bitvec.get v 3);
  check Alcotest.int "popcount empty" 0 (Bitvec.popcount v)

let test_bitvec_bounds () =
  let v = Bitvec.create 4 in
  Alcotest.check_raises "get oob" (Invalid_argument "Bitvec.get: index out of bounds") (fun () ->
      ignore (Bitvec.get v 4));
  Alcotest.check_raises "set oob" (Invalid_argument "Bitvec.set: index out of bounds") (fun () ->
      Bitvec.set v (-1) true)

let test_bitvec_append () =
  let v = ref (Bitvec.create 0) in
  for i = 0 to 16 do
    v := Bitvec.append !v (i mod 3 = 0)
  done;
  check Alcotest.int "length" 17 (Bitvec.length !v);
  for i = 0 to 16 do
    check Alcotest.bool "bit" (i mod 3 = 0) (Bitvec.get !v i)
  done

let bitvec_roundtrip =
  qtest "bitvec bytes roundtrip" QCheck.(list bool) (fun bits ->
      let arr = Array.of_list bits in
      let v = Bitvec.of_bool_array arr in
      let v' = Bitvec.of_bytes ~len:(Array.length arr) (Bitvec.to_bytes v) in
      Bitvec.equal v v' && Bitvec.to_bool_array v' = arr)

let bitvec_popcount =
  qtest "bitvec popcount" QCheck.(list bool) (fun bits ->
      let v = Bitvec.of_bool_array (Array.of_list bits) in
      Bitvec.popcount v = List.length (List.filter Fun.id bits))

(* The set operations against a list model, on lengths around the 64-bit
   word boundaries the word loops step over. *)
let bitvec_sets =
  qtest "bitvec sets = list model"
    QCheck.(triple (int_bound 200) (list small_nat) (list small_nat))
    (fun (n, xs, ys) ->
      let xs = List.filter (fun i -> i < n) xs and ys = List.filter (fun i -> i < n) ys in
      let of_list l =
        let v = Bitvec.create n in
        List.iter (Bitvec.add v) l;
        v
      in
      let members v =
        let acc = ref [] in
        Bitvec.iter (fun i -> acc := i :: !acc) v;
        List.rev !acc
      in
      let model p = List.filter p (List.init n Fun.id) in
      let op f =
        let v = of_list xs in
        f v (of_list ys);
        members v
      in
      members (of_list xs) = List.sort_uniq compare xs
      && op Bitvec.union_into = model (fun i -> List.mem i xs || List.mem i ys)
      && op Bitvec.inter_into = model (fun i -> List.mem i xs && List.mem i ys)
      && op Bitvec.diff_into = model (fun i -> List.mem i xs && not (List.mem i ys))
      && List.for_all (fun i -> Bitvec.mem (of_list xs) i = List.mem i xs) (List.init (n + 2) (fun i -> i - 1))
      && Bytes.length (Bitvec.to_bytes (of_list xs)) = (n + 7) / 8
      && Bitvec.equal (Bitvec.copy (of_list xs)) (of_list xs))

let test_bitvec_set_errors () =
  let v = Bitvec.create 70 in
  Alcotest.check_raises "add oob" (Invalid_argument "Bitvec.add: index out of bounds") (fun () ->
      Bitvec.add v 70);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Bitvec.union_into: length mismatch")
    (fun () -> Bitvec.union_into v (Bitvec.create 64));
  let w = Bitvec.copy v in
  Bitvec.add w 69;
  check Alcotest.bool "copy is independent" false (Bitvec.mem v 69)

(* ------------------------------------------------------------------ *)
(* Bytesx                                                              *)
(* ------------------------------------------------------------------ *)

let test_hex_known () =
  check Alcotest.string "hex" "00ff10ab" (Bytesx.to_hex (Bytes.of_string "\x00\xff\x10\xab"));
  check Alcotest.string "unhex" "\x00\xff\x10\xab"
    (Bytes.to_string (Bytesx.of_hex "00ff10AB"))

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Bytesx.of_hex: odd length") (fun () ->
      ignore (Bytesx.of_hex "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Bytesx.of_hex: non-hex character")
    (fun () -> ignore (Bytesx.of_hex "zz"))

let hex_roundtrip =
  qtest "hex roundtrip" QCheck.string (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Bytesx.of_hex (Bytesx.to_hex b)))

let test_le_codecs () =
  let b = Bytes.create 8 in
  Bytesx.set_u16 b 0 0xBEEF;
  check Alcotest.int "u16" 0xBEEF (Bytesx.get_u16 b 0);
  check Alcotest.int "u16 byte order" 0xEF (Char.code (Bytes.get b 0));
  Bytesx.set_u32 b 0 0xDEADBEEFl;
  check Alcotest.int32 "u32" 0xDEADBEEFl (Bytesx.get_u32 b 0);
  Bytesx.set_u64 b 0 0x0123456789ABCDEFL;
  check Alcotest.int64 "u64" 0x0123456789ABCDEFL (Bytesx.get_u64 b 0);
  check Alcotest.int "u64 low byte first" 0xEF (Char.code (Bytes.get b 0))

let test_append_concat () =
  check Alcotest.string "append" "abcd"
    (Bytes.to_string (Bytesx.append (Bytes.of_string "ab") (Bytes.of_string "cd")));
  check Alcotest.string "concat" "xyz"
    (Bytes.to_string (Bytesx.concat [ Bytes.of_string "x"; Bytes.empty; Bytes.of_string "yz" ]))

let () =
  Alcotest.run "eric_util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_prng_int_rejects_bad_bound;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_len;
          Alcotest.test_case "choose subset" `Quick test_choose_subset;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation ] );
      ( "bitvec",
        [ Alcotest.test_case "basic" `Quick test_bitvec_basic;
          Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
          Alcotest.test_case "append" `Quick test_bitvec_append;
          bitvec_roundtrip;
          bitvec_popcount;
          bitvec_sets;
          Alcotest.test_case "set errors" `Quick test_bitvec_set_errors ] );
      ( "bytesx",
        [ Alcotest.test_case "hex known" `Quick test_hex_known;
          Alcotest.test_case "hex errors" `Quick test_hex_errors;
          hex_roundtrip;
          Alcotest.test_case "le codecs" `Quick test_le_codecs;
          Alcotest.test_case "append/concat" `Quick test_append_concat ] ) ]
