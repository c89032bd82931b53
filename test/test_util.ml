(* Unit and property tests for eric_util: PRNG, bit vectors, hex, the wire codec and
   its file layer. *)

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

(* Recorded before the generator's state moved into a byte buffer. *)
let test_prng_stream_pin () =
  let rng = Prng.create ~seed:0x5EEDL in
  check (Alcotest.list Alcotest.int64) "first 8 bits64 of seed 0x5EED"
    [ -1210358410065458316L; -2164664542880791269L; -2834165613409827270L;
      -466718552644551933L; -5798483511068453880L; -8722753148381888610L;
      5628034012957674668L; 7787846518745421590L ]
    (List.init 8 (fun _ -> Prng.bits64 rng));
  let rng = Prng.create ~seed:0x5EEDL in
  check (Alcotest.list Alcotest.string) "first 4 gaussians (mu 100, sigma 3) of seed 0x5EED"
    [ "0x1.9345d445ca448p+6"; "0x1.96d803a449a34p+6"; "0x1.85b9e355d7918p+6";
      "0x1.7fad21f6863bep+6" ]
    (List.init 4 (fun _ -> Printf.sprintf "%h" (Prng.gaussian rng ~mu:100.0 ~sigma:3.0)))

(* [gaussian] is [box_muller] of a [nonzero_float] and a [float];
   [uniform_pairs] draws those pairs and leaves the stream where the
   draws would. *)
let test_prng_uniform_pairs () =
  let a = Prng.create ~seed:23L and b = Prng.create ~seed:23L and c = Prng.create ~seed:23L in
  let u = Array.make 12 nan in
  Prng.uniform_pairs a u;
  for i = 0 to 5 do
    let u1 = Prng.nonzero_float b in
    let u2 = Prng.float b in
    check (Alcotest.float 0.0) "u1" u1 u.(2 * i);
    check (Alcotest.float 0.0) "u2" u2 u.((2 * i) + 1);
    check (Alcotest.float 0.0) "gaussian" (Prng.box_muller ~mu:5.0 ~sigma:2.0 u1 u2)
      (Prng.gaussian c ~mu:5.0 ~sigma:2.0)
  done;
  let next = Prng.bits64 b in
  check Alcotest.int64 "same position" next (Prng.bits64 a);
  check Alcotest.int64 "gaussian's position" next (Prng.bits64 c);
  Alcotest.check_raises "odd length" (Invalid_argument "Prng.uniform_pairs: odd length")
    (fun () -> Prng.uniform_pairs a (Array.make 3 0.0))

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

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "eric_wire" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let sample_wire () =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "TEST";
  Wire.add_u8 buf 0xAB;
  Wire.add_u16 buf 0xBEEF;
  Wire.add_u32 buf (-4);
  Wire.add_u64 buf 0x0123456789ABCDEFL;
  Wire.add_u16 buf 3;
  Buffer.add_string buf "xyz";
  Buffer.to_bytes buf

let read_sample c =
  Wire.magic c "TEST" "bad magic";
  let a = Wire.u8 c "a" in
  let b = Wire.u16 c "b" in
  let i = Wire.i32 c "i" in
  let w = Wire.u64 c "w" in
  let s = Wire.string c (Wire.u16 c "s length") "s" in
  (a, b, i, w, s, Wire.remaining c)

let test_wire_cursor () =
  let wire = sample_wire () in
  check Alcotest.string "little-endian layout" "54455354abefbefcffffffefcdab8967452301030078797a"
    (Bytesx.to_hex wire);
  let expect_sample what r =
    match r with
    | Ok (a, b, i, w, s, rest) ->
      check Alcotest.int (what ^ ": u8") 0xAB a;
      check Alcotest.int (what ^ ": u16") 0xBEEF b;
      check Alcotest.int (what ^ ": i32 sign-extends") (-4) i;
      check Alcotest.int64 (what ^ ": u64") 0x0123456789ABCDEFL w;
      check Alcotest.string (what ^ ": string") "xyz" s;
      check Alcotest.int (what ^ ": consumed") 0 rest
    | Error e -> Alcotest.fail e
  in
  expect_sample "buffer" (Wire.decode ~format:"sample" wire read_sample);
  let cut = Bytes.sub wire 0 (Bytes.length wire - 1) in
  check
    Alcotest.(result reject string)
    "truncation names format, field and offset"
    (Error "sample truncated reading s (at byte 21)")
    (Wire.decode ~format:"sample" cut read_sample);
  check
    Alcotest.(result int string)
    "a negative length is a truncation"
    (Error "sample truncated reading s (at byte 0)")
    (Wire.decode ~format:"sample" wire (fun c -> Bytes.length (Wire.bytes c (-1) "s")));
  check
    Alcotest.(result reject string)
    "bad magic" (Error "bad magic")
    (Wire.decode ~format:"sample" (Bytes.of_string "TESX") read_sample);
  check
    Alcotest.(result int string)
    "padding bit past the length"
    (Error "map has padding bits set")
    (Wire.decode ~format:"sample" (Bytes.of_string "\x10") (fun c ->
         Bitvec.length (Wire.bitvec c 4 "map")));
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "sample" in
      (match Wire.write_atomic path (fun oc -> output_bytes oc wire) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      expect_sample "file" (Wire.decode_file ~format:"sample" path read_sample);
      (match Wire.write_atomic path (fun oc -> output_bytes oc cut) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check
        Alcotest.(result reject string)
        "a file's decode error names the file"
        (Error (path ^ ": sample truncated reading s (at byte 21)"))
        (Wire.decode_file ~format:"sample" path read_sample))

(* A random sequence of reads over random bytes: the decode ends in
   [Ok] or [Error], never raises, and never reads past the end. *)
let wire_reads_never_raise =
  qtest ~count:500 "cursor reads never raise"
    QCheck.(pair string (small_list (pair (int_bound 6) (int_range (-2) 12))))
    (fun (input, ops) ->
      match
        Wire.decode ~format:"junk" (Bytes.of_string input) (fun c ->
            List.iter
              (fun (op, n) ->
                match op with
                | 0 -> ignore (Wire.u8 c "u8")
                | 1 -> ignore (Wire.u16 c "u16")
                | 2 -> ignore (Wire.i32 c "i32")
                | 3 -> ignore (Wire.u64 c "u64")
                | 4 -> ignore (Wire.bytes c n "bytes")
                | 5 -> ignore (Wire.bitvec c (max 0 n) "bits")
                | _ -> Wire.magic c "AB" "bad magic")
              ops;
            Wire.remaining c)
      with
      | Ok rest -> rest >= 0 && rest <= String.length input
      | Error _ -> true)

let test_write_atomic_raise () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "state" in
      (match Wire.write_atomic path (fun oc -> output_string oc "old state") with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.check_raises "the callback's exception comes back" (Failure "halfway") (fun () ->
          ignore
            (Wire.write_atomic path (fun oc ->
                 output_string oc "new st";
                 flush oc;
                 failwith "halfway")));
      check Alcotest.(result string string) "old file byte-identical" (Ok "old state")
        (Wire.read_file path);
      check Alcotest.(list string) "no temp file left" [ "state" ]
        (Array.to_list (Sys.readdir dir));
      let missing = Filename.concat (Filename.concat dir "missing") "state" in
      (match Wire.write_atomic missing (fun oc -> output_string oc "x") with
      | Ok () -> Alcotest.fail "wrote under a missing directory"
      | Error e ->
        check Alcotest.string "the error names the destination"
          (missing ^ ": No such file or directory") e);
      (* through a symlink, the file it points to is replaced *)
      let link = Filename.concat dir "link" in
      Unix.symlink path link;
      (match Wire.write_atomic link (fun oc -> output_string oc "via link") with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check Alcotest.bool "the symlink stays" true ((Unix.lstat link).Unix.st_kind = Unix.S_LNK);
      check Alcotest.(result string string) "its target is written" (Ok "via link")
        (Wire.read_file path);
      Sys.remove link;
      (* a pipe is written in place, not replaced by a plain file *)
      let fifo = Filename.concat dir "fifo" in
      Unix.mkfifo fifo 0o600;
      let reader = Unix.openfile fifo [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
      (match Wire.write_atomic fifo (fun oc -> output_string oc "piped") with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let got = Bytes.create 16 in
      let n = Unix.read reader got 0 16 in
      Unix.close reader;
      check Alcotest.string "the pipe carried the bytes" "piped" (Bytes.sub_string got 0 n);
      check Alcotest.bool "it is still a pipe" true ((Unix.stat fifo).Unix.st_kind = Unix.S_FIFO);
      Sys.remove fifo;
      (* the mode a plain [open_out_bin] gives a new file *)
      let plain = Filename.concat dir "plain" in
      close_out (open_out_bin plain);
      check Alcotest.int "same mode as open_out_bin" (Unix.stat plain).Unix.st_perm
        (Unix.stat path).Unix.st_perm;
      Sys.remove plain;
      (* an existing file keeps its mode, also bits the umask would take *)
      List.iter
        (fun perm ->
          Unix.chmod path perm;
          (match Wire.write_atomic path (fun oc -> output_string oc "rewritten") with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          check Alcotest.int (Printf.sprintf "a %#o file stays %#o" perm perm) perm
            (Unix.stat path).Unix.st_perm)
        [ 0o600; 0o666 ];
      check Alcotest.(list string) "no temp file left after the rewrites" [ "state" ]
        (Array.to_list (Sys.readdir dir)))

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
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "stream pin" `Quick test_prng_stream_pin;
          Alcotest.test_case "uniform pairs" `Quick test_prng_uniform_pairs ] );
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
          hex_roundtrip ] );
      ( "wire",
        [ Alcotest.test_case "cursor reads" `Quick test_wire_cursor;
          wire_reads_never_raise;
          Alcotest.test_case "write_atomic keeps the old file" `Quick test_write_atomic_raise ] ) ]
