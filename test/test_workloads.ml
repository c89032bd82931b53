(* Verification of the MiBench-style workload suite: every program must
   compile, run to exit 0 on the simulated SoC, and print values that match
   *independent* OCaml reference implementations of the same algorithms
   (same pseudo-random inputs, different code). *)

let check = Alcotest.check

let run_workload =
  (* Compile+run once per workload and memoise. *)
  let cache = Hashtbl.create 8 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some r -> r
    | None ->
      let w =
        match Eric_workloads.Workloads.by_name name with
        | Some w -> w
        | None -> Alcotest.failf "unknown workload %s" name
      in
      let image =
        match Eric_cc.Driver.compile w.Eric_workloads.Workloads.source with
        | Ok img -> img
        | Error e -> Alcotest.failf "%s failed to compile: %s" name e
      in
      let r = Eric_sim.Soc.run_program image in
      let result =
        match r.Eric_sim.Soc.status with
        | Eric_sim.Cpu.Exited code -> (image, code, r.Eric_sim.Soc.output)
        | Eric_sim.Cpu.Faulted m | Eric_sim.Cpu.Integrity_fault m ->
          Alcotest.failf "%s faulted: %s" name m
        | Eric_sim.Cpu.Running -> Alcotest.failf "%s did not finish" name
      in
      Hashtbl.replace cache name result;
      result

let output_ints name =
  let _, code, out = run_workload name in
  check Alcotest.int (name ^ " exit code") 0 code;
  out |> String.trim |> String.split_on_char '\n' |> List.map Int64.of_string

(* Shared LCG, identical to the MiniC one. *)
let lcg seed = (seed * 1103515245 + 12345) land 0x7fffffff

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

let test_basicmath () =
  (* isqrt reference: float sqrt with integer correction. *)
  let isqrt x =
    if x < 2 then x
    else begin
      let r = ref (int_of_float (sqrt (float_of_int x))) in
      while (!r + 1) * (!r + 1) <= x do incr r done;
      while !r * !r > x do decr r done;
      !r
    end
  in
  let sum = ref 0 in
  for i = 0 to 29999 do
    sum := !sum + isqrt i
  done;
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = ref 0 in
  for i = 1 to 120 do
    for j = 1 to 120 do
      g := !g + gcd i j
    done
  done;
  let sieve = Array.make 20000 true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to 141 do
    if sieve.(i) then
      let j = ref (i * i) in
      while !j < 20000 do
        sieve.(!j) <- false;
        j := !j + i
      done
  done;
  let primes = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 sieve in
  check (Alcotest.list Alcotest.int64) "basicmath checksums"
    [ Int64.of_int !sum; Int64.of_int !g; Int64.of_int primes ]
    (output_ints "basicmath")

let test_bitcount () =
  let popcount v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
    go v 0
  in
  let seed = ref 1 and total = ref 0 in
  for _ = 1 to 20000 do
    seed := lcg !seed;
    total := !total + popcount (!seed land 0xffffffff)
  done;
  let t = Int64.of_int !total in
  check (Alcotest.list Alcotest.int64) "four equal popcount totals" [ t; t; t; t ]
    (output_ints "bitcount")

let test_qsort () =
  let n = 3000 in
  let seed = ref 42 in
  let data =
    Array.init n (fun _ ->
        seed := lcg !seed;
        !seed mod 100000)
  in
  Array.sort compare data;
  let checksum = ref 0 in
  for i = 0 to n - 1 do
    checksum := (!checksum + ((i + 1) * (data.(i) mod 1000))) mod 1000000007
  done;
  check (Alcotest.list Alcotest.int64) "qsort results"
    [ Int64.of_int data.(0); Int64.of_int data.(n - 1); Int64.of_int !checksum ]
    (output_ints "qsort")

let test_dijkstra () =
  let n = 96 in
  let inf = 1000000000 in
  let seed = ref 7 in
  let adj = Array.make (n * n) inf in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      seed := lcg !seed;
      let w = !seed mod 1000 in
      adj.((i * n) + j) <- (if w < 700 then w + 1 else inf)
    done
  done;
  let total = ref 0 and unreachable = ref 0 in
  for src = 0 to 7 do
    let dist = Array.make n inf and visited = Array.make n false in
    dist.(src * 11 mod n) <- 0;
    (try
       for _ = 0 to n - 1 do
         let best = ref (-1) and best_d = ref inf in
         for i = 0 to n - 1 do
           if (not visited.(i)) && dist.(i) < !best_d then begin
             best := i;
             best_d := dist.(i)
           end
         done;
         if !best < 0 then raise Exit;
         visited.(!best) <- true;
         for j = 0 to n - 1 do
           let w = adj.((!best * n) + j) in
           if w < inf && dist.(!best) + w < dist.(j) then dist.(j) <- dist.(!best) + w
         done
       done
     with Exit -> ());
    Array.iter (fun d -> if d = inf then incr unreachable else total := !total + d) dist
  done;
  check (Alcotest.list Alcotest.int64) "dijkstra totals"
    [ Int64.of_int !total; Int64.of_int !unreachable ]
    (output_ints "dijkstra")

let crc32_ref data =
  (* Independent bitwise implementation over int. *)
  let c = ref 0xffffffff in
  Bytes.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
      done)
    data;
  !c lxor 0xffffffff

let test_crc32 () =
  let seed = ref 123 in
  let buffer =
    Bytes.init 16384 (fun _ ->
        seed := lcg !seed;
        Char.chr ((!seed lsr 16) land 0xFF))
  in
  let full = crc32_ref buffer in
  let prefix = crc32_ref (Bytes.sub buffer 0 512) in
  check (Alcotest.list Alcotest.int64) "crc values"
    [ Int64.of_int full; Int64.of_int prefix ]
    (output_ints "crc32")

let test_stringsearch () =
  let n = 8192 in
  let seed = ref 99 in
  let corpus =
    Bytes.init n (fun _ ->
        seed := lcg !seed;
        Char.chr (Char.code 'a' + (!seed mod 26)))
  in
  let plant at pat = Bytes.blit_string pat 0 corpus at (String.length pat) in
  plant 100 "obfuscation";
  plant 2048 "hardware";
  plant 4096 "obfuscation";
  plant 8000 "signature";
  let count pat =
    let m = String.length pat in
    let c = ref 0 in
    for pos = 0 to n - m do
      if Bytes.sub_string corpus pos m = pat then incr c
    done;
    !c
  in
  let total =
    count "obfuscation" + count "hardware" + count "signature" + count "decrypt" + count "the"
  in
  check (Alcotest.list Alcotest.int64) "match counts"
    [ Int64.of_int total; Int64.of_int total ]
    (output_ints "stringsearch")

let test_sha_fips_vector () =
  (* First five printed words are SHA-1("abc"), checkable against FIPS
     180-1: a9993e36 4706816a ba3e2571 7850c26c 9cd0d89d. *)
  let values = output_ints "sha" in
  check Alcotest.int "ten words" 10 (List.length values);
  let abc = [ 0xa9993e36L; 0x4706816aL; 0xba3e2571L; 0x7850c26cL; 0x9cd0d89dL ] in
  check (Alcotest.list Alcotest.int64) "abc digest" abc (List.filteri (fun i _ -> i < 5) values)

let test_adpcm () =
  (* Independent re-implementation of the IMA codec. *)
  let step_table =
    [| 7; 8; 9; 10; 11; 12; 13; 14; 16; 17; 19; 21; 23; 25; 28; 31; 34; 37; 41; 45; 50; 55; 60;
       66; 73; 80; 88; 97; 107; 118; 130; 143; 157; 173; 190; 209; 230; 253; 279; 307; 337; 371;
       408; 449; 494; 544; 598; 658; 724; 796; 876; 963; 1060; 1166; 1282; 1411; 1552; 1707;
       1878; 2066; 2272; 2499; 2749; 3024; 3327; 3660; 4026; 4428; 4871; 5358; 5894; 6484; 7132;
       7845; 8630; 9493; 10442; 11487; 12635; 13899; 15289; 16818; 18500; 20350; 22385; 24623;
       27086; 29794; 32767 |]
  in
  let index_table = [| -1; -1; -1; -1; 2; 4; 6; 8; -1; -1; -1; -1; 2; 4; 6; 8 |] in
  let clamp v lo hi = if v < lo then lo else if v > hi then hi else v in
  let n = 4096 in
  let samples = Array.make n 0 in
  let seed = ref 5 and phase = ref 0 and dir = ref 37 in
  for i = 0 to n - 1 do
    seed := lcg !seed;
    phase := !phase + !dir;
    if !phase > 12000 then dir := -41;
    if !phase < -12000 then dir := 53;
    samples.(i) <- clamp (!phase + (!seed mod 257) - 128) (-32768) 32767
  done;
  let deltas = Array.make n 0 in
  let valpred = ref 0 and index = ref 0 in
  for i = 0 to n - 1 do
    let step = ref step_table.(!index) in
    let diff = ref (samples.(i) - !valpred) in
    let sign = if !diff < 0 then 8 else 0 in
    if sign = 8 then diff := - !diff;
    let delta = ref 0 in
    let vpdiff = ref (!step lsr 3) in
    if !diff >= !step then begin
      delta := 4;
      diff := !diff - !step;
      vpdiff := !vpdiff + !step
    end;
    step := !step lsr 1;
    if !diff >= !step then begin
      delta := !delta lor 2;
      diff := !diff - !step;
      vpdiff := !vpdiff + !step
    end;
    step := !step lsr 1;
    if !diff >= !step then begin
      delta := !delta lor 1;
      vpdiff := !vpdiff + !step
    end;
    if sign = 8 then valpred := !valpred - !vpdiff else valpred := !valpred + !vpdiff;
    valpred := clamp !valpred (-32768) 32767;
    delta := !delta lor sign;
    deltas.(i) <- !delta;
    index := clamp (!index + index_table.(!delta)) 0 88
  done;
  let decoded = Array.make n 0 in
  let valpred = ref 0 and index = ref 0 in
  for i = 0 to n - 1 do
    let delta = deltas.(i) in
    let step = step_table.(!index) in
    let vpdiff = ref (step lsr 3) in
    if delta land 4 <> 0 then vpdiff := !vpdiff + step;
    if delta land 2 <> 0 then vpdiff := !vpdiff + (step lsr 1);
    if delta land 1 <> 0 then vpdiff := !vpdiff + (step lsr 2);
    if delta land 8 <> 0 then valpred := !valpred - !vpdiff else valpred := !valpred + !vpdiff;
    valpred := clamp !valpred (-32768) 32767;
    decoded.(i) <- !valpred;
    index := clamp (!index + index_table.(delta)) 0 88
  done;
  let checksum = ref 0 and worst = ref 0 in
  for i = 0 to n - 1 do
    checksum := ((!checksum * 31) + deltas.(i)) mod 1000000007;
    let err = abs (samples.(i) - decoded.(i)) in
    if err > !worst then worst := err
  done;
  check (Alcotest.list Alcotest.int64) "adpcm checksums"
    [ Int64.of_int !checksum; Int64.of_int !worst ]
    (output_ints "adpcm")


let test_rijndael () =
  (* Independent AES-128 implementation: hard-coded FIPS S-box (the MiniC
     version derives it algebraically), straightforward key schedule and
     rounds over int arrays. *)
  let sbox =
    [| 0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b; 0xfe; 0xd7;
       0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0; 0xad; 0xd4; 0xa2; 0xaf;
       0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26; 0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5;
       0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15; 0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a;
       0x07; 0x12; 0x80; 0xe2; 0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e;
       0x5a; 0xa0; 0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
       0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf; 0xd0; 0xef;
       0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f; 0x50; 0x3c; 0x9f; 0xa8;
       0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5; 0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff;
       0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec; 0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d;
       0x64; 0x5d; 0x19; 0x73; 0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee;
       0xb8; 0x14; 0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
       0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d; 0x8d; 0xd5;
       0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08; 0xba; 0x78; 0x25; 0x2e;
       0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f; 0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e;
       0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e; 0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e;
       0xe1; 0xf8; 0x98; 0x11; 0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55;
       0x28; 0xdf; 0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
       0xb0; 0x54; 0xbb; 0x16 |]
  in
  let xtime a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x1b) land 0xff else (a lsl 1) land 0xff in
  let expand key =
    let rk = Array.make 176 0 in
    Array.blit key 0 rk 0 16;
    let rcon = ref 1 in
    for w = 4 to 43 do
      let base = 4 * w and prev = (4 * w) - 4 in
      if w mod 4 = 0 then begin
        rk.(base) <- rk.(base - 16) lxor sbox.(rk.(prev + 1)) lxor !rcon;
        rk.(base + 1) <- rk.(base - 15) lxor sbox.(rk.(prev + 2));
        rk.(base + 2) <- rk.(base - 14) lxor sbox.(rk.(prev + 3));
        rk.(base + 3) <- rk.(base - 13) lxor sbox.(rk.(prev));
        rcon := xtime !rcon
      end
      else
        for b = 0 to 3 do
          rk.(base + b) <- rk.(base - 16 + b) lxor rk.(prev + b)
        done
    done;
    rk
  in
  let encrypt_block rk (s : int array) =
    let add_rk r = for i = 0 to 15 do s.(i) <- s.(i) lxor rk.((16 * r) + i) done in
    let sub () = for i = 0 to 15 do s.(i) <- sbox.(s.(i)) done in
    let shift () =
      let t = Array.copy s in
      for c = 0 to 3 do
        for r = 0 to 3 do
          s.((4 * c) + r) <- t.((4 * ((c + r) mod 4)) + r)
        done
      done
    in
    let mix () =
      for c = 0 to 3 do
        let s0 = s.(4 * c) and s1 = s.((4 * c) + 1) and s2 = s.((4 * c) + 2) and s3 = s.((4 * c) + 3) in
        let all = s0 lxor s1 lxor s2 lxor s3 in
        s.(4 * c) <- s0 lxor all lxor xtime (s0 lxor s1);
        s.((4 * c) + 1) <- s1 lxor all lxor xtime (s1 lxor s2);
        s.((4 * c) + 2) <- s2 lxor all lxor xtime (s2 lxor s3);
        s.((4 * c) + 3) <- s3 lxor all lxor xtime (s3 lxor s0)
      done
    in
    add_rk 0;
    for r = 1 to 9 do
      sub (); shift (); mix (); add_rk r
    done;
    sub (); shift (); add_rk 10
  in
  let rk = expand (Array.init 16 (fun i -> i)) in
  (* FIPS vector *)
  let block = Array.init 16 (fun i -> (i * 17) land 0xff) in
  encrypt_block rk block;
  let words =
    List.init 4 (fun w ->
        Int64.of_int
          ((block.(4 * w) lsl 24) lor (block.((4 * w) + 1) lsl 16) lor (block.((4 * w) + 2) lsl 8)
          lor block.((4 * w) + 3)))
  in
  (* ECB buffer *)
  let len = 2048 in
  let seed = ref 77 in
  let buffer =
    Array.init len (fun _ ->
        seed := lcg !seed;
        (!seed lsr 11) land 0xff)
  in
  let off = ref 0 in
  while !off + 16 <= len do
    let b = Array.sub buffer !off 16 in
    encrypt_block rk b;
    Array.blit b 0 buffer !off 16;
    off := !off + 16
  done;
  let checksum = ref 0 in
  for i = 0 to len - 1 do
    checksum := ((!checksum * 131) + buffer.(i)) mod 1000000007
  done;
  check (Alcotest.list Alcotest.int64) "aes vector + ecb checksum"
    (words @ [ Int64.of_int !checksum ])
    (output_ints "rijndael")

let test_fft () =
  (* Independent check: a float DFT finds the same dominant bin, the
     round-trip flag printed by the program must be 1, and the
     reconstruction checksum matches a float inverse within the same
     quantisation (recomputed with exact integer semantics below only for
     the input signal itself). *)
  match output_ints "fft" with
  | [ bin; ok; _checksum ] ->
    (* regenerate the input signal with the workload's exact integer code *)
    let sine =
      [| 0; 402; 804; 1205; 1606; 2006; 2404; 2801; 3196; 3590; 3981; 4370; 4756; 5139; 5520;
         5897; 6270; 6639; 7005; 7366; 7723; 8076; 8423; 8765; 9102; 9434; 9760; 10080; 10394;
         10702; 11003; 11297; 11585; 11866; 12140; 12406; 12665; 12916; 13160; 13395; 13623;
         13842; 14053; 14256; 14449; 14635; 14811; 14978; 15137; 15286; 15426; 15557; 15679;
         15791; 15893; 15986; 16069; 16143; 16207; 16261; 16305; 16340; 16364; 16379; 16384 |]
    in
    let sin256 k =
      let k = ((k mod 256) + 256) mod 256 in
      if k <= 64 then sine.(k)
      else if k <= 128 then sine.(128 - k)
      else if k <= 192 then -sine.(k - 128)
      else -sine.(256 - k)
    in
    let n = 256 and tone = 10 in
    let seed = ref 31 in
    let signal =
      Array.init n (fun i ->
          seed := lcg !seed;
          ((8192 * sin256 (tone * i)) asr 14) + (!seed mod 65) - 32)
    in
    (* float DFT: dominant positive-frequency bin *)
    let best = ref 0 and best_mag = ref 0.0 in
    for k = 1 to (n / 2) - 1 do
      let re = ref 0.0 and im = ref 0.0 in
      for i = 0 to n - 1 do
        let angle = -2.0 *. Float.pi *. float_of_int (k * i) /. float_of_int n in
        re := !re +. (float_of_int signal.(i) *. cos angle);
        im := !im +. (float_of_int signal.(i) *. sin angle)
      done;
      let mag = (!re *. !re) +. (!im *. !im) in
      if mag > !best_mag then begin
        best_mag := mag;
        best := k
      end
    done;
    check Alcotest.int64 "dominant bin (float DFT agrees)" (Int64.of_int !best) bin;
    check Alcotest.int64 "round-trip flag" 1L ok
  | other -> Alcotest.failf "expected 3 output values, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Suite-wide invariants                                               *)
(* ------------------------------------------------------------------ *)

let test_all_compile_and_exit_zero () =
  List.iter
    (fun name ->
      let _, code, out = run_workload name in
      check Alcotest.int (name ^ " exit") 0 code;
      check Alcotest.bool (name ^ " produced output") true (String.length out > 0))
    Eric_workloads.Workloads.names

let test_sizes_vary () =
  (* The paper wants "programs of different sizes". *)
  let sizes =
    List.map
      (fun name ->
        let img, _, _ = run_workload name in
        Eric_rv.Program.text_size img)
      Eric_workloads.Workloads.names
  in
  let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
  check Alcotest.bool "spread" true (mx > mn * 2)

let test_compression_equivalence () =
  (* Compressed and uncompressed builds behave identically (checked on two
     representative workloads to bound test time). *)
  List.iter
    (fun name ->
      let w = Option.get (Eric_workloads.Workloads.by_name name) in
      let run options =
        let img =
          match Eric_cc.Driver.compile ~options w.Eric_workloads.Workloads.source with
          | Ok i -> i
          | Error e -> Alcotest.fail e
        in
        let r = Eric_sim.Soc.run_program img in
        (r.Eric_sim.Soc.status, r.Eric_sim.Soc.output)
      in
      let s1, o1 = run { Eric_cc.Driver.default_options with Eric_cc.Driver.compress = false } in
      let s2, o2 = run Eric_cc.Driver.default_options in
      check Alcotest.bool (name ^ " same status") true (s1 = s2);
      check Alcotest.string (name ^ " same output") o1 o2)
    [ "crc32"; "qsort" ]

let test_unoptimized_equivalence () =
  List.iter
    (fun name ->
      let w = Option.get (Eric_workloads.Workloads.by_name name) in
      let run options =
        let img =
          match Eric_cc.Driver.compile ~options w.Eric_workloads.Workloads.source with
          | Ok i -> i
          | Error e -> Alcotest.fail e
        in
        (Eric_sim.Soc.run_program img).Eric_sim.Soc.output
      in
      let o1 = run { Eric_cc.Driver.default_options with Eric_cc.Driver.optimize = false } in
      let o2 = run Eric_cc.Driver.default_options in
      check Alcotest.string (name ^ " same output") o1 o2)
    [ "sha"; "stringsearch" ]

let test_encrypted_roundtrip_identical_image () =
  (* Ship one workload through the full ERIC pipeline and require the
     decrypted image to be byte-identical; then run it. *)
  let key = Bytes.of_string "workload-roundtrip-key-32bytes!!" in
  let img, _, plain_out = run_workload "crc32" in
  let pkg, _ = Eric.Encrypt.encrypt ~key ~mode:Eric.Config.Full img in
  match Eric.Encrypt.decrypt ~key pkg with
  | Error _ -> Alcotest.fail "decrypt failed"
  | Ok (img', _) ->
    check Alcotest.string "identical text"
      (Eric_util.Bytesx.to_hex img.Eric_rv.Program.text)
      (Eric_util.Bytesx.to_hex img'.Eric_rv.Program.text);
    let r = Eric_sim.Soc.run_program img' in
    check Alcotest.string "identical behaviour" plain_out r.Eric_sim.Soc.output


let test_ir_interpreter_agrees () =
  (* Third implementation: the IR interpreter (which shares nothing with
     codegen/regalloc/the CPU) must produce the same observable behaviour
     as the compiled binary on the SoC, for every workload. *)
  List.iter
    (fun name ->
      let w = Option.get (Eric_workloads.Workloads.by_name name) in
      match Eric_cc.Driver.compile_to_ir w.Eric_workloads.Workloads.source_small with
      | Error e -> Alcotest.fail e
      | Ok ir ->
        let interp = Eric_cc.Ir_interp.run ir in
        let image =
          match Eric_cc.Driver.compile w.Eric_workloads.Workloads.source_small with
          | Ok img -> img
          | Error e -> Alcotest.fail e
        in
        let soc = Eric_sim.Soc.run_program image in
        check Alcotest.string (name ^ " output") interp.Eric_cc.Ir_interp.output
          soc.Eric_sim.Soc.output;
        (match soc.Eric_sim.Soc.status with
        | Eric_sim.Cpu.Exited code ->
          check Alcotest.int (name ^ " exit") interp.Eric_cc.Ir_interp.exit_code code
        | _ -> Alcotest.fail (name ^ " did not exit")))
    Eric_workloads.Workloads.names

let () =
  Alcotest.run "eric_workloads"
    [ ( "references",
        [ Alcotest.test_case "basicmath" `Slow test_basicmath;
          Alcotest.test_case "bitcount" `Slow test_bitcount;
          Alcotest.test_case "qsort" `Quick test_qsort;
          Alcotest.test_case "dijkstra" `Slow test_dijkstra;
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "stringsearch" `Quick test_stringsearch;
          Alcotest.test_case "sha FIPS vector" `Quick test_sha_fips_vector;
          Alcotest.test_case "adpcm" `Quick test_adpcm;
          Alcotest.test_case "rijndael (independent AES)" `Slow test_rijndael;
          Alcotest.test_case "fft (float DFT agrees)" `Slow test_fft ] );
      ( "suite",
        [ Alcotest.test_case "all compile and exit 0" `Slow test_all_compile_and_exit_zero;
          Alcotest.test_case "sizes vary" `Quick test_sizes_vary;
          Alcotest.test_case "compression equivalence" `Slow test_compression_equivalence;
          Alcotest.test_case "unoptimized equivalence" `Slow test_unoptimized_equivalence;
          Alcotest.test_case "encrypted roundtrip" `Quick test_encrypted_roundtrip_identical_image;
          Alcotest.test_case "IR interpreter agrees" `Slow test_ir_interpreter_agrees ] ) ]
