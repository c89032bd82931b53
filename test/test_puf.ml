(* Tests for eric_puf: arbiter chain physics, device determinism, key
   generation stability, population quality metrics. *)

open Eric_puf

let check = Alcotest.check

let test_arbiter_deterministic () =
  let rng = Eric_util.Prng.create ~seed:1L in
  let chain = Arbiter.manufacture Arbiter.default_params rng in
  for challenge = 0 to 255 do
    check Alcotest.bool
      (Printf.sprintf "challenge %d" challenge)
      (Arbiter.eval chain ~challenge) (Arbiter.eval chain ~challenge)
  done

let test_arbiter_sign_matches_delay () =
  let rng = Eric_util.Prng.create ~seed:2L in
  let chain = Arbiter.manufacture Arbiter.default_params rng in
  for challenge = 0 to 255 do
    let d = Arbiter.delay_difference chain ~challenge in
    check Alcotest.bool "eval = sign of delay difference" (d < 0.0)
      (Arbiter.eval chain ~challenge)
  done

let test_arbiter_challenge_sensitivity () =
  (* A healthy chain should not answer every challenge identically. *)
  let rng = Eric_util.Prng.create ~seed:3L in
  let ones = ref 0 in
  for _ = 1 to 8 do
    let chain = Arbiter.manufacture Arbiter.default_params rng in
    for challenge = 0 to 255 do
      if Arbiter.eval chain ~challenge then incr ones
    done
  done;
  check Alcotest.bool "response distribution is mixed" true (!ones > 200 && !ones < 8 * 256 - 200)

let test_arbiter_stage_validation () =
  Alcotest.check_raises "zero stages" (Invalid_argument "Arbiter.manufacture: stages must be positive")
    (fun () ->
      ignore
        (Arbiter.manufacture
           { Arbiter.default_params with Arbiter.stages = 0 }
           (Eric_util.Prng.create ~seed:1L)))

let test_device_table1_shape () =
  (* Table I: 32 chains, 8-bit challenge, 1-bit response each. *)
  let d = Device.manufacture 100L in
  check Alcotest.int "32 chains" 32 (Device.chains d);
  check Alcotest.int "key bits" 32 (Device.key_bits d);
  check Alcotest.int "challenge set size" 32 (Array.length (Device.challenge_set d));
  Array.iter
    (fun c -> check Alcotest.bool "8-bit challenge" true (c >= 0 && c < 256))
    (Device.challenge_set d);
  check Alcotest.int "key bytes" 4 (Bytes.length (Device.puf_key d))

let test_device_reproducible () =
  let a = Device.manufacture 55L and b = Device.manufacture 55L in
  check Alcotest.string "same silicon, same key"
    (Eric_util.Bytesx.to_hex (Device.puf_key a))
    (Eric_util.Bytesx.to_hex (Device.puf_key b))

let test_device_unique () =
  (* Keys across a population must not collide en masse. *)
  let keys =
    List.init 24 (fun i -> Eric_util.Bytesx.to_hex (Device.puf_key (Device.manufacture (Int64.of_int (i + 1)))))
  in
  let distinct = List.sort_uniq compare keys in
  check Alcotest.bool "mostly distinct keys" true (List.length distinct >= 23)

let test_device_key_stable_under_noise () =
  (* Majority voting + dark-bit masking: regeneration is error-free. *)
  let d = Device.manufacture 77L in
  let enrolled = Device.puf_key d in
  for _ = 1 to 50 do
    check Alcotest.string "regenerated key" (Eric_util.Bytesx.to_hex enrolled)
      (Eric_util.Bytesx.to_hex (Device.puf_key d))
  done

let test_device_noiseless_response_deterministic () =
  let d = Device.manufacture 88L in
  let ch = Device.challenge_set d in
  let a = Device.respond ~noisy:false d ch in
  let b = Device.respond ~noisy:false d ch in
  check Alcotest.bool "ideal responses equal" true (Eric_util.Bitvec.equal a b)

let test_device_respond_arity () =
  let d = Device.manufacture 99L in
  Alcotest.check_raises "arity" (Invalid_argument "Device.respond: one challenge per chain expected")
    (fun () -> ignore (Device.respond d [| 1; 2; 3 |]))

(* Recorded before a noisy read drew its uniforms up front and answered
   wide races from their margin. *)
let test_device_key_pins () =
  List.iter
    (fun (id, hex) ->
      check Alcotest.string (Printf.sprintf "puf_key of device %Ld" id) hex
        (Eric_util.Bytesx.to_hex (Device.puf_key (Device.manufacture id))))
    [ (1L, "38185cfb"); (2L, "d1958553"); (77L, "64accc71"); (0x5EEDL, "92078e5a");
      (0xFFFF_FFFF_FFFFL, "4834c09b") ]

(* Every read a device makes from manufacture to a fuzzy boot, in one
   order, per device: its key, each corner's raw responses and 5-vote
   key, stress-corner reads of every chain, enrollment (helper, key,
   instabilities) and reconstruction at nominal and at stress. *)
let sweep_digest ~devices =
  let b = Buffer.create (1 lsl 16) in
  let hex = Eric_util.Bytesx.to_hex in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  for i = 1 to devices do
    let id = Int64.of_int (i * 7919) in
    let d = Device.manufacture id in
    let ch = Device.challenge_set d in
    line "%Ld key %s" id (hex (Device.puf_key d));
    List.iter
      (fun (name, env) ->
        line "%s %s %s" name
          (hex (Eric_util.Bitvec.to_bytes (Device.respond ~env d ch)))
          (hex (Device.puf_key ~votes:5 ~env d)))
      Env.corners;
    for chain = 0 to Device.chains d - 1 do
      for j = 0 to 7 do
        let challenge = ((chain * 37) + (j * 29)) land 255 in
        Buffer.add_char b
          (if Device.eval_chain ~env:Env.stress d ~chain ~challenge then '1' else '0')
      done
    done;
    Buffer.add_char b '\n';
    match Enroll.enroll d with
    | Error e -> line "refused %s" e
    | Ok e ->
      line "helper %s key %s worst %h" (hex (Enroll.serialize e.Enroll.helper))
        (hex e.Enroll.key) e.Enroll.worst_instability;
      Array.iter (fun x -> line "%h" x) e.Enroll.instability;
      List.iter
        (fun env ->
          match Fuzzy.reconstruct ~env d e.Enroll.helper with
          | Ok r -> line "fuzzy %s %d" (hex r.Fuzzy.key) r.Fuzzy.attempts_used
          | Error f -> line "fuzzy %s" (Fuzzy.failure_to_string f))
        [ Env.nominal; Env.stress ]
  done;
  Eric_crypto.Sha256.hex (Eric_crypto.Sha256.digest_string (Buffer.contents b))

(* Recorded, with this sweep, before a noisy read drew its uniforms up
   front and answered wide races from their margin. *)
let test_device_sweep_pin () =
  check Alcotest.string "SHA-256 of a 200-device sweep"
    "81bd2ab5b1320d3a18c8b30c84b8d983fb594d09b3e4c2610012f608193aaa73"
    (sweep_digest ~devices:200)

(* ------------------------------------------------------------------ *)
(* Reference evaluation                                                *)
(* ------------------------------------------------------------------ *)

module Prng = Eric_util.Prng

(* The model as it was before a noisy read drew its uniforms up front
   and answered a wide race from its noiseless margin: a closure-based
   Box-Muller draw and a race that perturbs each delay in turn.  Its
   chains are transparent records drawn from the streams
   [Arbiter.manufacture] draws from, in the same order. *)
module Reference = struct
  let gaussian rng ~mu ~sigma =
    let rec nonzero () =
      let u = Prng.float rng in
      if u <= 1e-300 then nonzero () else u
    in
    let u1 = nonzero () in
    let u2 = Prng.float rng in
    let r = sqrt (-2.0 *. log u1) in
    mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

  type stage = {
    straight_top : float;
    straight_bot : float;
    cross_top : float;
    cross_bot : float;
  }

  type chain = { stages : stage array; drift : stage array; skew : float; noise_sigma : float }

  let manufacture (p : Arbiter.params) ~drift_rng rng =
    let draw () = gaussian rng ~mu:p.nominal_delay_ps ~sigma:p.variation_sigma_ps in
    let make_stage _ =
      { straight_top = draw (); straight_bot = draw (); cross_top = draw (); cross_bot = draw () }
    in
    let drift =
      let d () = gaussian drift_rng ~mu:0.0 ~sigma:1.0 in
      Array.init p.stages (fun _ ->
          { straight_top = d (); straight_bot = d (); cross_top = d (); cross_bot = d () })
    in
    { stages = Array.init p.stages make_stage;
      drift;
      skew = gaussian rng ~mu:0.0 ~sigma:(p.variation_sigma_ps /. 4.0);
      noise_sigma = p.noise_sigma_ps }

  let race ?noise ?(env = Env.nominal) t ~challenge =
    let age = Env.age_shift_ps env in
    let sigma = t.noise_sigma *. Env.noise_scale env in
    let perturb d drift =
      let d = d +. (age *. drift) in
      match noise with None -> d | Some rng -> d +. gaussian rng ~mu:0.0 ~sigma
    in
    let top = ref 0.0 and bot = ref 0.0 in
    Array.iteri
      (fun i st ->
        let dr = t.drift.(i) in
        if (challenge lsr i) land 1 = 0 then begin
          top := !top +. perturb st.straight_top dr.straight_top;
          bot := !bot +. perturb st.straight_bot dr.straight_bot
        end
        else begin
          let new_top = !bot +. perturb st.cross_top dr.cross_top in
          let new_bot = !top +. perturb st.cross_bot dr.cross_bot in
          top := new_top;
          bot := new_bot
        end)
      t.stages;
    !top -. !bot +. t.skew

  (* How far the noise of the read [rng] is about to make can move a
     race: per delay, |sigma| sqrt (2 (k+1) ln 2) for its u1 in
     [2^-(k+1), 2^-k), summed over the 2 x stages delays. *)
  let reach t ~env rng =
    let rng = Prng.copy rng in
    let sum = ref 0.0 in
    for _ = 1 to 2 * Array.length t.stages do
      let rec nonzero () =
        let u = Prng.float rng in
        if u <= 1e-300 then nonzero () else u
      in
      let u1 = ref (nonzero ()) and k = ref 0 in
      ignore (Prng.float rng);
      while !u1 < 0.5 do
        u1 := !u1 *. 2.0;
        incr k
      done;
      sum := !sum +. sqrt (2.0 *. float_of_int (!k + 1) *. log 2.0)
    done;
    Float.abs (t.noise_sigma *. Env.noise_scale env) *. !sum

  (* Whether the read [rng] is about to make may answer from the
     noiseless margin. *)
  let early ~env t ~challenge rng =
    Float.abs (race ~env t ~challenge) > (reach t ~env rng *. (1.0 +. 1e-9)) +. 1e-9
end

(* Chain [chain] of device [id], from the library and from the reference,
   each off its own copy of the streams [Device.manufacture] uses. *)
let chain_pair id ~chain =
  let streams () =
    (Prng.create ~seed:(Int64.add 0x5111C0DEL id), Prng.create ~seed:(Int64.add 0xD21F7L id))
  in
  let silicon, drift_rng = streams () and silicon', drift_rng' = streams () in
  let p = Arbiter.default_params in
  let real = ref (Arbiter.manufacture ~drift_rng p silicon)
  and reference = ref (Reference.manufacture p ~drift_rng:drift_rng' silicon') in
  for _ = 1 to chain do
    real := Arbiter.manufacture ~drift_rng p silicon;
    reference := Reference.manufacture p ~drift_rng:drift_rng' silicon'
  done;
  (!real, !reference)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* One noisy read by the library and by the reference off equal streams:
   the same bit, and both streams left at the same position. *)
let read_agrees ~env (real, reference) ~challenge ~seed =
  let noise = Prng.create ~seed and noise' = Prng.create ~seed in
  let bit = Arbiter.eval ~noise ~env real ~challenge in
  let bit' = Reference.race ~noise:noise' ~env reference ~challenge < 0.0 in
  bit = bit' && Int64.equal (Prng.bits64 noise) (Prng.bits64 noise')

let test_reference_gaussian =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"gaussian = closure-based reference"
       QCheck.(triple int64 (float_range (-1e3) 1e3) (float_range 0.0 50.0))
       (fun (seed, mu, sigma) ->
         let a = Prng.create ~seed and b = Prng.create ~seed in
         List.for_all
           (fun _ -> same_float (Prng.gaussian a ~mu ~sigma) (Reference.gaussian b ~mu ~sigma))
           [ 1; 2; 3; 4 ]
         && Int64.equal (Prng.bits64 a) (Prng.bits64 b)))

let test_reference_eval =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"eval = reference race"
       QCheck.(quad (int_range 1 5000) (int_range 0 31) (int_range 0 255) int64)
       (fun (id, chain, challenge, seed) ->
         let ((real, reference) as pair) = chain_pair (Int64.of_int id) ~chain in
         List.for_all
           (fun (_, env) ->
             same_float
               (Arbiter.delay_difference ~env real ~challenge)
               (Reference.race ~env reference ~challenge)
             && Arbiter.eval ~env real ~challenge = (Reference.race ~env reference ~challenge < 0.0)
             && read_agrees ~env pair ~challenge ~seed)
           Env.corners))

(* The chains of device 0x5EED are the library's: their margins are
   the device's to the bit. *)
let test_reference_chains () =
  let d = Device.manufacture 0x5EEDL in
  for chain = 0 to Device.chains d - 1 do
    let _, reference = chain_pair 0x5EEDL ~chain in
    for challenge = 0 to 255 do
      List.iter
        (fun (name, env) ->
          if
            not
              (same_float
                 (Device.chain_margin ~env d ~chain ~challenge)
                 (Reference.race ~env reference ~challenge))
          then Alcotest.failf "chain %d challenge %d at %s" chain challenge name)
        [ ("nominal", Env.nominal); ("aged-hot-lowv", Option.get (Env.of_name "aged-hot-lowv")) ]
    done
  done

(* Both ways a read is answered, on device 0x5EED.  Each chain's
   narrowest race at the stress corner lies within the noise's reach, so
   it runs the exact noisy race; the widest enrolled challenge at
   nominal lies beyond it, so it is answered from its margin.  Either
   way the bit and the stream position are the reference's. *)
let seeds = List.init 40 (fun i -> Int64.of_int (0x5EED + i))

let test_exact_path () =
  let d = Device.manufacture 0x5EEDL in
  for chain = 0 to Device.chains d - 1 do
    let margin c = Float.abs (Device.chain_margin ~env:Env.stress d ~chain ~challenge:c) in
    let narrowest = ref 0 in
    for c = 1 to 255 do
      if margin c < margin !narrowest then narrowest := c
    done;
    let challenge = !narrowest in
    let ((_, reference) as pair) = chain_pair 0x5EEDL ~chain in
    List.iter
      (fun seed ->
        let what = Printf.sprintf "chain %d challenge %d seed %Ld" chain challenge seed in
        check Alcotest.bool (what ^ " runs the exact race") false
          (Reference.early ~env:Env.stress reference ~challenge (Prng.create ~seed));
        check Alcotest.bool (what ^ " agrees") true
          (read_agrees ~env:Env.stress pair ~challenge ~seed))
      seeds
  done

let test_early_path () =
  let d = Device.manufacture 0x5EEDL in
  let enrolled = Device.challenge_set d in
  let margin chain = Float.abs (Device.chain_margin d ~chain ~challenge:enrolled.(chain)) in
  let widest = ref 0 in
  for chain = 0 to Device.chains d - 1 do
    if margin chain > margin !widest then widest := chain;
    (* every enrolled read agrees, whichever way it is answered *)
    let pair = chain_pair 0x5EEDL ~chain in
    List.iter
      (fun seed ->
        check Alcotest.bool (Printf.sprintf "chain %d seed %Ld agrees" chain seed) true
          (read_agrees ~env:Env.nominal pair ~challenge:enrolled.(chain) ~seed))
      seeds
  done;
  let chain = !widest and challenge = enrolled.(!widest) in
  let _, reference = chain_pair 0x5EEDL ~chain in
  List.iter
    (fun seed ->
      check Alcotest.bool
        (Printf.sprintf "chain %d challenge %d seed %Ld answers early" chain challenge seed)
        true
        (Reference.early ~env:Env.nominal reference ~challenge (Prng.create ~seed)))
    seeds

(* ------------------------------------------------------------------ *)
(* Environment model                                                   *)
(* ------------------------------------------------------------------ *)

let test_env_nominal_identity () =
  check (Alcotest.float 1e-9) "nominal scale is 1" 1.0 (Env.noise_scale Env.nominal);
  check (Alcotest.float 1e-9) "nominal drift is 0" 0.0 (Env.age_shift_ps Env.nominal)

let test_env_noise_grows_with_stress () =
  let scale name =
    match Env.of_name name with
    | Some env -> Env.noise_scale env
    | None -> Alcotest.fail ("unknown corner " ^ name)
  in
  check Alcotest.bool "cold > nominal" true (scale "cold" > scale "nominal");
  check Alcotest.bool "low voltage > nominal" true (scale "low-voltage" > scale "nominal");
  check Alcotest.bool "stress combines both" true
    (scale "cold-lowv" > scale "cold" && scale "cold-lowv" > scale "low-voltage");
  (* the acceptance criterion's >= 10x corner exists *)
  check Alcotest.bool "stress corner is >= 10x nominal" true
    (Env.noise_scale Env.stress >= 10.0)

let test_env_of_name_total () =
  List.iter
    (fun (name, env) ->
      match Env.of_name name with
      | Some env' ->
        check Alcotest.string "round-trips"
          (Format.asprintf "%a" Env.pp env)
          (Format.asprintf "%a" Env.pp env');
        check Alcotest.bool "name recovered" true (Env.name env' = Some name)
      | None -> Alcotest.fail ("corner list name not parsed: " ^ name))
    Env.corners;
  check Alcotest.bool "garbage refused" true (Env.of_name "volcano" = None)

let test_env_aging_shifts_responses () =
  (* Aging drifts delays, so an aged device must eventually disagree with
     its nominal self on some noiseless response; the same device queried
     twice at the same age must agree with itself. *)
  let d = Device.manufacture 321L in
  let aged = { Env.nominal with Env.age_years = 10.0 } in
  let ch = Device.challenge_set d in
  let later = Device.respond ~noisy:false ~env:aged d ch in
  let later' = Device.respond ~noisy:false ~env:aged d ch in
  check Alcotest.bool "aged responses deterministic" true (Eric_util.Bitvec.equal later later');
  (* Scan the full challenge space: a decade of drift must move at least
     one marginal response somewhere on the die.  Determinism makes this
     a fixed fact of device 321, not flaky. *)
  let disagreements = ref 0 in
  for chain = 0 to Device.chains d - 1 do
    for challenge = 0 to 255 do
      if
        Device.eval_chain ~noisy:false d ~chain ~challenge
        <> Device.eval_chain ~noisy:false ~env:aged d ~chain ~challenge
      then incr disagreements
    done
  done;
  check Alcotest.bool "a decade moves some marginal bit" true (!disagreements > 0)

(* ------------------------------------------------------------------ *)
(* Enrollment + helper data                                            *)
(* ------------------------------------------------------------------ *)

let enroll_ok ?config id =
  match Enroll.enroll ?config (Device.manufacture id) with
  | Ok e -> e
  | Error e -> Alcotest.fail (Printf.sprintf "device %Ld refused enrollment: %s" id e)

let test_enroll_deterministic () =
  let a = enroll_ok 900L and b = enroll_ok 900L in
  check Alcotest.string "same helper blob"
    (Eric_util.Bytesx.to_hex (Enroll.serialize a.Enroll.helper))
    (Eric_util.Bytesx.to_hex (Enroll.serialize b.Enroll.helper));
  check Alcotest.string "same key" (Eric_util.Bytesx.to_hex a.Enroll.key)
    (Eric_util.Bytesx.to_hex b.Enroll.key);
  check Alcotest.bool "enough chains kept" true
    (Enroll.kept_chains a.Enroll.helper >= Enroll.default_config.Enroll.min_chains)

let test_helper_serialize_roundtrip () =
  let e = enroll_ok 901L in
  let blob = Enroll.serialize e.Enroll.helper in
  match Enroll.parse blob with
  | Error err -> Alcotest.fail err
  | Ok h ->
    check Alcotest.string "round-trips byte-for-byte"
      (Eric_util.Bytesx.to_hex blob)
      (Eric_util.Bytesx.to_hex (Enroll.serialize h))

let test_helper_parse_rejects () =
  let e = enroll_ok 902L in
  let good = Enroll.serialize e.Enroll.helper in
  let expect_error what bytes =
    match Enroll.parse bytes with
    | Ok _ -> Alcotest.fail (what ^ " parsed")
    | Error _ -> ()
  in
  for len = 0 to min 64 (Bytes.length good - 1) do
    expect_error (Printf.sprintf "truncated to %d" len) (Bytes.sub good 0 len)
  done;
  let flip pos =
    let b = Bytes.copy good in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
    b
  in
  expect_error "bad magic" (flip 0);
  expect_error "bad version" (flip 4);
  expect_error "trailing garbage" (Bytes.cat good (Bytes.of_string "z"))

(* Recorded before the codecs moved onto one cursor. *)
let test_helper_pin () =
  check Alcotest.string "EHLP blob of device 0x5EED"
    "8c467e6190ea61bf31917040072997b9add905fe18137363d4b855ed5c9d5d80"
    (Eric_crypto.Sha256.hex
       (Eric_crypto.Sha256.digest (Enroll.serialize (enroll_ok 0x5EEDL).Enroll.helper)))

let helper_flips =
  let gen =
    QCheck.Gen.(
      map
        (fun ((chains_bits, rep, device_id), (challenge_seed, sketch_seed, tag)) ->
          let chains = Array.length chains_bits in
          let mask = Eric_util.Bitvec.of_bool_array chains_bits in
          let group = Eric_util.Bitvec.popcount mask * rep in
          let h =
            { Enroll.version = 1;
              device_id;
              chains;
              rep;
              mask;
              challenges = Array.init group (fun i -> (challenge_seed * (i + 7)) land 0xFFFF);
              sketch =
                Eric_util.Bitvec.of_bool_array
                  (Array.init group (fun i -> (sketch_seed lsr (i mod 30)) land 1 = 1));
              tag = Bytes.of_string tag }
          in
          ("random helper", Enroll.serialize h))
        (pair
           (triple (array_size (int_range 1 40) bool) (oneofl [ 1; 3; 5; 7; 9 ]) ui64)
           (triple nat nat (string_size (return 32)))))
  in
  Bit_flips.property ~name:"EHLP bit flips" ~random:6 ~gen
    ~corners:[ ("device 0x5EED", Enroll.serialize (enroll_ok 0x5EEDL).Enroll.helper) ]
    ~roundtrip:(fun b -> Result.to_option (Result.map Enroll.serialize (Enroll.parse b)))

(* ------------------------------------------------------------------ *)
(* Fuzzy extractor                                                     *)
(* ------------------------------------------------------------------ *)

let reconstruction_deterministic_prop =
  (* For any device, reconstruction at nominal returns exactly the
     enrolled key — never a different key, never a refusal. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"nominal reconstruction yields the enrolled key"
       QCheck.(int_range 1 10_000)
       (fun n ->
         let id = Int64.of_int (100_000 + n) in
         match Enroll.enroll (Device.manufacture id) with
         | Error _ -> QCheck.assume_fail () (* scrapped die: out of scope *)
         | Ok e -> (
           match Fuzzy.reconstruct (Device.manufacture id) e.Enroll.helper with
           | Error f -> QCheck.Test.fail_report (Fuzzy.failure_to_string f)
           | Ok r -> Bytes.equal r.Fuzzy.key e.Enroll.key)))

let test_fuzzy_wrong_device_refuses () =
  let e = enroll_ok 903L in
  match Fuzzy.reconstruct (Device.manufacture 904L) e.Enroll.helper with
  | Error (Fuzzy.Helper_mismatch _) -> ()
  | Error (Fuzzy.Exhausted _) -> Alcotest.fail "expected a structural mismatch"
  | Ok _ -> Alcotest.fail "another device's helper reconstructed a key"

let test_helper_tamper_never_yields_wrong_key () =
  (* The regression the tag exists for: flip any byte of the sketch or
     tag and reconstruction must either refuse (typed failure) or — if
     the flipped bit lands outside the decode path — still produce the
     one enrolled key.  A different key must never verify. *)
  let e = enroll_ok 905L in
  let d = Device.manufacture 905L in
  let h = e.Enroll.helper in
  let tampered_sketch =
    let s = Eric_util.Bitvec.to_bytes h.Enroll.sketch in
    Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) lxor 0x0F));
    { h with Enroll.sketch = Eric_util.Bitvec.of_bytes ~len:(Eric_util.Bitvec.length h.Enroll.sketch) s }
  in
  let tampered_tag =
    let t = Bytes.copy h.Enroll.tag in
    Bytes.set t 5 (Char.chr (Char.code (Bytes.get t 5) lxor 0x80));
    { h with Enroll.tag = t }
  in
  List.iter
    (fun (what, h') ->
      match Fuzzy.reconstruct d h' with
      | Error (Fuzzy.Exhausted _) -> () (* explicit refusal: the safe outcome *)
      | Error (Fuzzy.Helper_mismatch _) -> ()
      | Ok r ->
        check Alcotest.string (what ^ ": only the enrolled key may verify")
          (Eric_util.Bytesx.to_hex e.Enroll.key)
          (Eric_util.Bytesx.to_hex r.Fuzzy.key))
    [ ("sketch bits flipped", tampered_sketch); ("tag byte flipped", tampered_tag) ];
  (* the tag flip specifically must refuse: the decoded key is right but
     cannot reproduce a corrupted tag *)
  match Fuzzy.reconstruct d tampered_tag with
  | Error (Fuzzy.Exhausted { attempts }) ->
    check Alcotest.int "used every bounded attempt" Fuzzy.default_config.Fuzzy.attempts attempts
  | Error (Fuzzy.Helper_mismatch _) -> Alcotest.fail "tag flip is not structural"
  | Ok _ -> Alcotest.fail "corrupted tag verified"

let test_corner_sweep_kfr () =
  (* Nominal corner: both boot paths are error-free.  Stress corner
     (>= 10x noise): the fuzzy extractor still reconstructs every boot
     while the plain majority vote measurably fails — checked over a
     fixed population so the numbers are deterministic. *)
  let boots = 20 in
  let ids = List.init 4 (fun i -> Int64.of_int (950 + i)) in
  let run env =
    List.fold_left
      (fun (plain_fails, fuzzy_fails, wrong) id ->
        let d = Device.manufacture id in
        let e = enroll_ok id in
        let reference = Device.puf_key d in
        let rec go n ((p, f, w) as acc) =
          if n = 0 then acc
          else
            let p = if Bytes.equal (Device.puf_key ~env d) reference then p else p + 1 in
            let f, w =
              match Fuzzy.reconstruct ~env d e.Enroll.helper with
              | Ok r -> (f, if Bytes.equal r.Fuzzy.key e.Enroll.key then w else w + 1)
              | Error _ -> (f + 1, w)
            in
            go (n - 1) (p, f, w)
        in
        go boots (plain_fails, fuzzy_fails, wrong))
      (0, 0, 0) ids
  in
  let plain_nom, fuzzy_nom, wrong_nom = run Env.nominal in
  check Alcotest.int "nominal: plain kfr = 0" 0 plain_nom;
  check Alcotest.int "nominal: fuzzy kfr = 0" 0 fuzzy_nom;
  let plain_stress, fuzzy_stress, wrong_stress = run Env.stress in
  check Alcotest.bool "stress: plain majority measurably fails" true (plain_stress > 0);
  check Alcotest.int "stress: fuzzy extractor survives every boot" 0 fuzzy_stress;
  check Alcotest.int "no wrong key anywhere" 0 (wrong_nom + wrong_stress)

let test_metrics_quality () =
  let r = Metrics.evaluate ~devices:12 ~challenges_per_device:48 ~reeval:8 ~seed:2024L () in
  check Alcotest.bool "uniformity near 50%" true
    (r.Metrics.uniformity_pct > 40.0 && r.Metrics.uniformity_pct < 60.0);
  check Alcotest.bool "uniqueness near 50%" true
    (r.Metrics.uniqueness_pct > 40.0 && r.Metrics.uniqueness_pct < 60.0);
  check Alcotest.bool "reliability high" true (r.Metrics.reliability_pct > 95.0);
  check Alcotest.bool "keys regenerate" true (r.Metrics.key_failure_rate < 0.01)

let test_metrics_validation () =
  Alcotest.check_raises "needs 2 devices"
    (Invalid_argument "Metrics.evaluate: need at least two devices") (fun () ->
      ignore (Metrics.evaluate ~devices:1 ~seed:1L ()))

let () =
  Alcotest.run "eric_puf"
    [ ( "arbiter",
        [ Alcotest.test_case "deterministic" `Quick test_arbiter_deterministic;
          Alcotest.test_case "sign matches delay" `Quick test_arbiter_sign_matches_delay;
          Alcotest.test_case "challenge sensitivity" `Quick test_arbiter_challenge_sensitivity;
          Alcotest.test_case "stage validation" `Quick test_arbiter_stage_validation;
          test_reference_gaussian;
          test_reference_eval;
          Alcotest.test_case "reference chains" `Quick test_reference_chains;
          Alcotest.test_case "narrow reads run the race" `Quick test_exact_path;
          Alcotest.test_case "wide reads answer early" `Quick test_early_path ] );
      ( "device",
        [ Alcotest.test_case "table1 shape" `Quick test_device_table1_shape;
          Alcotest.test_case "reproducible" `Quick test_device_reproducible;
          Alcotest.test_case "unique" `Quick test_device_unique;
          Alcotest.test_case "key stable under noise" `Quick test_device_key_stable_under_noise;
          Alcotest.test_case "ideal response deterministic" `Quick
            test_device_noiseless_response_deterministic;
          Alcotest.test_case "respond arity" `Quick test_device_respond_arity;
          Alcotest.test_case "key pins" `Quick test_device_key_pins;
          Alcotest.test_case "sweep pin" `Quick test_device_sweep_pin ] );
      ( "env",
        [ Alcotest.test_case "nominal identity" `Quick test_env_nominal_identity;
          Alcotest.test_case "noise grows with stress" `Quick test_env_noise_grows_with_stress;
          Alcotest.test_case "of_name total" `Quick test_env_of_name_total;
          Alcotest.test_case "aging shifts responses" `Quick test_env_aging_shifts_responses ] );
      ( "enroll",
        [ Alcotest.test_case "deterministic" `Quick test_enroll_deterministic;
          Alcotest.test_case "helper round-trip" `Quick test_helper_serialize_roundtrip;
          Alcotest.test_case "parse rejects" `Quick test_helper_parse_rejects;
          Alcotest.test_case "byte pin" `Quick test_helper_pin;
          helper_flips ] );
      ( "fuzzy",
        [ reconstruction_deterministic_prop;
          Alcotest.test_case "wrong device refuses" `Quick test_fuzzy_wrong_device_refuses;
          Alcotest.test_case "tamper never yields wrong key" `Quick
            test_helper_tamper_never_yields_wrong_key;
          Alcotest.test_case "corner sweep kfr" `Slow test_corner_sweep_kfr ] );
      ( "metrics",
        [ Alcotest.test_case "population quality" `Slow test_metrics_quality;
          Alcotest.test_case "validation" `Quick test_metrics_validation ] ) ]
