(* Tests for the fleet subsystem: registry wire format (round-trip
   property + strict rejection), content-addressed artifact cache,
   retry/backoff shipping, deployment campaigns over hostile channels
   (nobody silently dropped), and key-rotation campaigns. *)

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let test_source =
  {|
int main() {
  int s = 0;
  for (int i = 1; i <= 16; i = i + 1) { s = s + i; }
  println_int(s);
  return 0;
}
|}

let enroll_fleet ?(start = 9_100) n =
  let reg = Eric_fleet.Registry.create () in
  for i = 0 to n - 1 do
    match Eric_fleet.Registry.enroll reg (Int64.of_int (start + i)) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  reg

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let p = Eric_fleet.Backoff.default in
  check Alcotest.int64 "retry 1 = base" p.Eric_fleet.Backoff.base_delay_ns
    (Eric_fleet.Backoff.delay_ns p ~retry:1);
  check Alcotest.int64 "retry 2 doubles"
    (Int64.mul 2L p.Eric_fleet.Backoff.base_delay_ns)
    (Eric_fleet.Backoff.delay_ns p ~retry:2);
  check Alcotest.int64 "far retry hits the cap" p.Eric_fleet.Backoff.max_delay_ns
    (Eric_fleet.Backoff.delay_ns p ~retry:40);
  check Alcotest.int64 "total = sum of delays"
    (Int64.add (Eric_fleet.Backoff.delay_ns p ~retry:1) (Eric_fleet.Backoff.delay_ns p ~retry:2))
    (Eric_fleet.Backoff.total_backoff_ns p ~retries:2)

let test_backoff_validate () =
  let bad p what =
    match Eric_fleet.Backoff.validate p with
    | Ok _ -> Alcotest.fail (what ^ " accepted")
    | Error _ -> ()
  in
  (match Eric_fleet.Backoff.validate Eric_fleet.Backoff.default with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  bad { Eric_fleet.Backoff.default with Eric_fleet.Backoff.max_attempts = 0 } "0 attempts";
  bad { Eric_fleet.Backoff.default with Eric_fleet.Backoff.multiplier = 0 } "0 multiplier";
  bad { Eric_fleet.Backoff.default with Eric_fleet.Backoff.base_delay_ns = -1L } "negative delay";
  bad
    { Eric_fleet.Backoff.default with Eric_fleet.Backoff.quarantine_refusals = 0 }
    "0 quarantine threshold"

(* ------------------------------------------------------------------ *)
(* Channels                                                            *)
(* ------------------------------------------------------------------ *)

let test_channel_plans () =
  let ch = Eric_fleet.Channel.drop_first 2 in
  (match Eric_fleet.Channel.attack ch ~device:1L ~attempt:1 with
  | Eric.Protocol.Bit_flips _ -> ()
  | _ -> Alcotest.fail "attempt 1 should be corrupted");
  (match Eric_fleet.Channel.attack ch ~device:1L ~attempt:3 with
  | Eric.Protocol.No_attack -> ()
  | _ -> Alcotest.fail "attempt 3 should be clean");
  (* flaky draws are a pure function of (seed, device, attempt) *)
  let f1 = Eric_fleet.Channel.flaky ~probability:0.5 ~seed:9L () in
  let f2 = Eric_fleet.Channel.flaky ~probability:0.5 ~seed:9L () in
  for device = 1 to 5 do
    for attempt = 1 to 5 do
      let device = Int64.of_int device in
      check Alcotest.bool "same plan" true
        (Eric_fleet.Channel.attack f1 ~device ~attempt
        = Eric_fleet.Channel.attack f2 ~device ~attempt)
    done
  done

let test_channel_of_string () =
  let ok s = match Eric_fleet.Channel.of_string s with Ok c -> c | Error e -> Alcotest.fail e in
  check Alcotest.string "clean" "clean" (Eric_fleet.Channel.name (ok "clean"));
  ignore (ok "drop-first:3");
  ignore (ok "flaky:0.4");
  ignore (ok "flaky:0.4:7");
  List.iter
    (fun s ->
      match Eric_fleet.Channel.of_string s with
      | Ok _ -> Alcotest.fail (s ^ " accepted")
      | Error _ -> ())
    [ "bogus"; "flaky:2.0"; "flaky:-1"; "drop-first:x"; "drop-first:-1"; "" ]

(* ------------------------------------------------------------------ *)
(* Registry wire format                                                *)
(* ------------------------------------------------------------------ *)

let helper_eq a b =
  match (a, b) with
  | None, None -> true
  | Some h, Some h' ->
    Bytes.equal (Eric_puf.Enroll.serialize h) (Eric_puf.Enroll.serialize h')
  | _ -> false

let entry_eq (a : Eric_fleet.Registry.entry) (b : Eric_fleet.Registry.entry) =
  Int64.equal a.Eric_fleet.Registry.device_id b.Eric_fleet.Registry.device_id
  && a.Eric_fleet.Registry.epoch = b.Eric_fleet.Registry.epoch
  && a.Eric_fleet.Registry.label = b.Eric_fleet.Registry.label
  && Bytes.equal a.Eric_fleet.Registry.key b.Eric_fleet.Registry.key
  && a.Eric_fleet.Registry.firmware_epoch = b.Eric_fleet.Registry.firmware_epoch
  && a.Eric_fleet.Registry.status = b.Eric_fleet.Registry.status
  && helper_eq a.Eric_fleet.Registry.helper b.Eric_fleet.Registry.helper
  && a.Eric_fleet.Registry.instability_ppm = b.Eric_fleet.Registry.instability_ppm

let registry_roundtrip_prop =
  (* Arbitrary entries (device id = index, so ids never collide) survive
     serialize/parse byte-for-byte. *)
  let entry_gen =
    QCheck.(
      list_of_size (Gen.int_range 0 8)
        (triple
           (pair small_nat small_printable_string)
           (pair (string_of_size (Gen.return 32)) small_nat)
           (pair (option small_printable_string) small_nat)))
  in
  qtest ~count:200 "registry round-trips" entry_gen (fun specs ->
      let reg = Eric_fleet.Registry.create () in
      List.iteri
        (fun i ((epoch, label), (key, firmware_epoch), (quarantine, instability_ppm)) ->
          let entry =
            {
              Eric_fleet.Registry.device_id = Int64.of_int i;
              epoch;
              label;
              key = Bytes.of_string key;
              firmware_epoch;
              status =
                (match quarantine with
                | None -> Eric_fleet.Registry.Active
                | Some reason -> Eric_fleet.Registry.Quarantined reason);
              helper = None;
              instability_ppm;
            }
          in
          match Eric_fleet.Registry.add reg entry with
          | Ok _ -> ()
          | Error e -> failwith e)
        specs;
      match Eric_fleet.Registry.parse (Eric_fleet.Registry.serialize reg) with
      | Error e -> QCheck.Test.fail_report e
      | Ok reg' ->
        List.length (Eric_fleet.Registry.entries reg') = List.length specs
        && List.for_all2 entry_eq (Eric_fleet.Registry.entries reg)
             (Eric_fleet.Registry.entries reg'))

let test_registry_parse_rejects () =
  let reg = enroll_fleet 3 in
  let good = Eric_fleet.Registry.serialize reg in
  let expect_error what bytes =
    match Eric_fleet.Registry.parse bytes with
    | Ok _ -> Alcotest.fail (what ^ " parsed")
    | Error _ -> ()
  in
  (match Eric_fleet.Registry.parse good with
  | Ok r -> check Alcotest.int "baseline parses" 3 (Eric_fleet.Registry.count r)
  | Error e -> Alcotest.fail e);
  (* truncation at every prefix length must fail, never crash *)
  for len = 0 to Bytes.length good - 1 do
    expect_error (Printf.sprintf "truncated to %d" len) (Bytes.sub good 0 len)
  done;
  let flip pos =
    let b = Bytes.copy good in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
    b
  in
  expect_error "bad magic" (flip 0);
  expect_error "bad version" (flip 4);
  expect_error "reserved set" (flip 6);
  expect_error "trailing byte" (Bytes.cat good (Bytes.of_string "x"));
  (* duplicate ids: double the first record and patch the count *)
  let one = Eric_fleet.Registry.create () in
  (match Eric_fleet.Registry.enroll one 42L with Ok _ -> () | Error e -> Alcotest.fail e);
  let b = Eric_fleet.Registry.serialize one in
  let record = Bytes.sub b 12 (Bytes.length b - 12) in
  let doubled = Bytes.cat b record in
  Eric_util.Bytesx.set_u32 doubled 8 2l;
  expect_error "duplicate device id" doubled

let test_registry_save_load () =
  let reg = enroll_fleet 4 in
  (match Eric_fleet.Registry.enroll reg 4242L with
  | Ok e ->
    Eric_fleet.Registry.update reg
      { e with Eric_fleet.Registry.status = Eric_fleet.Registry.Quarantined "test reason" }
  | Error e -> Alcotest.fail e);
  let path = Filename.temp_file "eric_fleet" ".efrg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Eric_fleet.Registry.save reg path;
      match Eric_fleet.Registry.load path with
      | Error e -> Alcotest.fail e
      | Ok reg' ->
        check Alcotest.int "count survives" 5 (Eric_fleet.Registry.count reg');
        check Alcotest.bool "entries survive" true
          (List.for_all2 entry_eq (Eric_fleet.Registry.entries reg)
             (Eric_fleet.Registry.entries reg'));
        check Alcotest.int "quarantine survives" 1
          (List.length (Eric_fleet.Registry.quarantined reg')));
  match Eric_fleet.Registry.load "/nonexistent/registry.efrg" with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error _ -> ()

let test_registry_enroll_rejects_duplicates () =
  let reg = enroll_fleet 2 in
  match Eric_fleet.Registry.enroll reg 9_100L with
  | Ok _ -> Alcotest.fail "duplicate enrolled"
  | Error _ -> check Alcotest.int "count unchanged" 2 (Eric_fleet.Registry.count reg)

let test_registry_helper_roundtrip () =
  (* Reliability-aware enrollment attaches helper data; the v2 wire
     format must carry it byte-for-byte, extractor tag included. *)
  let reg = enroll_fleet 2 in
  List.iter
    (fun (e : Eric_fleet.Registry.entry) ->
      check Alcotest.bool "enrollment produced helper data" true
        (e.Eric_fleet.Registry.helper <> None))
    (Eric_fleet.Registry.entries reg);
  match Eric_fleet.Registry.parse (Eric_fleet.Registry.serialize reg) with
  | Error e -> Alcotest.fail e
  | Ok reg' ->
    check Alcotest.bool "helpers survive the round-trip" true
      (List.for_all2 entry_eq (Eric_fleet.Registry.entries reg)
         (Eric_fleet.Registry.entries reg'))

let test_registry_v1_compat () =
  (* A hand-built version-1 file (no helper section) must still parse,
     landing as a legacy entry: no helper, zero instability. *)
  let buf = Buffer.create 64 in
  let u16 v =
    Buffer.add_char buf (Char.chr (v land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))
  in
  let u32 v = u16 (v land 0xFFFF); u16 ((v lsr 16) land 0xFFFF) in
  Buffer.add_string buf "EFRG";
  u16 1 (* version *);
  u16 0 (* reserved *);
  u32 1 (* count *);
  Buffer.add_string buf "\x2A\x00\x00\x00\x00\x00\x00\x00" (* device id 42 *);
  u32 3 (* epoch *);
  u32 7 (* firmware epoch *);
  u16 4;
  Buffer.add_string buf "eric" (* label *);
  u16 4;
  Buffer.add_string buf "KEY!" (* key *);
  Buffer.add_char buf '\000' (* active *);
  match Eric_fleet.Registry.parse (Buffer.to_bytes buf) with
  | Error e -> Alcotest.fail ("v1 registry refused: " ^ e)
  | Ok reg ->
    let e = List.hd (Eric_fleet.Registry.entries reg) in
    check Alcotest.int64 "device id" 42L e.Eric_fleet.Registry.device_id;
    check Alcotest.int "epoch" 3 e.Eric_fleet.Registry.epoch;
    check Alcotest.bool "legacy entry has no helper" true
      (e.Eric_fleet.Registry.helper = None);
    check Alcotest.int "legacy instability is zero" 0 e.Eric_fleet.Registry.instability_ppm;
    (* re-serializing writes version 2; the upgrade must round-trip *)
    (match Eric_fleet.Registry.parse (Eric_fleet.Registry.serialize reg) with
    | Error e -> Alcotest.fail ("re-serialized v1 refused: " ^ e)
    | Ok reg' ->
      check Alcotest.bool "v1 -> v2 rewrite round-trips" true
        (List.for_all2 entry_eq (Eric_fleet.Registry.entries reg)
           (Eric_fleet.Registry.entries reg')))

(* ------------------------------------------------------------------ *)
(* Artifact cache                                                      *)
(* ------------------------------------------------------------------ *)

let test_cache_memory_tier () =
  let cache = Eric_fleet.Artifact_cache.create () in
  let get () =
    match Eric_fleet.Artifact_cache.get_or_compile cache ~mode:Eric.Config.Full test_source with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let p1, o1 = get () in
  check Alcotest.bool "first is a miss" true (o1 = Eric_fleet.Artifact_cache.Miss);
  let p2, o2 = get () in
  check Alcotest.bool "second is a hit" true (o2 = Eric_fleet.Artifact_cache.Memory_hit);
  check Alcotest.bool "hit returns the same prepared build" true (p1 == p2);
  check Alcotest.int "hit count" 1 (Eric_fleet.Artifact_cache.hits cache);
  check Alcotest.int "miss count" 1 (Eric_fleet.Artifact_cache.misses cache)

let test_cache_disk_tier () =
  let dir = Filename.temp_file "eric_cache" "" in
  Sys.remove dir;
  let get cache =
    match Eric_fleet.Artifact_cache.get_or_compile cache ~mode:Eric.Config.Full test_source with
    | Ok (_, o) -> o
    | Error e -> Alcotest.fail e
  in
  let c1 = Eric_fleet.Artifact_cache.create ~dir () in
  check Alcotest.bool "cold process misses" true (get c1 = Eric_fleet.Artifact_cache.Miss);
  (* a second process (fresh memory tier) finds the compiled image on disk *)
  let c2 = Eric_fleet.Artifact_cache.create ~dir () in
  check Alcotest.bool "warm process hits disk" true (get c2 = Eric_fleet.Artifact_cache.Disk_hit);
  check Alcotest.bool "then memory" true (get c2 = Eric_fleet.Artifact_cache.Memory_hit);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_cache_key_sensitivity () =
  let d ?(options = Eric_cc.Driver.default_options) ?(mode = Eric.Config.Full) src =
    Eric_fleet.Artifact_cache.digest ~options ~mode src
  in
  let base = d test_source in
  check Alcotest.string "deterministic" base (d test_source);
  check Alcotest.bool "source text in key" true (base <> d (test_source ^ " "));
  check Alcotest.bool "options in key" true
    (base
    <> d ~options:{ Eric_cc.Driver.default_options with Eric_cc.Driver.optimize = false }
         test_source);
  check Alcotest.bool "mode in key" true
    (base <> d ~mode:(Eric.Config.Partial Eric.Config.Select_all) test_source);
  check Alcotest.bool "selection seed in key" true
    (d ~mode:(Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 1L }))
       test_source
    <> d
         ~mode:(Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 2L }))
         test_source)

(* ------------------------------------------------------------------ *)
(* Personalize = build                                                 *)
(* ------------------------------------------------------------------ *)

let test_personalize_equals_build () =
  (* The split pipeline (prepare once, personalize per key) must produce
     byte-identical packages to the monolithic Source.build. *)
  let key = Eric.Target.derived_key (Eric.Target.of_id 5005L) in
  List.iter
    (fun mode ->
      let direct =
        match Eric.Source.build ~mode ~key test_source with
        | Ok b -> b
        | Error e -> Alcotest.fail e
      in
      let split =
        match Eric.Source.prepare ~mode test_source with
        | Ok p -> Eric.Source.personalize ~key p
        | Error e -> Alcotest.fail e
      in
      check Alcotest.string "identical package bytes"
        (Eric_util.Bytesx.to_hex (Eric.Package.serialize direct.Eric.Source.package))
        (Eric_util.Bytesx.to_hex (Eric.Package.serialize split.Eric.Source.package)))
    [ Eric.Config.Full;
      Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 3L });
      Eric.Config.Field (Eric.Config.Imm_fields, Eric.Config.Select_all) ]

(* ------------------------------------------------------------------ *)
(* Shipper                                                             *)
(* ------------------------------------------------------------------ *)

let ship_one ?policy ?channel reg =
  let entry = List.hd (Eric_fleet.Registry.entries reg) in
  let build =
    match Eric.Source.prepare ~mode:Eric.Config.Full test_source with
    | Ok p -> Eric.Source.personalize ~key:entry.Eric_fleet.Registry.key p
    | Error e -> Alcotest.fail e
  in
  Eric_fleet.Shipper.ship ?policy ?channel ~build ~target:(Eric_fleet.Registry.target reg entry) ()

let test_shipper_clean_delivery () =
  let d = ship_one (enroll_fleet 1) in
  check Alcotest.bool "delivered" true (Eric_fleet.Shipper.delivered d);
  check Alcotest.bool "not retried" false (Eric_fleet.Shipper.retried d);
  check Alcotest.int "one attempt" 1 d.Eric_fleet.Shipper.attempts;
  check Alcotest.int64 "no backoff" 0L d.Eric_fleet.Shipper.backoff_ns

let test_shipper_retry_recovers () =
  let d = ship_one ~channel:(Eric_fleet.Channel.drop_first 2) (enroll_fleet 1) in
  check Alcotest.bool "delivered" true (Eric_fleet.Shipper.delivered d);
  check Alcotest.bool "retried" true (Eric_fleet.Shipper.retried d);
  check Alcotest.int "three attempts" 3 d.Eric_fleet.Shipper.attempts;
  check Alcotest.int "two refusals" 2 (List.length d.Eric_fleet.Shipper.refusals);
  check Alcotest.int64 "backoff = delay(1)+delay(2)"
    (Eric_fleet.Backoff.total_backoff_ns Eric_fleet.Backoff.default ~retries:2)
    d.Eric_fleet.Shipper.backoff_ns

let test_shipper_exhaustion_quarantines () =
  let d =
    ship_one ~channel:(Eric_fleet.Channel.always (Eric.Protocol.Truncate 10)) (enroll_fleet 1)
  in
  (match d.Eric_fleet.Shipper.outcome with
  | Eric_fleet.Shipper.Quarantined _ -> ()
  | Eric_fleet.Shipper.Delivered _ -> Alcotest.fail "truncated channel delivered");
  check Alcotest.int "used every attempt"
    Eric_fleet.Backoff.default.Eric_fleet.Backoff.max_attempts d.Eric_fleet.Shipper.attempts

let test_shipper_signature_refusals_quarantine () =
  (* A package whose embedded signature is corrupted decrypts and frames
     fine but fails HDE validation every time; the shipper must trip the
     quarantine threshold instead of burning every attempt. *)
  let reg = enroll_fleet 1 in
  let entry = List.hd (Eric_fleet.Registry.entries reg) in
  let build =
    match Eric.Source.prepare ~mode:Eric.Config.Full test_source with
    | Ok p ->
      let b = Eric.Source.personalize ~key:entry.Eric_fleet.Registry.key p in
      let pkg = b.Eric.Source.package in
      let sig' = Bytes.copy pkg.Eric.Package.enc_signature in
      Bytes.set sig' 0 (Char.chr (Char.code (Bytes.get sig' 0) lxor 1));
      { b with Eric.Source.package = { pkg with Eric.Package.enc_signature = sig' } }
    | Error e -> Alcotest.fail e
  in
  let policy = { Eric_fleet.Backoff.default with Eric_fleet.Backoff.max_attempts = 10 } in
  let d =
    Eric_fleet.Shipper.ship ~policy ~build ~target:(Eric_fleet.Registry.target reg entry) ()
  in
  match d.Eric_fleet.Shipper.outcome with
  | Eric_fleet.Shipper.Quarantined { reason } ->
    check Alcotest.int "stopped at the refusal threshold"
      policy.Eric_fleet.Backoff.quarantine_refusals d.Eric_fleet.Shipper.attempts;
    (match reason with
    | Eric_fleet.Shipper.Signature_refusals n ->
      check Alcotest.int "typed reason counts the refusals"
        policy.Eric_fleet.Backoff.quarantine_refusals n
    | Eric_fleet.Shipper.Key_reconstruction_failed | Eric_fleet.Shipper.Exhausted _
    | Eric_fleet.Shipper.Integrity_faults _ ->
      Alcotest.fail "wrong quarantine reason")
  | Eric_fleet.Shipper.Delivered _ -> Alcotest.fail "foreign-keyed package delivered"

let guarded_fleet n =
  let reg = enroll_fleet n in
  Eric_fleet.Registry.set_hde reg
    { Eric_hw.Hde.default_config with
      Eric_hw.Hde.guard = Eric_hw.Guard.fetch_and_scrub ~interval_cycles:256 };
  reg

(* Flip one text bit between load and run: the resident image diverges
   from the digests the guard enrolled at HDE load time. *)
let flip_text ~attempt:_ memory (_ : Eric_rv.Program.t) =
  let addr = Eric_rv.Program.Layout.text_base + 4 in
  Eric_sim.Memory.write_u8 memory addr (Eric_sim.Memory.read_u8 memory addr lxor 0x10)

let test_shipper_integrity_retry_recovers () =
  let reg = guarded_fleet 1 in
  let entry = List.hd (Eric_fleet.Registry.entries reg) in
  let build =
    match Eric.Source.prepare ~mode:Eric.Config.Full test_source with
    | Ok p -> Eric.Source.personalize ~key:entry.Eric_fleet.Registry.key p
    | Error e -> Alcotest.fail e
  in
  let target = Eric_fleet.Registry.target reg entry in
  let soft_errors ~attempt memory image =
    if attempt = 1 then flip_text ~attempt memory image
  in
  let d = Eric_fleet.Shipper.ship ~execute:true ~soft_errors ~build ~target () in
  check Alcotest.bool "re-delivery recovered the device" true
    (Eric_fleet.Shipper.delivered d);
  check Alcotest.int "first execution guard-faulted" 1
    d.Eric_fleet.Shipper.integrity_faults;
  check Alcotest.int "one retry" 2 d.Eric_fleet.Shipper.attempts;
  check Alcotest.bool "backoff charged for the integrity retry" true
    (d.Eric_fleet.Shipper.backoff_ns > 0L);
  (match d.Eric_fleet.Shipper.outcome with
  | Eric_fleet.Shipper.Delivered { exec = Some r; _ } ->
    check Alcotest.bool "clean re-run completed" true
      (r.Eric_sim.Soc.status = Eric_sim.Cpu.Exited 0)
  | _ -> Alcotest.fail "expected a Delivered outcome with an execution");
  check Alcotest.bool "device health restored" true
    (Eric.Target.health target = Eric.Target.Healthy)

let test_shipper_integrity_quarantine () =
  (* persistent corruption: every re-delivery faults again, so the
     shipper must give up with the typed reason, not burn all attempts *)
  let reg = guarded_fleet 1 in
  let entry = List.hd (Eric_fleet.Registry.entries reg) in
  let build =
    match Eric.Source.prepare ~mode:Eric.Config.Full test_source with
    | Ok p -> Eric.Source.personalize ~key:entry.Eric_fleet.Registry.key p
    | Error e -> Alcotest.fail e
  in
  let target = Eric_fleet.Registry.target reg entry in
  let policy = { Eric_fleet.Backoff.default with Eric_fleet.Backoff.max_attempts = 10 } in
  let d =
    Eric_fleet.Shipper.ship ~policy ~execute:true ~soft_errors:flip_text ~build ~target ()
  in
  (match d.Eric_fleet.Shipper.outcome with
  | Eric_fleet.Shipper.Quarantined { reason = Eric_fleet.Shipper.Integrity_faults n } ->
    check Alcotest.int "faulted to the threshold"
      policy.Eric_fleet.Backoff.quarantine_refusals n;
    check Alcotest.string "stable registry label"
      (Printf.sprintf "%d integrity faults" n)
      (Eric_fleet.Shipper.quarantine_label
         (Eric_fleet.Shipper.Integrity_faults n))
  | _ -> Alcotest.fail "expected an Integrity_faults quarantine");
  check Alcotest.int "counted every faulted run"
    policy.Eric_fleet.Backoff.quarantine_refusals d.Eric_fleet.Shipper.integrity_faults;
  match Eric.Target.health target with
  | Eric.Target.Integrity_faulted _ -> ()
  | Eric.Target.Healthy -> Alcotest.fail "quarantined device reports Healthy"

let test_shipper_unguarded_executes_corrupted () =
  (* the negative control: without a guard the same flip runs to
     completion (or machine-traps) and the shipper sees no integrity
     fault — this is exactly the exposure the guard exists to close *)
  let reg = enroll_fleet 1 in
  let entry = List.hd (Eric_fleet.Registry.entries reg) in
  let build =
    match Eric.Source.prepare ~mode:Eric.Config.Full test_source with
    | Ok p -> Eric.Source.personalize ~key:entry.Eric_fleet.Registry.key p
    | Error e -> Alcotest.fail e
  in
  let d =
    Eric_fleet.Shipper.ship ~execute:true ~soft_errors:flip_text ~build
      ~target:(Eric_fleet.Registry.target reg entry) ()
  in
  check Alcotest.bool "delivered without noticing" true (Eric_fleet.Shipper.delivered d);
  check Alcotest.int "no integrity faults recorded" 0
    d.Eric_fleet.Shipper.integrity_faults;
  match d.Eric_fleet.Shipper.outcome with
  | Eric_fleet.Shipper.Delivered { exec = Some r; _ } ->
    check Alcotest.bool "corrupted run not an Integrity_fault" true
      (match r.Eric_sim.Soc.status with
      | Eric_sim.Cpu.Integrity_fault _ -> false
      | _ -> true)
  | _ -> Alcotest.fail "expected a Delivered outcome with an execution"

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let deploy ?config ~cache reg =
  match Eric_fleet.Campaign.deploy ?config ~cache ~registry:reg test_source with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_campaign_happy_path () =
  let reg = enroll_fleet 6 in
  let cache = Eric_fleet.Artifact_cache.create () in
  let r = deploy ~cache reg in
  check Alcotest.int "all delivered" 6 r.Eric_fleet.Campaign.delivered;
  check Alcotest.int "none quarantined" 0 r.Eric_fleet.Campaign.quarantined;
  check Alcotest.bool "all accounted" true (Eric_fleet.Campaign.all_accounted r);
  check Alcotest.bool "compiled fresh" true
    (r.Eric_fleet.Campaign.cache = Eric_fleet.Artifact_cache.Miss);
  List.iter
    (fun e -> check Alcotest.int "firmware stamped" 1 e.Eric_fleet.Registry.firmware_epoch)
    (Eric_fleet.Registry.entries reg);
  (* second campaign: cache hit, firmware bumps again *)
  let r2 = deploy ~cache reg in
  check Alcotest.bool "second campaign hits cache" true
    (r2.Eric_fleet.Campaign.cache = Eric_fleet.Artifact_cache.Memory_hit);
  check Alcotest.int "fresh epoch" 2 r2.Eric_fleet.Campaign.firmware_epoch

let test_campaign_executes_when_asked () =
  let reg = enroll_fleet 2 in
  let cache = Eric_fleet.Artifact_cache.create () in
  let config = { Eric_fleet.Campaign.default_config with Eric_fleet.Campaign.execute = true } in
  let r = deploy ~config ~cache reg in
  check Alcotest.int "all delivered" 2 r.Eric_fleet.Campaign.delivered;
  List.iter
    (fun (_, result) ->
      match result with
      | Eric_fleet.Campaign.Shipped
          { Eric_fleet.Shipper.outcome = Eric_fleet.Shipper.Delivered { exec = Some res; _ }; _ }
        ->
        check Alcotest.string "program ran" "136\n" res.Eric_sim.Soc.output
      | _ -> Alcotest.fail "expected an executed delivery")
    r.Eric_fleet.Campaign.devices

let test_campaign_hostile_channel_no_silent_drops () =
  let reg = enroll_fleet 5 in
  let cache = Eric_fleet.Artifact_cache.create () in
  let config =
    { Eric_fleet.Campaign.default_config with
      Eric_fleet.Campaign.channel = Eric_fleet.Channel.always (Eric.Protocol.Truncate 16) }
  in
  let r = deploy ~config ~cache reg in
  check Alcotest.int "nothing delivered" 0 r.Eric_fleet.Campaign.delivered;
  check Alcotest.int "everyone explicitly quarantined" 5 r.Eric_fleet.Campaign.quarantined;
  check Alcotest.bool "all accounted" true (Eric_fleet.Campaign.all_accounted r);
  check Alcotest.int "registry flags them" 5
    (List.length (Eric_fleet.Registry.quarantined reg));
  (* the next campaign skips quarantined devices but still reports them *)
  let r2 = deploy ~cache reg in
  check Alcotest.int "skipped, not dropped" 5 r2.Eric_fleet.Campaign.skipped;
  check Alcotest.bool "still all accounted" true (Eric_fleet.Campaign.all_accounted r2)

let test_campaign_retry_recovers_everyone () =
  let reg = enroll_fleet 8 in
  let cache = Eric_fleet.Artifact_cache.create () in
  let config =
    { Eric_fleet.Campaign.default_config with
      Eric_fleet.Campaign.channel = Eric_fleet.Channel.drop_first 1 }
  in
  let r = deploy ~config ~cache reg in
  check Alcotest.int "all delivered" 8 r.Eric_fleet.Campaign.delivered;
  check Alcotest.int "all after retry" 8 r.Eric_fleet.Campaign.retried;
  check Alcotest.bool "backoff accounted" true (r.Eric_fleet.Campaign.backoff_ns > 0L)

(* ------------------------------------------------------------------ *)
(* Rotation                                                            *)
(* ------------------------------------------------------------------ *)

let test_rotation_rekeys_and_reactivates () =
  let reg = enroll_fleet 4 in
  let cache = Eric_fleet.Artifact_cache.create () in
  let old_keys =
    List.map (fun e -> Bytes.copy e.Eric_fleet.Registry.key) (Eric_fleet.Registry.entries reg)
  in
  (* quarantine one device, then rotate *)
  (let e = List.hd (Eric_fleet.Registry.entries reg) in
   Eric_fleet.Registry.update reg
     { e with Eric_fleet.Registry.status = Eric_fleet.Registry.Quarantined "flaky link" });
  let report = Eric_fleet.Rotation.rotate ~epoch:7 reg in
  check Alcotest.int "all rotated" 4 report.Eric_fleet.Rotation.rotated;
  check Alcotest.int "quarantined reactivated" 1 report.Eric_fleet.Rotation.reactivated;
  check Alcotest.int "none failed" 0 (List.length report.Eric_fleet.Rotation.failed);
  List.iter2
    (fun old e ->
      check Alcotest.int "epoch bumped" 7 e.Eric_fleet.Registry.epoch;
      check Alcotest.bool "key changed" false (Bytes.equal old e.Eric_fleet.Registry.key);
      check Alcotest.bool "active again" true
        (e.Eric_fleet.Registry.status = Eric_fleet.Registry.Active))
    old_keys (Eric_fleet.Registry.entries reg);
  (* redeploy after rotation: same plaintext, so the artifact cache still
     hits — re-encryption without recompilation *)
  let r1 = deploy ~cache reg in
  check Alcotest.int "redeploy delivers" 4 r1.Eric_fleet.Campaign.delivered;
  let r2 = deploy ~cache reg in
  check Alcotest.bool "no recompile after rotation" true
    (r2.Eric_fleet.Campaign.cache = Eric_fleet.Artifact_cache.Memory_hit)

let test_rotation_revokes_old_packages () =
  let reg = enroll_fleet 1 in
  let entry = List.hd (Eric_fleet.Registry.entries reg) in
  let old_build =
    match Eric.Source.prepare ~mode:Eric.Config.Full test_source with
    | Ok p -> Eric.Source.personalize ~key:entry.Eric_fleet.Registry.key p
    | Error e -> Alcotest.fail e
  in
  ignore (Eric_fleet.Rotation.rotate ~epoch:2 reg);
  let entry' = List.hd (Eric_fleet.Registry.entries reg) in
  let d =
    Eric_fleet.Shipper.ship ~build:old_build ~target:(Eric_fleet.Registry.target reg entry') ()
  in
  match d.Eric_fleet.Shipper.outcome with
  | Eric_fleet.Shipper.Quarantined _ -> ()
  | Eric_fleet.Shipper.Delivered _ -> Alcotest.fail "pre-rotation package still accepted"

(* The source key is a pure function of (bits, seed): generate it once
   for every RSA rotation in this suite. *)
let rsa_384 = lazy (Eric_fleet.Rotation.rsa ~bits:384 ~seed:404L)

let test_rotation_rsa_in_band () =
  let reg = enroll_fleet 2 in
  let report =
    Eric_fleet.Rotation.rotate
      ~method_:(Lazy.force rsa_384)
      ~epoch:3 reg
  in
  check Alcotest.int "all rotated over RSA" 2 report.Eric_fleet.Rotation.rotated;
  check Alcotest.int "none failed" 0 (List.length report.Eric_fleet.Rotation.failed);
  (* the in-band recovered keys must actually work *)
  let cache = Eric_fleet.Artifact_cache.create () in
  let r = deploy ~cache reg in
  check Alcotest.int "campaign under RSA-provisioned keys" 2 r.Eric_fleet.Campaign.delivered

(* ------------------------------------------------------------------ *)
(* Key-reconstruction failure and re-enrollment                        *)
(* ------------------------------------------------------------------ *)

let tamper_helper (h : Eric_puf.Enroll.helper) =
  (* Flip one tag byte: reconstruction decodes the right key but the
     integrity check refuses it, so every boot fails explicitly. *)
  let tag = Bytes.copy h.Eric_puf.Enroll.tag in
  Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
  { h with Eric_puf.Enroll.tag }

let tamper_entry reg (entry : Eric_fleet.Registry.entry) =
  match entry.Eric_fleet.Registry.helper with
  | None -> Alcotest.fail "expected helper data"
  | Some h ->
    let entry' =
      { entry with Eric_fleet.Registry.helper = Some (tamper_helper h) }
    in
    Eric_fleet.Registry.update reg entry';
    entry'

let test_shipper_key_reconstruction_quarantine () =
  (* A device whose helper data no longer reconstructs a key must be
     quarantined immediately and with a reason distinct from repeated
     signature refusals: no signed package can ever land, so burning
     attempts is pointless. *)
  let reg = enroll_fleet 1 in
  let entry = tamper_entry reg (List.hd (Eric_fleet.Registry.entries reg)) in
  let build =
    match Eric.Source.prepare ~mode:Eric.Config.Full test_source with
    | Ok p -> Eric.Source.personalize ~key:entry.Eric_fleet.Registry.key p
    | Error e -> Alcotest.fail e
  in
  let d =
    Eric_fleet.Shipper.ship ~build ~target:(Eric_fleet.Registry.target reg entry) ()
  in
  match d.Eric_fleet.Shipper.outcome with
  | Eric_fleet.Shipper.Quarantined { reason } ->
    (match reason with
    | Eric_fleet.Shipper.Key_reconstruction_failed -> ()
    | Eric_fleet.Shipper.Signature_refusals _ | Eric_fleet.Shipper.Exhausted _
    | Eric_fleet.Shipper.Integrity_faults _ ->
      Alcotest.fail "expected the key-reconstruction quarantine reason");
    check Alcotest.string "stable registry label" "key reconstruction failed"
      (Eric_fleet.Shipper.quarantine_label reason);
    check Alcotest.int "no attempts wasted" 1 d.Eric_fleet.Shipper.attempts
  | Eric_fleet.Shipper.Delivered _ -> Alcotest.fail "keyless target accepted a package"

let test_rotation_keyless_device_fails_alone () =
  (* A device whose helper data no longer reconstructs a key cannot hand
     one over: it fails its own rotation, and the rest of the fleet
     still rotates. *)
  let reg = enroll_fleet ~start:9_400 4 in
  let victim = tamper_entry reg (List.nth (Eric_fleet.Registry.entries reg) 2) in
  let report = Eric_fleet.Rotation.rotate ~epoch:5 reg in
  check Alcotest.int "three rotated" 3 report.Eric_fleet.Rotation.rotated;
  check
    Alcotest.(list int64)
    "victim listed as failed" [ victim.Eric_fleet.Registry.device_id ]
    (List.map fst report.Eric_fleet.Rotation.failed);
  List.iter
    (fun (e : Eric_fleet.Registry.entry) ->
      if Int64.equal e.Eric_fleet.Registry.device_id victim.Eric_fleet.Registry.device_id
      then check Alcotest.bool "victim entry unchanged" true (entry_eq e victim)
      else check Alcotest.int "others at the new epoch" 5 e.Eric_fleet.Registry.epoch)
    (Eric_fleet.Registry.entries reg)

let test_reenroll_campaign () =
  let reg = enroll_fleet 3 in
  (* device 1: healthy.  device 2: tampered helper + the quarantine the
     shipper would have applied.  device 3 stays healthy; plus one legacy
     entry without helper data that must be upgraded. *)
  let victim = List.nth (Eric_fleet.Registry.entries reg) 1 in
  let victim' = tamper_entry reg victim in
  Eric_fleet.Registry.update reg
    { victim' with
      Eric_fleet.Registry.status =
        Eric_fleet.Registry.Quarantined "key reconstruction failed" };
  (match
     Eric_fleet.Registry.add reg
       {
         Eric_fleet.Registry.device_id = 9_300L;
         epoch = 0;
         label = "eric";
         key = Bytes.make 32 'x';
         firmware_epoch = 0;
         status = Eric_fleet.Registry.Active;
         helper = None;
         instability_ppm = 0;
       }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let report = Eric_fleet.Reenroll.run reg in
  check Alcotest.int "surveyed everyone" 4 report.Eric_fleet.Reenroll.surveyed;
  check Alcotest.int "two healthy" 2 report.Eric_fleet.Reenroll.healthy;
  check Alcotest.int "quarantined device re-enrolled" 1
    report.Eric_fleet.Reenroll.reenrolled;
  check Alcotest.int "legacy entry upgraded" 1 report.Eric_fleet.Reenroll.upgraded;
  check Alcotest.int "quarantine lifted" 1 report.Eric_fleet.Reenroll.reactivated;
  check Alcotest.int "nobody failed" 0 (List.length report.Eric_fleet.Reenroll.failed);
  check Alcotest.bool "all accounted" true (Eric_fleet.Reenroll.all_accounted report);
  List.iter
    (fun (e : Eric_fleet.Registry.entry) ->
      check Alcotest.bool "every entry now boots via helper" true
        (e.Eric_fleet.Registry.helper <> None);
      check Alcotest.bool "every entry active" true
        (e.Eric_fleet.Registry.status = Eric_fleet.Registry.Active))
    (Eric_fleet.Registry.entries reg);
  (* the repaired fleet must actually take a deployment *)
  let cache = Eric_fleet.Artifact_cache.create () in
  let r = deploy ~cache reg in
  check Alcotest.int "repaired fleet takes a campaign" 4 r.Eric_fleet.Campaign.delivered

(* ------------------------------------------------------------------ *)
(* Sharded registry                                                    *)
(* ------------------------------------------------------------------ *)

module Shard = Eric_fleet.Registry_shard

let with_temp_dir f =
  let dir = Filename.temp_file "eric_shards" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let by_id entries =
  List.sort
    (fun (a : Eric_fleet.Registry.entry) (b : Eric_fleet.Registry.entry) ->
      Int64.compare a.Eric_fleet.Registry.device_id b.Eric_fleet.Registry.device_id)
    entries

let shard_mapping_prop =
  qtest ~count:500 "shard mapping is pure and in range"
    QCheck.(pair (int_range 1 64) int64)
    (fun (shards, id) ->
      let s = Shard.shard_of ~shards id in
      s >= 0 && s < shards && s = Shard.shard_of ~shards id)

let test_shard_mapping_golden () =
  (* Recorded from the original mapping: devices live in the shard file
     [shard_of] names, so a changed mapping strands every existing
     sharded registry. *)
  List.iter
    (fun (id, expected) ->
      List.iteri
        (fun k shards ->
          check Alcotest.int
            (Printf.sprintf "device %Ld over %d shard(s)" id shards)
            expected.(k) (Shard.shard_of ~shards id))
        [ 1; 4; 16; 64 ])
    [ (1L, [| 0; 1; 5; 37 |]);
      (7L, [| 0; 0; 4; 20 |]);
      (42L, [| 0; 2; 2; 34 |]);
      (100L, [| 0; 0; 4; 52 |]);
      (9_000L, [| 0; 0; 8; 8 |]);
      (1_000_000L, [| 0; 2; 6; 22 |]);
      (0xDEAD_BEEF_CAFEL, [| 0; 1; 1; 17 |]);
      (-1L, [| 0; 3; 11; 59 |]) ]

let shard_equivalence_prop =
  (* An on-disk store is observably equivalent to the in-memory registry
     it was built from: same count, same entries (merged back), and every
     id resolves to a byte-identical entry through the store — including
     after a cold reopen from disk.  Both layouts: an N-shard directory,
     and a plain file saved from the registry (the one-shard case). *)
  let entry_gen =
    QCheck.(
      pair (int_range 1 9)
        (list_of_size (Gen.int_range 0 10)
           (triple
              (pair small_nat small_printable_string)
              (pair (string_of_size (Gen.return 32)) small_nat)
              (pair (option small_printable_string) small_nat))))
  in
  qtest ~count:60 "N shards = one registry" QCheck.(pair bool entry_gen)
    (fun (as_file, (shards, specs)) ->
      let reg = Eric_fleet.Registry.create () in
      List.iteri
        (fun i ((epoch, label), (key, firmware_epoch), (quarantine, instability_ppm)) ->
          let entry =
            {
              Eric_fleet.Registry.device_id = Int64.of_int i;
              epoch;
              label;
              key = Bytes.of_string key;
              firmware_epoch;
              status =
                (match quarantine with
                | None -> Eric_fleet.Registry.Active
                | Some reason -> Eric_fleet.Registry.Quarantined reason);
              helper = None;
              instability_ppm;
            }
          in
          match Eric_fleet.Registry.add reg entry with
          | Ok _ -> ()
          | Error e -> failwith e)
        specs;
      let merged_eq sh =
        match Shard.to_registry sh with
        | Error e -> QCheck.Test.fail_report e
        | Ok merged ->
          Eric_fleet.Registry.count merged = Eric_fleet.Registry.count reg
          && List.for_all2 entry_eq
               (by_id (Eric_fleet.Registry.entries reg))
               (by_id (Eric_fleet.Registry.entries merged))
      in
      let finds_eq sh =
        List.for_all
          (fun (e : Eric_fleet.Registry.entry) ->
            match Shard.find sh e.Eric_fleet.Registry.device_id with
            | Ok (Some e') -> entry_eq e e'
            | Ok None | Error _ -> false)
          (Eric_fleet.Registry.entries reg)
      in
      let equivalent path = function
        | Error e -> QCheck.Test.fail_report e
        | Ok sh -> (
          let reopened =
            match Shard.load path with
            | Error e -> QCheck.Test.fail_report e
            | Ok sh2 ->
              Shard.count sh2 = Eric_fleet.Registry.count reg
              && merged_eq sh2 && finds_eq sh2
          in
          Shard.count sh = Eric_fleet.Registry.count reg
          && merged_eq sh && finds_eq sh && reopened)
      in
      if as_file then begin
        let file = Filename.temp_file "eric_fleet" ".efrg" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Eric_fleet.Registry.save reg file;
            equivalent file (Shard.load file))
      end
      else with_temp_dir (fun dir -> equivalent dir (Shard.of_registry ~dir ~shards reg)))

let test_shard_migrate_from_file () =
  let reg = enroll_fleet ~start:9_400 5 in
  let file = Filename.temp_file "eric_fleet" ".efrg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Eric_fleet.Registry.save reg file;
      check Alcotest.bool "a plain file is not sharded" false (Shard.is_sharded file);
      with_temp_dir (fun dir ->
          match Shard.migrate ~file ~dir ~shards:4 with
          | Error e -> Alcotest.fail e
          | Ok sh ->
            check Alcotest.bool "the directory is sharded" true (Shard.is_sharded dir);
            check Alcotest.int "count survives" 5 (Shard.count sh);
            List.iter
              (fun (e : Eric_fleet.Registry.entry) ->
                match Shard.find sh e.Eric_fleet.Registry.device_id with
                | Ok (Some e') ->
                  check Alcotest.bool "entry survives migration, helper included" true
                    (entry_eq e e')
                | Ok None -> Alcotest.fail "device lost in migration"
                | Error e -> Alcotest.fail e)
              (Eric_fleet.Registry.entries reg);
            let seen = Shard.fold_entries sh ~init:0 ~f:(fun n _ -> n + 1) in
            check Alcotest.(result int string) "streaming scan walks the whole fleet" (Ok 5) seen;
            (* booting through either view reconstructs the same key *)
            let e = List.hd (Eric_fleet.Registry.entries reg) in
            let key t =
              match Eric.Target.key_state t with
              | Ok k -> Eric_util.Bytesx.to_hex k
              | Error _ -> Alcotest.fail "key unavailable"
            in
            match Shard.target sh e with
            | Error e -> Alcotest.fail e
            | Ok target ->
              check Alcotest.string "same boot key through either view"
                (key (Eric_fleet.Registry.target reg e))
                (key target)))

let test_shard_migrate_v1_file () =
  (* The streaming migration must accept a version-1 single-file registry
     and land its record as a legacy (helperless) entry. *)
  let buf = Buffer.create 64 in
  let u16 v =
    Buffer.add_char buf (Char.chr (v land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))
  in
  let u32 v = u16 (v land 0xFFFF); u16 ((v lsr 16) land 0xFFFF) in
  Buffer.add_string buf "EFRG";
  u16 1 (* version *);
  u16 0 (* reserved *);
  u32 1 (* count *);
  Buffer.add_string buf "\x2A\x00\x00\x00\x00\x00\x00\x00" (* device id 42 *);
  u32 3 (* epoch *);
  u32 7 (* firmware epoch *);
  u16 4;
  Buffer.add_string buf "eric" (* label *);
  u16 4;
  Buffer.add_string buf "KEY!" (* key *);
  Buffer.add_char buf '\000' (* active *);
  let file = Filename.temp_file "eric_fleet_v1" ".efrg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      Buffer.output_buffer oc buf;
      close_out oc;
      with_temp_dir (fun dir ->
          match Shard.migrate ~file ~dir ~shards:2 with
          | Error e -> Alcotest.fail ("v1 migration refused: " ^ e)
          | Ok sh -> (
            check Alcotest.int "one device" 1 (Shard.count sh);
            match Shard.find sh 42L with
            | Error e -> Alcotest.fail e
            | Ok None -> Alcotest.fail "v1 device lost"
            | Ok (Some e) ->
              check Alcotest.int "epoch" 3 e.Eric_fleet.Registry.epoch;
              check Alcotest.int "firmware" 7 e.Eric_fleet.Registry.firmware_epoch;
              check Alcotest.bool "legacy entry has no helper" true
                (e.Eric_fleet.Registry.helper = None))))

(* One RSA rotation over a fleet file and over its 4-shard migration.
   The walk rotates each non-empty shard under the command's one source
   key, and each device's handshake draws from its own stream, so both
   layouts must end with identical entries. *)
let test_shard_rsa_rotation_layout_independent () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let reg = enroll_fleet ~start:9_700 4 in
  let file = Filename.temp_file "eric_fleet" ".efrg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Eric_fleet.Registry.save reg file;
      with_temp_dir (fun dir ->
          let sharded = ok (Shard.migrate ~file ~dir ~shards:4) in
          let method_ = Lazy.force rsa_384 in
          let rotate store =
            let reports =
              ok
                (Shard.walk store ~f:(fun r ->
                     Ok (Eric_fleet.Rotation.rotate ~method_ ~epoch:2 r)))
            in
            List.iter
              (fun r ->
                check Alcotest.int "none failed" 0 (List.length r.Eric_fleet.Rotation.failed))
              reports;
            (List.length reports, by_id (Eric_fleet.Registry.entries (ok (Shard.to_registry store))))
          in
          let _, flat = rotate (ok (Shard.load file)) in
          let walked, split = rotate sharded in
          check Alcotest.bool "several shards rotated" true (walked > 1);
          check Alcotest.int "every device at the new epoch" 4
            (List.length (List.filter (fun e -> e.Eric_fleet.Registry.epoch = 2) flat));
          check Alcotest.bool "identical entries in both layouts" true
            (List.for_all2 entry_eq flat split)))

let test_campaign_sharded_deploys_and_persists () =
  let reg = enroll_fleet ~start:9_600 5 in
  with_temp_dir (fun dir ->
      let sh =
        match Shard.of_registry ~dir ~shards:3 reg with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let cache = Eric_fleet.Artifact_cache.create () in
      let r =
        match Eric_fleet.Campaign.deploy_sharded ~cache ~shards:sh test_source with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      check Alcotest.int "all delivered" 5 r.Eric_fleet.Campaign.delivered;
      check Alcotest.bool "all accounted" true (Eric_fleet.Campaign.all_accounted r);
      check Alcotest.int "device list covers the fleet" 5
        (List.length r.Eric_fleet.Campaign.devices);
      (* the campaign wrote each shard back on release: a cold reopen
         sees the stamped firmware without any in-memory state *)
      match Shard.load dir with
      | Error e -> Alcotest.fail e
      | Ok sh2 -> (
        match
          Shard.fold_entries sh2 ~init:() ~f:(fun () e ->
              check Alcotest.int "firmware stamp persisted"
                r.Eric_fleet.Campaign.firmware_epoch e.Eric_fleet.Registry.firmware_epoch)
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e))

(* Windowed at 2, so every run splits into several commit batches. *)
let engine_config scheduler = { Eric_engine.Engine.scheduler; window = 2 }

let test_campaign_scheduler_determinism () =
  (* Same fleet, same source, same hostile channel — the deterministic
     and domain schedulers must agree on everything but wall clock. *)
  let run scheduler =
    let reg = enroll_fleet ~start:9_500 6 in
    let cache = Eric_fleet.Artifact_cache.create () in
    let config =
      {
        Eric_fleet.Campaign.default_config with
        Eric_fleet.Campaign.channel = Eric_fleet.Channel.drop_first 1;
        engine = engine_config scheduler;
      }
    in
    (deploy ~config ~cache reg, reg)
  in
  let ra, rega = run Eric_engine.Engine.Deterministic in
  let rb, regb = run (Eric_engine.Engine.Domains 2) in
  check Alcotest.string "same digest" ra.Eric_fleet.Campaign.digest
    rb.Eric_fleet.Campaign.digest;
  check Alcotest.int "same firmware epoch" ra.Eric_fleet.Campaign.firmware_epoch
    rb.Eric_fleet.Campaign.firmware_epoch;
  check Alcotest.int "same delivered" ra.Eric_fleet.Campaign.delivered
    rb.Eric_fleet.Campaign.delivered;
  check Alcotest.int "same retried" ra.Eric_fleet.Campaign.retried
    rb.Eric_fleet.Campaign.retried;
  check Alcotest.int "same quarantined" ra.Eric_fleet.Campaign.quarantined
    rb.Eric_fleet.Campaign.quarantined;
  check Alcotest.int "same skipped" ra.Eric_fleet.Campaign.skipped
    rb.Eric_fleet.Campaign.skipped;
  check Alcotest.int "same wire bytes" ra.Eric_fleet.Campaign.wire_bytes
    rb.Eric_fleet.Campaign.wire_bytes;
  check Alcotest.int64 "same load cycles" ra.Eric_fleet.Campaign.load_cycles
    rb.Eric_fleet.Campaign.load_cycles;
  check Alcotest.int64 "same simulated backoff" ra.Eric_fleet.Campaign.backoff_ns
    rb.Eric_fleet.Campaign.backoff_ns;
  List.iter2
    (fun ((ea : Eric_fleet.Registry.entry), da) ((eb : Eric_fleet.Registry.entry), db) ->
      check Alcotest.int64 "same device order" ea.Eric_fleet.Registry.device_id
        eb.Eric_fleet.Registry.device_id;
      match (da, db) with
      | Eric_fleet.Campaign.Shipped a, Eric_fleet.Campaign.Shipped b ->
        check Alcotest.bool "same delivery outcome" (Eric_fleet.Shipper.delivered a)
          (Eric_fleet.Shipper.delivered b);
        check Alcotest.int "same attempts" a.Eric_fleet.Shipper.attempts
          b.Eric_fleet.Shipper.attempts;
        check Alcotest.int "same per-device wire bytes" a.Eric_fleet.Shipper.wire_bytes
          b.Eric_fleet.Shipper.wire_bytes
      | Eric_fleet.Campaign.Skipped a, Eric_fleet.Campaign.Skipped b ->
        check Alcotest.string "same skip reason" a b
      | _ -> Alcotest.fail "schedulers disagree on a device's outcome class")
    ra.Eric_fleet.Campaign.devices rb.Eric_fleet.Campaign.devices;
  check Alcotest.bool "registries end byte-identical" true
    (List.for_all2 entry_eq
       (Eric_fleet.Registry.entries rega)
       (Eric_fleet.Registry.entries regb));
  (* RSA rotation (per-device handshake seeds) then re-enrollment
     (per-device PUF noise) on a fleet with one key-reconstruction
     quarantine and one legacy entry *)
  let maintain scheduler =
    let reg = enroll_fleet ~start:9_550 3 in
    let victim = tamper_entry reg (List.nth (Eric_fleet.Registry.entries reg) 1) in
    Eric_fleet.Registry.update reg
      { victim with
        Eric_fleet.Registry.status =
          Eric_fleet.Registry.Quarantined "key reconstruction failed" };
    (match Eric_fleet.Registry.enroll_legacy reg 9_560L with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    let engine = engine_config scheduler in
    let rotation =
      Eric_fleet.Rotation.rotate ~engine
        ~method_:(Lazy.force rsa_384)
        ~epoch:2 reg
    in
    let reenroll = Eric_fleet.Reenroll.run ~engine reg in
    (rotation, reenroll, reg)
  in
  let rota, rea, rega = maintain Eric_engine.Engine.Deterministic in
  let rotb, reb, regb = maintain (Eric_engine.Engine.Domains 2) in
  check Alcotest.int "three rotated over RSA" 3 rota.Eric_fleet.Rotation.rotated;
  check Alcotest.int "the keyless device failed rotation" 1
    (List.length rota.Eric_fleet.Rotation.failed);
  check Alcotest.int "the quarantined device re-enrolled" 1 rea.Eric_fleet.Reenroll.reactivated;
  check Alcotest.int "the legacy entry upgraded" 1 rea.Eric_fleet.Reenroll.upgraded;
  check Alcotest.string "same rotation report"
    (Format.asprintf "%a" Eric_fleet.Rotation.pp_report rota)
    (Format.asprintf "%a" Eric_fleet.Rotation.pp_report rotb);
  check Alcotest.string "same re-enrollment report"
    (Format.asprintf "%a" Eric_fleet.Reenroll.pp_report rea)
    (Format.asprintf "%a" Eric_fleet.Reenroll.pp_report reb);
  check Alcotest.bool "same re-enrollment outcomes" true (rea = reb);
  check Alcotest.bool "maintained registries end byte-identical" true
    (List.for_all2 entry_eq
       (Eric_fleet.Registry.entries rega)
       (Eric_fleet.Registry.entries regb))

let test_enroll_legacy_boots_and_ships () =
  let reg = Eric_fleet.Registry.create () in
  (match Eric_fleet.Registry.enroll_legacy reg 9_700L with
  | Ok e ->
    check Alcotest.bool "legacy path records no helper" true
      (e.Eric_fleet.Registry.helper = None);
    check Alcotest.int "no instability figure" 0 e.Eric_fleet.Registry.instability_ppm
  | Error e -> Alcotest.fail e);
  (match Eric_fleet.Registry.enroll_legacy reg 9_700L with
  | Ok _ -> Alcotest.fail "duplicate legacy enrollment accepted"
  | Error _ -> ());
  (* a legacy device still boots (majority vote) and takes a campaign *)
  let cache = Eric_fleet.Artifact_cache.create () in
  let r = deploy ~cache reg in
  check Alcotest.int "legacy device takes a campaign" 1 r.Eric_fleet.Campaign.delivered

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "eric_fleet"
    [ ( "backoff",
        [ Alcotest.test_case "schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "validate" `Quick test_backoff_validate ] );
      ( "channel",
        [ Alcotest.test_case "plans" `Quick test_channel_plans;
          Alcotest.test_case "of_string" `Quick test_channel_of_string ] );
      ( "registry",
        [ registry_roundtrip_prop;
          Alcotest.test_case "parse rejects" `Quick test_registry_parse_rejects;
          Alcotest.test_case "save/load" `Quick test_registry_save_load;
          Alcotest.test_case "duplicate enroll" `Quick test_registry_enroll_rejects_duplicates;
          Alcotest.test_case "helper round-trip" `Quick test_registry_helper_roundtrip;
          Alcotest.test_case "v1 compatibility" `Quick test_registry_v1_compat;
          Alcotest.test_case "legacy enrollment" `Quick test_enroll_legacy_boots_and_ships ] );
      ( "shard",
        [ shard_mapping_prop;
          Alcotest.test_case "shard mapping golden" `Quick test_shard_mapping_golden;
          shard_equivalence_prop;
          Alcotest.test_case "migrate from file" `Quick test_shard_migrate_from_file;
          Alcotest.test_case "migrate v1 file" `Quick test_shard_migrate_v1_file;
          Alcotest.test_case "RSA rotation independent of layout" `Slow
            test_shard_rsa_rotation_layout_independent ] );
      ( "cache",
        [ Alcotest.test_case "memory tier" `Quick test_cache_memory_tier;
          Alcotest.test_case "disk tier" `Quick test_cache_disk_tier;
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity ] );
      ( "pipeline",
        [ Alcotest.test_case "personalize = build" `Quick test_personalize_equals_build ] );
      ( "shipper",
        [ Alcotest.test_case "clean delivery" `Quick test_shipper_clean_delivery;
          Alcotest.test_case "retry recovers" `Quick test_shipper_retry_recovers;
          Alcotest.test_case "exhaustion quarantines" `Quick test_shipper_exhaustion_quarantines;
          Alcotest.test_case "signature refusals quarantine" `Quick
            test_shipper_signature_refusals_quarantine;
          Alcotest.test_case "integrity retry recovers" `Quick
            test_shipper_integrity_retry_recovers;
          Alcotest.test_case "integrity quarantine" `Quick test_shipper_integrity_quarantine;
          Alcotest.test_case "unguarded executes corrupted" `Quick
            test_shipper_unguarded_executes_corrupted ] );
      ( "campaign",
        [ Alcotest.test_case "happy path" `Quick test_campaign_happy_path;
          Alcotest.test_case "execute" `Quick test_campaign_executes_when_asked;
          Alcotest.test_case "hostile channel" `Quick test_campaign_hostile_channel_no_silent_drops;
          Alcotest.test_case "retry recovers everyone" `Quick test_campaign_retry_recovers_everyone;
          Alcotest.test_case "sharded deploy persists" `Quick
            test_campaign_sharded_deploys_and_persists;
          Alcotest.test_case "scheduler determinism" `Quick
            test_campaign_scheduler_determinism ] );
      ( "rotation",
        [ Alcotest.test_case "rekeys + reactivates" `Quick test_rotation_rekeys_and_reactivates;
          Alcotest.test_case "revokes old packages" `Quick test_rotation_revokes_old_packages;
          Alcotest.test_case "RSA in-band" `Slow test_rotation_rsa_in_band;
          Alcotest.test_case "keyless device fails its own rotation" `Quick
            test_rotation_keyless_device_fails_alone ] );
      ( "reenroll",
        [ Alcotest.test_case "key-reconstruction quarantine" `Quick
            test_shipper_key_reconstruction_quarantine;
          Alcotest.test_case "campaign" `Quick test_reenroll_campaign ] ) ]
