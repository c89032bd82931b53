(* Tests for the serve subsystem: the shared simulated clock, Zipf
   sampling, the bounded admission queue's exact refusal accounting and
   FIFO order, traffic generation determinism, and the acceptance
   property of the whole loop — the same (scenario, seed) produces a
   byte-identical SLO report, JSON included. *)

open Eric_serve

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Sim_clock                                                           *)
(* ------------------------------------------------------------------ *)

let test_clock_advances () =
  let c = Eric_util.Sim_clock.create () in
  check Alcotest.int64 "starts at zero" 0L (Eric_util.Sim_clock.now_ns c);
  Eric_util.Sim_clock.advance c 500L;
  Eric_util.Sim_clock.advance c 250L;
  check Alcotest.int64 "advance accumulates" 750L (Eric_util.Sim_clock.now_ns c);
  Eric_util.Sim_clock.advance_to c 700L;
  check Alcotest.int64 "advance_to never rewinds" 750L (Eric_util.Sim_clock.now_ns c);
  Eric_util.Sim_clock.advance_to c 1_000L;
  check Alcotest.int64 "advance_to forward" 1_000L (Eric_util.Sim_clock.now_ns c)

let test_clock_rejects_negative () =
  let c = Eric_util.Sim_clock.create () in
  Alcotest.check_raises "negative advance" (Invalid_argument "Sim_clock.advance: negative delta")
    (fun () -> Eric_util.Sim_clock.advance c (-1L));
  Alcotest.check_raises "negative start"
    (Invalid_argument "Sim_clock.create: negative start") (fun () ->
      ignore (Eric_util.Sim_clock.create ~now_ns:(-5L) ()))

let test_clock_unit_conversions () =
  check Alcotest.int64 "of_s" 1_500_000_000L (Eric_util.Sim_clock.of_s 1.5);
  check (Alcotest.float 1e-9) "to_s" 1.5 (Eric_util.Sim_clock.to_s 1_500_000_000L);
  check (Alcotest.float 1e-9) "to_ms" 1500.0 (Eric_util.Sim_clock.to_ms 1_500_000_000L)

(* The satellite property: the shipper's retry backoff advances the same
   clock the serve loop reads, so both account one timeline. *)
let test_clock_shared_with_shipper () =
  let clock = Eric_util.Sim_clock.create () in
  let reg = Eric_fleet.Registry.create () in
  let entry =
    match Eric_fleet.Registry.enroll reg 77L with Ok e -> e | Error e -> failwith e
  in
  let prepared =
    match Eric.Source.prepare ~mode:Eric.Config.Full "int main() { return 0; }" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let build = Eric.Source.personalize ~key:entry.Eric_fleet.Registry.key prepared in
  let target = Eric_fleet.Registry.target reg entry in
  let channel = Eric_fleet.Channel.drop_first 2 in
  let d = Eric_fleet.Shipper.ship ~channel ~clock ~build ~target () in
  check Alcotest.bool "delivered after retries" true (Eric_fleet.Shipper.delivered d);
  check Alcotest.int "two refusals" 2 (List.length d.Eric_fleet.Shipper.refusals);
  check Alcotest.int64 "clock advanced by total backoff" d.Eric_fleet.Shipper.backoff_ns
    (Eric_util.Sim_clock.now_ns clock)

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~exponent:1.0 ~n:10 () in
  let total = ref 0.0 in
  for r = 0 to 9 do
    total := !total +. Zipf.pmf z r
  done;
  check (Alcotest.float 1e-9) "pmf sums to 1" 1.0 !total;
  (* rank 0 strictly more popular than rank 9 under exponent 1 *)
  check Alcotest.bool "head heavier than tail" true (Zipf.pmf z 0 > 2.0 *. Zipf.pmf z 9)

let test_zipf_exponent_zero_uniform () =
  let z = Zipf.create ~exponent:0.0 ~n:4 () in
  for r = 0 to 3 do
    check (Alcotest.float 1e-9) "uniform pmf" 0.25 (Zipf.pmf z r)
  done

let test_zipf_sample_deterministic () =
  let draw () =
    let z = Zipf.create ~n:10 () in
    let rng = Eric_util.Prng.create ~seed:99L in
    List.init 64 (fun _ -> Zipf.sample z rng)
  in
  check Alcotest.(list int) "same seed, same draws" (draw ()) (draw ());
  let z = Zipf.create ~n:10 () in
  let rng = Eric_util.Prng.create ~seed:1L in
  for _ = 1 to 1000 do
    let r = Zipf.sample z rng in
    check Alcotest.bool "in range" true (r >= 0 && r < 10)
  done

let test_zipf_rejects_bad_args () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: need at least one rank")
    (fun () -> ignore (Zipf.create ~n:0 ()));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Zipf.create: exponent must be finite and non-negative") (fun () ->
      ignore (Zipf.create ~exponent:(-1.0) ~n:4 ()))

let zipf_skew_matches_pmf =
  qtest ~count:20 "empirical head frequency tracks pmf"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let z = Zipf.create ~n:10 () in
      let rng = Eric_util.Prng.create ~seed:(Int64.of_int seed) in
      let n = 2_000 in
      let hits = ref 0 in
      for _ = 1 to n do
        if Zipf.sample z rng = 0 then incr hits
      done;
      let freq = float_of_int !hits /. float_of_int n in
      Float.abs (freq -. Zipf.pmf z 0) < 0.05)

(* ------------------------------------------------------------------ *)
(* Admit queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_admit_zero_capacity_refuses () =
  let q = Admit.create ~capacity:0 in
  check Alcotest.bool "first offer shed" true (Admit.offer q 1 = Admit.Shed);
  check Alcotest.bool "second offer shed" true (Admit.offer q 2 = Admit.Shed);
  check Alcotest.int "shed counted per offer" 2 (Admit.shed q);
  check Alcotest.int "nothing accepted" 0 (Admit.accepted q);
  check Alcotest.bool "pop empty" true (Admit.pop q = None)

let test_admit_full_queue_sheds_exactly_once () =
  let q = Admit.create ~capacity:2 in
  check Alcotest.bool "1 accepted" true (Admit.offer q 1 = Admit.Accepted);
  check Alcotest.bool "2 accepted" true (Admit.offer q 2 = Admit.Accepted);
  check Alcotest.bool "3 shed" true (Admit.offer q 3 = Admit.Shed);
  check Alcotest.int "exactly one shed" 1 (Admit.shed q);
  check Alcotest.int "two accepted" 2 (Admit.accepted q);
  (* popping frees a slot; the next offer is admitted, shed stays 1 *)
  check Alcotest.(option int) "fifo head" (Some 1) (Admit.pop q);
  check Alcotest.bool "4 accepted after pop" true (Admit.offer q 4 = Admit.Accepted);
  check Alcotest.int "shed unchanged" 1 (Admit.shed q)

let test_admit_fifo_drain_order () =
  let q = Admit.create ~capacity:8 in
  List.iter (fun x -> ignore (Admit.offer q x)) [ 3; 1; 4; 1; 5 ];
  let rec drain acc = match Admit.pop q with None -> List.rev acc | Some x -> drain (x :: acc) in
  check Alcotest.(list int) "drains in offer order" [ 3; 1; 4; 1; 5 ] (drain []);
  check Alcotest.int "peak depth" 5 (Admit.peak q)

let test_admit_rejects_negative_capacity () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Admit.create: negative capacity") (fun () ->
      ignore (Admit.create ~capacity:(-1)))

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let gen_stream seed =
  let rng = Eric_util.Prng.create ~seed in
  let programs = Zipf.create ~n:10 () in
  Traffic.generate ~rng ~rate:(fun _ -> 100.0) ~max_rate:100.0
    ~duration_ns:2_000_000_000L ~tenants:3 ~devices_per_tenant:8 ~programs
    ~rotate_fraction:0.25 ()

let test_traffic_deterministic () =
  let a = gen_stream 5L and b = gen_stream 5L in
  check Alcotest.int "same length" (List.length a) (List.length b);
  List.iter2
    (fun (x : Traffic.request) (y : Traffic.request) ->
      check Alcotest.int64 "same arrival" x.Traffic.r_arrival_ns y.Traffic.r_arrival_ns;
      check Alcotest.int "same tenant" x.Traffic.r_tenant y.Traffic.r_tenant;
      check Alcotest.int "same device" x.Traffic.r_device y.Traffic.r_device;
      check Alcotest.int "same program" x.Traffic.r_program y.Traffic.r_program;
      check Alcotest.bool "same kind" true (x.Traffic.r_kind = y.Traffic.r_kind))
    a b;
  let c = gen_stream 6L in
  check Alcotest.bool "different seed, different stream" false
    (List.length a = List.length c
    && List.for_all2
         (fun (x : Traffic.request) (y : Traffic.request) ->
           x.Traffic.r_arrival_ns = y.Traffic.r_arrival_ns)
         a c)

let test_traffic_shape () =
  let reqs = gen_stream 11L in
  check Alcotest.bool "non-empty" true (List.length reqs > 100);
  let sorted = ref true and last = ref Int64.min_int and seq = ref 0 in
  List.iter
    (fun (r : Traffic.request) ->
      if Int64.compare r.Traffic.r_arrival_ns !last < 0 then sorted := false;
      last := r.Traffic.r_arrival_ns;
      check Alcotest.int "sequence numbers dense" !seq r.Traffic.r_seq;
      incr seq;
      check Alcotest.bool "inside horizon" true
        (r.Traffic.r_arrival_ns >= 0L && r.Traffic.r_arrival_ns < 2_000_000_000L);
      check Alcotest.bool "tenant in range" true (r.Traffic.r_tenant >= 0 && r.Traffic.r_tenant < 3);
      check Alcotest.bool "device in range" true
        (r.Traffic.r_device >= 0 && r.Traffic.r_device < 8))
    reqs;
  check Alcotest.bool "arrivals sorted" true !sorted;
  let rotates =
    List.length (List.filter (fun (r : Traffic.request) -> r.Traffic.r_kind = Traffic.Rotate) reqs)
  in
  let frac = float_of_int rotates /. float_of_int (List.length reqs) in
  check Alcotest.bool "rotate fraction near 0.25" true (frac > 0.15 && frac < 0.35)

let test_traffic_rotate_fraction_zero () =
  let rng = Eric_util.Prng.create ~seed:3L in
  let programs = Zipf.create ~n:10 () in
  let reqs =
    Traffic.generate ~rng ~rate:(fun _ -> 50.0) ~max_rate:50.0 ~duration_ns:1_000_000_000L
      ~tenants:1 ~devices_per_tenant:4 ~programs ~rotate_fraction:0.0 ()
  in
  check Alcotest.bool "all updates" true
    (List.for_all (fun (r : Traffic.request) -> r.Traffic.r_kind = Traffic.Update) reqs)

let test_traffic_rejects_bad_args () =
  let programs = Zipf.create ~n:10 () in
  let gen ?(max_rate = 10.0) ?(tenants = 1) ?(rotate = 0.0) () =
    let rng = Eric_util.Prng.create ~seed:1L in
    ignore
      (Traffic.generate ~rng ~rate:(fun _ -> 10.0) ~max_rate ~duration_ns:1_000_000L
         ~tenants ~devices_per_tenant:1 ~programs ~rotate_fraction:rotate ())
  in
  Alcotest.check_raises "zero max rate"
    (Invalid_argument "Traffic.generate: max_rate must be positive") (fun () ->
      gen ~max_rate:0.0 ());
  Alcotest.check_raises "no tenants"
    (Invalid_argument "Traffic.generate: need at least one tenant and one device")
    (fun () -> gen ~tenants:0 ());
  Alcotest.check_raises "bad rotate fraction"
    (Invalid_argument "Traffic.generate: rotate_fraction outside [0,1]") (fun () ->
      gen ~rotate:1.5 ())

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)
(* ------------------------------------------------------------------ *)

let test_scenario_lookup () =
  (match Scenario.by_name "flash-crowd" with
  | Ok sc -> check Alcotest.string "found" "flash-crowd" sc.Scenario.name
  | Error e -> Alcotest.fail e);
  (match Scenario.by_name "nope" with
  | Ok _ -> Alcotest.fail "unknown scenario accepted"
  | Error e -> check Alcotest.bool "error names candidates" true
                 (String.length e > 0));
  check Alcotest.(list string) "preset names"
    [ "steady"; "flash-crowd"; "rotation-storm"; "soft-error-storm" ]
    Scenario.names

let test_scenario_overrides () =
  let sc = Scenario.with_duration Scenario.steady ~seconds:5.0 in
  check Alcotest.int64 "duration override" 5_000_000_000L sc.Scenario.duration_ns;
  let sc = Scenario.with_rate_scale Scenario.flash_crowd ~factor:0.5 in
  check (Alcotest.float 1e-9) "burst base scaled" 20.0 (Scenario.rate sc 0.0);
  check (Alcotest.float 1e-9) "burst peak scaled" 500.0 (Scenario.rate sc 12.0);
  check (Alcotest.float 1e-9) "max rate" 500.0 (Scenario.max_rate sc)

(* ------------------------------------------------------------------ *)
(* Service: determinism and accounting                                 *)
(* ------------------------------------------------------------------ *)

let run_short scenario seed =
  Service.run ~seed ~scenario:(Scenario.with_duration scenario ~seconds:3.0) ()

let test_service_deterministic () =
  (* flash-crowd is the acceptance scenario; rotation-storm exercises the
     most paths (rotation, retries, flaky channel, quarantine).  Both
     must give byte-identical JSON for identical seeds. *)
  let fa = run_short Scenario.flash_crowd 13L in
  let fb = run_short Scenario.flash_crowd 13L in
  check Alcotest.string "flash-crowd byte-identical JSON"
    (Eric_telemetry.Json.to_string (Slo.to_json fa))
    (Eric_telemetry.Json.to_string (Slo.to_json fb));
  let a = run_short Scenario.rotation_storm 13L in
  let b = run_short Scenario.rotation_storm 13L in
  check Alcotest.string "rotation-storm byte-identical JSON"
    (Eric_telemetry.Json.to_string (Slo.to_json a))
    (Eric_telemetry.Json.to_string (Slo.to_json b));
  let c = run_short Scenario.rotation_storm 14L in
  check Alcotest.bool "different seed differs" false
    (Eric_telemetry.Json.to_string (Slo.to_json a)
    = Eric_telemetry.Json.to_string (Slo.to_json c))

let test_service_accounting () =
  let r = run_short Scenario.flash_crowd 21L in
  check Alcotest.int "every request accounted" r.Slo.requests
    (r.Slo.served + r.Slo.refused + r.Slo.quarantined);
  check Alcotest.bool "served some" true (r.Slo.served > 0);
  check Alcotest.bool "cache miss bounded by corpus" true (r.Slo.cache_misses <= 10);
  check Alcotest.bool "hit rate high under zipf" true (r.Slo.cache_hit_rate > 0.9);
  check Alcotest.bool "latency quantiles ordered" true
    (r.Slo.latency.Slo.p50_ms <= r.Slo.latency.Slo.p99_ms)

let test_service_backpressure_sheds () =
  (* scale steady far past the 2-server capacity: the bounded queue must
     shed rather than grow without bound, and every shed is a refusal *)
  let scenario =
    Scenario.with_rate_scale (Scenario.with_duration Scenario.steady ~seconds:3.0)
      ~factor:20.0
  in
  let r = Service.run ~seed:2L ~scenario () in
  check Alcotest.bool "refusals happened" true (r.Slo.refused > 0);
  check Alcotest.bool "queue peak at capacity" true
    (r.Slo.queue_peak = Scenario.steady.Scenario.queue_capacity);
  check Alcotest.int "accounting still exact" r.Slo.requests
    (r.Slo.served + r.Slo.refused + r.Slo.quarantined);
  check Alcotest.bool "refusal budget blown" true (not (Slo.passed r))

let test_service_rotation_storm_rotates () =
  let r = run_short Scenario.rotation_storm 31L in
  check Alcotest.bool "rotations happened" true (r.Slo.rotations > 0);
  check Alcotest.bool "retries happened over noisy channel" true (r.Slo.retried > 0)

let test_service_soft_error_storm () =
  (* the recovery-path acceptance at test scale: upsets fire, the guard
     (or a machine trap) detects every one, re-delivery recovers devices,
     and nothing completes on corrupted memory *)
  let r = run_short Scenario.soft_error_storm 7L in
  check Alcotest.bool "faults were injected" true (r.Slo.faults_injected > 0);
  check Alcotest.int "every fault detected" r.Slo.faults_injected r.Slo.faults_detected;
  check Alcotest.int "nothing ran corrupted memory undetected" 0 r.Slo.faults_undetected;
  check Alcotest.bool "re-delivery recovered devices" true (r.Slo.fault_recovered > 0);
  check Alcotest.int "accounting still exact" r.Slo.requests
    (r.Slo.served + r.Slo.refused + r.Slo.quarantined);
  (* determinism holds with the fault injector in the loop *)
  let r' = run_short Scenario.soft_error_storm 7L in
  check Alcotest.string "soft-error-storm byte-identical JSON"
    (Eric_telemetry.Json.to_string (Slo.to_json r))
    (Eric_telemetry.Json.to_string (Slo.to_json r'));
  (* the integrity block reaches the JSON report *)
  match Eric_telemetry.Json.of_string (Eric_telemetry.Json.to_string (Slo.to_json r)) with
  | Error e -> Alcotest.fail e
  | Ok json -> (
    match Eric_telemetry.Json.member "integrity" json with
    | None -> Alcotest.fail "SLO JSON lacks the integrity block"
    | Some block ->
      let field name =
        match Option.bind (Eric_telemetry.Json.member name block) Eric_telemetry.Json.to_float with
        | Some v -> int_of_float v
        | None -> Alcotest.failf "integrity block lacks %s" name
      in
      check Alcotest.int "JSON faults_injected" r.Slo.faults_injected
        (field "faults_injected");
      check Alcotest.int "JSON faults_undetected" 0 (field "faults_undetected"))

(* The three gated scenarios at seed 7 over 10 simulated seconds,
   flash-crowd at half rate: each must meet its scenario's SLO budgets. *)
let test_service_gated_scenarios_pass_slo () =
  List.iter
    (fun (scenario, rate_scale) ->
      let scenario = Scenario.with_duration scenario ~seconds:10.0 in
      let scenario =
        Option.fold ~none:scenario
          ~some:(fun factor -> Scenario.with_rate_scale scenario ~factor)
          rate_scale
      in
      let r = Service.run ~seed:7L ~scenario () in
      if not (Slo.passed r) then
        Alcotest.failf "%s blew its SLO:@.%a" scenario.Scenario.name Slo.pp r)
    [ (Scenario.flash_crowd, Some 0.5);
      (Scenario.rotation_storm, None);
      (Scenario.soft_error_storm, None) ]

let test_service_clean_scenarios_report_no_faults () =
  let r = run_short Scenario.steady 5L in
  check Alcotest.int "no faults injected" 0 r.Slo.faults_injected;
  check Alcotest.int "none detected" 0 r.Slo.faults_detected;
  check Alcotest.int "none recovered" 0 r.Slo.fault_recovered

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [ ( "sim-clock",
        [ Alcotest.test_case "advance and advance_to" `Quick test_clock_advances;
          Alcotest.test_case "rejects negative" `Quick test_clock_rejects_negative;
          Alcotest.test_case "unit conversions" `Quick test_clock_unit_conversions;
          Alcotest.test_case "shared with shipper backoff" `Quick
            test_clock_shared_with_shipper ] );
      ( "zipf",
        [ Alcotest.test_case "pmf sums to one" `Quick test_zipf_pmf_sums_to_one;
          Alcotest.test_case "exponent zero is uniform" `Quick test_zipf_exponent_zero_uniform;
          Alcotest.test_case "sampling deterministic" `Quick test_zipf_sample_deterministic;
          Alcotest.test_case "rejects bad args" `Quick test_zipf_rejects_bad_args;
          zipf_skew_matches_pmf ] );
      ( "admit",
        [ Alcotest.test_case "zero capacity refuses immediately" `Quick
            test_admit_zero_capacity_refuses;
          Alcotest.test_case "full queue sheds exactly once" `Quick
            test_admit_full_queue_sheds_exactly_once;
          Alcotest.test_case "fifo drain order" `Quick test_admit_fifo_drain_order;
          Alcotest.test_case "rejects negative capacity" `Quick
            test_admit_rejects_negative_capacity ] );
      ( "traffic",
        [ Alcotest.test_case "deterministic per seed" `Quick test_traffic_deterministic;
          Alcotest.test_case "stream shape" `Quick test_traffic_shape;
          Alcotest.test_case "rotate fraction zero" `Quick test_traffic_rotate_fraction_zero;
          Alcotest.test_case "rejects bad args" `Quick test_traffic_rejects_bad_args ] );
      ( "scenario",
        [ Alcotest.test_case "lookup and names" `Quick test_scenario_lookup;
          Alcotest.test_case "duration and rate overrides" `Quick test_scenario_overrides ] );
      ( "service",
        [ Alcotest.test_case "flash-crowd seed reproduces identical SLO" `Quick
            test_service_deterministic;
          Alcotest.test_case "request accounting exact" `Quick test_service_accounting;
          Alcotest.test_case "backpressure sheds at capacity" `Quick
            test_service_backpressure_sheds;
          Alcotest.test_case "rotation storm rotates and retries" `Quick
            test_service_rotation_storm_rotates;
          Alcotest.test_case "soft-error storm detects and recovers" `Quick
            test_service_soft_error_storm;
          Alcotest.test_case "clean scenarios report no faults" `Quick
            test_service_clean_scenarios_report_no_faults;
          Alcotest.test_case "gated scenarios pass their SLOs" `Quick
            test_service_gated_scenarios_pass_slo ] ) ]
