(* Tests for the eric_telemetry library: span nesting and timing, the
   log-scale histogram's quantile error bound under random inserts, the
   registry's labelled families and disabled no-op guarantee, the JSON
   codec, and round-trips through the JSONL and Chrome-trace exporters. *)

open Eric_telemetry

let check = Alcotest.check
let qtest ?(count = 100) name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Every test starts from clean, enabled telemetry and leaves it
   disabled, so suites can run in any order without crosstalk. *)
let with_fresh f =
  Snapshot.reset_all ();
  Control.enable ();
  Fun.protect
    ~finally:(fun () ->
      Control.disable ();
      Snapshot.reset_all ())
    f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting_and_depth () =
  with_fresh @@ fun () ->
  Span.with_ ~name:"outer" (fun () ->
      Span.with_ ~name:"inner1" (fun () -> ());
      Span.with_ ~name:"inner2" (fun () -> Span.with_ ~name:"leaf" (fun () -> ())));
  let events = Span.completed () in
  let names = List.map (fun (e : Span.event) -> e.name) events in
  check Alcotest.(list string) "completion order" [ "inner1"; "leaf"; "inner2"; "outer" ] names;
  let depth n = (List.find (fun (e : Span.event) -> e.name = n) events).Span.depth in
  check Alcotest.int "outer depth" 0 (depth "outer");
  check Alcotest.int "inner depth" 1 (depth "inner1");
  check Alcotest.int "leaf depth" 2 (depth "leaf")

let test_span_timing_monotone () =
  with_fresh @@ fun () ->
  let busy () =
    let acc = ref 0 in
    for i = 1 to 10_000 do
      acc := !acc + (i * i)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  Span.with_ ~name:"parent" (fun () -> Span.with_ ~name:"child" busy);
  let find n = List.find (fun (e : Span.event) -> e.Span.name = n) (Span.completed ()) in
  let parent = find "parent" and child = find "child" in
  check Alcotest.bool "durations non-negative" true
    (parent.Span.dur_ns >= 0L && child.Span.dur_ns >= 0L);
  check Alcotest.bool "child starts after parent" true (child.Span.start_ns >= parent.Span.start_ns);
  check Alcotest.bool "child within parent" true (child.Span.dur_ns <= parent.Span.dur_ns);
  check Alcotest.bool "clock is monotone" true (Clock.now_ns () >= parent.Span.start_ns)

let test_span_records_on_exception () =
  with_fresh @@ fun () ->
  (try Span.with_ ~name:"boom" (fun () -> failwith "expected") with Failure _ -> ());
  check Alcotest.int "span recorded despite raise" 1 (List.length (Span.completed ()))

let test_span_disabled_is_noop () =
  Snapshot.reset_all ();
  Control.disable ();
  let r = Span.with_ ~name:"ghost" (fun () -> 42) in
  check Alcotest.int "result passes through" 42 r;
  check Alcotest.int "nothing recorded" 0 (List.length (Span.completed ()))

let test_span_aggregate () =
  with_fresh @@ fun () ->
  for _ = 1 to 3 do
    Span.with_ ~name:"a" (fun () -> ())
  done;
  Span.with_ ~name:"b" (fun () -> ());
  match Span.aggregate (Span.completed ()) with
  | [ a; b ] ->
    check Alcotest.string "first name" "a" a.Span.a_name;
    check Alcotest.int "a count" 3 a.Span.a_count;
    check Alcotest.string "second name" "b" b.Span.a_name;
    check Alcotest.int "b count" 1 b.Span.a_count
  | aggs -> Alcotest.failf "expected 2 aggregates, got %d" (List.length aggs)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

(* The documented contract: the estimate never undershoots the true
   quantile and overshoots by strictly less than the bucket ratio. *)
let quantile_bound_ok values p =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) values;
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
  let truth = List.nth sorted (rank - 1) in
  let est = Histogram.quantile h p in
  est >= truth && (truth = 0.0 || est <= truth *. Histogram.ratio *. (1.0 +. 1e-9))

let histogram_quantile_fuzz =
  qtest ~count:200 "quantile within one bucket of truth"
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e12)) (float_bound_inclusive 1.0))
    (fun (values, p) ->
      let values = List.map Float.abs values in
      quantile_bound_ok values p)

let histogram_quantiles_in_range =
  qtest ~count:200 "min <= p50 <= p90 <= p99 <= max"
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e12))
    (fun values ->
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.observe h (Float.abs v)) values;
      let s = Histogram.summarize h in
      s.Histogram.s_min <= s.Histogram.s_p50
      && s.Histogram.s_p50 <= s.Histogram.s_p90
      && s.Histogram.s_p90 <= s.Histogram.s_p99
      && s.Histogram.s_p99 <= s.Histogram.s_max)

(* Deterministic exact-bucket cases of the quantile contract, pinning
   behaviour the fuzz test only samples: single-bucket populations are
   exact up to the bucket edge, the overflow bucket reports the observed
   max exactly, and an empty histogram reports 0. *)
let test_histogram_quantile_exact_buckets () =
  let h = Histogram.create () in
  check (Alcotest.float 0.0) "empty histogram" 0.0 (Histogram.quantile h 0.5);
  (* all mass in one bucket: every quantile lands on that bucket's edge *)
  Histogram.observe h 10.0;
  Histogram.observe h 10.0;
  Histogram.observe h 10.0;
  let edge = Histogram.quantile h 0.5 in
  check Alcotest.bool "edge covers value" true (edge >= 10.0 && edge < 10.0 *. Histogram.ratio);
  check (Alcotest.float 0.0) "p0 same bucket" edge (Histogram.quantile h 0.0);
  check (Alcotest.float 0.0) "p1 same bucket" edge (Histogram.quantile h 1.0);
  (* bimodal: median stays in the low bucket, the tail finds the high one *)
  let h = Histogram.create () in
  for _ = 1 to 90 do Histogram.observe h 10.0 done;
  for _ = 1 to 10 do Histogram.observe h 1000.0 done;
  let p50 = Histogram.quantile h 0.5 and p95 = Histogram.quantile h 0.95 in
  check Alcotest.bool "p50 in low bucket" true (p50 >= 10.0 && p50 < 10.0 *. Histogram.ratio);
  check Alcotest.bool "p95 in high bucket" true (p95 >= 1000.0 && p95 < 1000.0 *. Histogram.ratio);
  (* overflow bucket: reports the exact observed maximum *)
  let h = Histogram.create () in
  Histogram.observe h 1e300;
  check (Alcotest.float 0.0) "overflow reports max" 1e300 (Histogram.quantile h 1.0);
  (* one observation: every quantile is that observation, not its
     bucket's upper edge (3256 sits in the bucket ending at 3444.31) *)
  let h = Histogram.create () in
  Histogram.observe h 3256.0;
  List.iter
    (fun p ->
      check (Alcotest.float 0.0) (Printf.sprintf "single observation p%g" p) 3256.0
        (Histogram.quantile h p))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_registry_quantile_accessor () =
  with_fresh @@ fun () ->
  check (Alcotest.option (Alcotest.float 0.0)) "absent instance" None
    (Registry.quantile "nope" 0.5);
  Registry.inc "a_counter";
  check (Alcotest.option (Alcotest.float 0.0)) "not a histogram" None
    (Registry.quantile "a_counter" 0.5);
  Registry.observe ~labels:[ ("scenario", "steady") ] "serve.latency_ns" 50.0;
  Registry.observe ~labels:[ ("scenario", "steady") ] "serve.latency_ns" 50.0;
  (match Registry.quantile ~labels:[ ("scenario", "steady") ] "serve.latency_ns" 0.5 with
  | None -> Alcotest.fail "recorded histogram not found"
  | Some q -> check Alcotest.bool "quantile covers observation" true
                (q >= 50.0 && q < 50.0 *. Histogram.ratio));
  check (Alcotest.option (Alcotest.float 0.0)) "label mismatch is absent" None
    (Registry.quantile "serve.latency_ns" 0.5)

let test_histogram_summary () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.observe h (float_of_int i)
  done;
  let s = Histogram.summarize h in
  check Alcotest.int "count" 100 s.Histogram.s_count;
  check (Alcotest.float 1e-6) "sum" 5050.0 s.Histogram.s_sum;
  check (Alcotest.float 1e-6) "min exact" 1.0 s.Histogram.s_min;
  check (Alcotest.float 1e-6) "max exact" 100.0 s.Histogram.s_max;
  check Alcotest.bool "p50 bound" true (s.Histogram.s_p50 >= 50.0 && s.Histogram.s_p50 <= 50.0 *. Histogram.ratio);
  check Alcotest.bool "p99 bound" true (s.Histogram.s_p99 >= 99.0 && s.Histogram.s_p99 <= 99.0 *. Histogram.ratio)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.observe a 10.0;
  Histogram.observe b 1000.0;
  Histogram.merge_into ~dst:a b;
  check Alcotest.int "merged count" 2 (Histogram.count a);
  check (Alcotest.float 1e-6) "merged max" 1000.0 (Histogram.max_value a)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_counters_and_families () =
  with_fresh @@ fun () ->
  Registry.inc "req";
  Registry.inc ~by:2L "req";
  Registry.inc ~labels:[ ("reason", "signature") ] "refused";
  Registry.inc ~labels:[ ("reason", "framing") ] "refused";
  Registry.inc ~labels:[ ("reason", "framing") ] "refused";
  check Alcotest.int64 "plain counter" 3L (Registry.counter "req");
  check Alcotest.int64 "labelled instance" 2L
    (Registry.counter ~labels:[ ("reason", "framing") ] "refused");
  check Alcotest.int64 "family total" 3L (Registry.counter_family_total "refused");
  check Alcotest.int64 "absent counter is 0" 0L (Registry.counter "nope")

let test_registry_label_order_irrelevant () =
  with_fresh @@ fun () ->
  Registry.inc ~labels:[ ("a", "1"); ("b", "2") ] "c";
  Registry.inc ~labels:[ ("b", "2"); ("a", "1") ] "c";
  check Alcotest.int64 "same instance" 2L (Registry.counter ~labels:[ ("a", "1"); ("b", "2") ] "c")

let test_registry_disabled_writers_noop () =
  Snapshot.reset_all ();
  Control.disable ();
  Registry.inc "ghost";
  Registry.set "ghost_gauge" 1.0;
  Registry.observe "ghost_hist" 1.0;
  check Alcotest.int64 "counter untouched" 0L (Registry.counter "ghost");
  check Alcotest.bool "gauge untouched" true (Registry.gauge "ghost_gauge" = None);
  check Alcotest.int "nothing registered" 0 (List.length (Registry.entries ()))

let test_registry_type_clash_rejected () =
  with_fresh @@ fun () ->
  Registry.inc "metric";
  Alcotest.check_raises "gauge write to counter" (Invalid_argument "Registry.set: metric is not a gauge")
    (fun () -> Registry.set "metric" 1.0)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Num x, Json.Num y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | Json.Str x, Json.Str y -> x = y
  | Json.List x, Json.List y -> List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2) x y
  | _ -> false

let test_json_roundtrip_structures () =
  let samples =
    [ Json.Null;
      Json.Bool true;
      Json.Num 0.0;
      Json.Num (-12345.0);
      Json.Num 3.25;
      Json.Str "with \"quotes\", \\ and \n tabs\t";
      Json.List [ Json.Num 1.0; Json.Str "x"; Json.Null ];
      Json.Obj [ ("a", Json.Num 1.0); ("nested", Json.Obj [ ("b", Json.List [] ) ]) ] ]
  in
  List.iter
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> check Alcotest.bool (Json.to_string j) true (json_equal j j')
      | Error e -> Alcotest.failf "parse failed on %s: %s" (Json.to_string j) e)
    samples

let test_json_rejects_garbage () =
  List.iter
    (fun s -> check Alcotest.bool s true (Result.is_error (Json.of_string s)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_nonfinite_prints_null () =
  check Alcotest.string "nan" "null" (Json.to_string (Json.Num Float.nan));
  check Alcotest.string "inf" "null" (Json.to_string (Json.Num Float.infinity))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let populated_snapshot () =
  with_fresh @@ fun () ->
  Span.with_ ~name:"build" (fun () -> Span.with_ ~name:"encrypt" (fun () -> ()));
  Registry.inc ~labels:[ ("reason", "signature") ] ~by:4L "refused_total";
  Registry.set "cpi" 1.5;
  Registry.observe "load_ns" 123.0;
  Registry.observe "load_ns" 456.0;
  Snapshot.capture ()

let test_jsonl_roundtrip () =
  let snap = populated_snapshot () in
  let lines = String.split_on_char '\n' (String.trim (Export.to_jsonl snap)) in
  check Alcotest.int "one line per record" 5 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok j -> j
        | Error e -> Alcotest.failf "unparseable JSONL line %s: %s" line e)
      lines
  in
  let typed ty =
    List.filter (fun j -> Json.member "type" j = Some (Json.Str ty)) parsed
  in
  check Alcotest.int "2 spans" 2 (List.length (typed "span"));
  check Alcotest.int "1 counter" 1 (List.length (typed "counter"));
  check Alcotest.int "1 gauge" 1 (List.length (typed "gauge"));
  check Alcotest.int "1 histogram" 1 (List.length (typed "histogram"));
  let counter = List.hd (typed "counter") in
  check Alcotest.(option string) "counter name" (Some "refused_total")
    (Option.bind (Json.member "name" counter) Json.to_str);
  check Alcotest.(option (float 1e-9)) "counter value" (Some 4.0)
    (Option.bind (Json.member "value" counter) Json.to_float)

let test_chrome_trace_valid () =
  let snap = populated_snapshot () in
  match Json.of_string (Export.to_chrome_trace snap) with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok root ->
    let events =
      match Option.bind (Json.member "traceEvents" root) Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "missing traceEvents array"
    in
    (* 2 spans as ph:X plus 1 counter as ph:C *)
    check Alcotest.int "event count" 3 (List.length events);
    let phases =
      List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.to_str) events
    in
    check Alcotest.int "complete events" 2 (List.length (List.filter (( = ) "X") phases));
    check Alcotest.int "counter events" 1 (List.length (List.filter (( = ) "C") phases));
    List.iter
      (fun e ->
        if Option.bind (Json.member "ph" e) Json.to_str = Some "X" then begin
          check Alcotest.bool "has ts" true (Json.member "ts" e <> None);
          check Alcotest.bool "has dur" true (Json.member "dur" e <> None);
          check Alcotest.bool "has pid" true (Json.member "pid" e <> None);
          check Alcotest.bool "has tid" true (Json.member "tid" e <> None)
        end)
      events

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_table_renders () =
  let snap = populated_snapshot () in
  let out = Format.asprintf "%a" Export.pp_table snap in
  List.iter
    (fun needle -> check Alcotest.bool needle true (contains ~needle out))
    [ "build"; "encrypt"; "refused_total"; "reason=\"signature\""; "cpi"; "load_ns" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [ ( "span",
        [ Alcotest.test_case "nesting and depth" `Quick test_span_nesting_and_depth;
          Alcotest.test_case "timing monotone" `Quick test_span_timing_monotone;
          Alcotest.test_case "records on exception" `Quick test_span_records_on_exception;
          Alcotest.test_case "disabled no-op" `Quick test_span_disabled_is_noop;
          Alcotest.test_case "aggregate" `Quick test_span_aggregate ] );
      ( "histogram",
        [ histogram_quantile_fuzz;
          Alcotest.test_case "quantile exact buckets" `Quick
            test_histogram_quantile_exact_buckets;
          Alcotest.test_case "registry quantile accessor" `Quick
            test_registry_quantile_accessor;
          Alcotest.test_case "summary" `Quick test_histogram_summary;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          histogram_quantiles_in_range ] );
      ( "registry",
        [ Alcotest.test_case "counters and families" `Quick test_registry_counters_and_families;
          Alcotest.test_case "label order" `Quick test_registry_label_order_irrelevant;
          Alcotest.test_case "disabled writers no-op" `Quick test_registry_disabled_writers_noop;
          Alcotest.test_case "type clash rejected" `Quick test_registry_type_clash_rejected ] );
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip_structures;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "non-finite prints null" `Quick test_json_nonfinite_prints_null ] );
      ( "export",
        [ Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "chrome trace valid" `Quick test_chrome_trace_valid;
          Alcotest.test_case "table renders" `Quick test_table_renders ] ) ]
