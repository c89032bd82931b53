(* Per-layer breakdown of traced ops, read off the library's own
   telemetry spans.

   A traced op runs with telemetry switched on, inside a root span named
   [op].  Its completed spans carry their nesting depth, so a span's self
   time is its duration minus that of its children, and the self times
   of an op's spans sum exactly to the op's duration: the root's own
   self time is the [unattributed] row.  Each input keeps only its
   fastest traced op. *)

module T = Eric_telemetry

let root = "op"

type layer = { calls : int; incl_ns : int; self_ns : int }

type op_record = {
  total_ns : int;
  layers : (string * layer) list;
  counts : (string * float) list;
  events : T.Span.event list;
}

let best : op_record option array ref = ref [||]
let counts : (string, float) Hashtbl.t = Hashtbl.create 8

let reset ~inputs = best := Array.make inputs None

(* Adds [v] to the traced op's [name] count; a no-op outside traced ops. *)
let count name v =
  if T.Control.is_enabled () then
    Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let add_layer tbl name l =
  Hashtbl.replace tbl name
    (match Hashtbl.find_opt tbl name with
    | None -> l
    | Some a ->
      { calls = a.calls + l.calls; incl_ns = a.incl_ns + l.incl_ns; self_ns = a.self_ns + l.self_ns })

let to_list tbl = Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []

(* Children complete before their parent, so [child.(d)] holds the time
   of the depth-[d] spans completed since the last span at depth [d-1]
   closed: exactly that span's children. *)
let layers_of (events : T.Span.event list) =
  let depth = List.fold_left (fun m (e : T.Span.event) -> max m e.T.Span.depth) 0 events in
  let child = Array.make (depth + 2) 0 in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (e : T.Span.event) ->
      let d = e.T.Span.depth and dur = Int64.to_int e.T.Span.dur_ns in
      let self_ns = dur - child.(d + 1) in
      child.(d + 1) <- 0;
      child.(d) <- child.(d) + dur;
      let name = if d = 0 then "unattributed" else e.T.Span.name in
      add_layer tbl name { calls = 1; incl_ns = dur; self_ns })
    events;
  to_list tbl

(* Counts the library keeps in its metric registry. *)
let library_counts () =
  let hist_sum name = Option.fold ~none:0.0 ~some:T.Histogram.sum (T.Registry.histogram name) in
  [ ("hde.load_cycles", hist_sum "hde.load_cycles_hist");
    ("ingest.bytes_in", Int64.to_float (T.Registry.counter "ingest.bytes_in")) ]

(* Run [f] as a traced op on [input]. *)
let op ~input f =
  T.Snapshot.reset_all ();
  Hashtbl.reset counts;
  let v = T.Control.with_enabled (fun () -> T.Span.with_ ~cat:"perf" ~name:root f) in
  let events = T.Span.completed () in
  let total_ns =
    List.fold_left
      (fun a (e : T.Span.event) -> if e.T.Span.depth = 0 then a + Int64.to_int e.T.Span.dur_ns else a)
      0 events
  in
  (match !best.(input) with
  | Some b when b.total_ns <= total_ns -> ()
  | _ ->
    !best.(input) <-
      Some
        { total_ns;
          layers = layers_of events;
          counts = library_counts () @ to_list counts;
          events });
  v

(* ---- aggregation over inputs --------------------------------------- *)

let traced () = List.filter_map Fun.id (Array.to_list !best)
let ops () = List.length (traced ())
let total_ns () = List.fold_left (fun a b -> a + b.total_ns) 0 (traced ())

(* One row per span name, largest self time first. *)
let rows () =
  let tbl = Hashtbl.create 32 in
  List.iter (fun b -> List.iter (fun (name, l) -> add_layer tbl name l) b.layers) (traced ());
  List.sort (fun (_, a) (_, b) -> compare b.self_ns a.self_ns) (to_list tbl)

let count_total name =
  List.fold_left
    (fun a b -> a +. Option.value ~default:0.0 (List.assoc_opt name b.counts))
    0.0 (traced ())

let ms ns = float_of_int ns /. 1e6

let pp_table fmt () =
  let total = total_ns () and n = float_of_int (max 1 (ops ())) in
  Format.fprintf fmt "%-22s %8s %12s %12s %12s %7s@\n" "span" "count" "total ms" "self ms"
    "self ms/op" "share";
  List.iter
    (fun (name, l) ->
      Format.fprintf fmt "%-22s %8d %12.3f %12.3f %12.4f %6.2f%%@\n" name l.calls (ms l.incl_ns)
        (ms l.self_ns) (ms l.self_ns /. n)
        (100.0 *. float_of_int l.self_ns /. float_of_int (max 1 total)))
    (rows ());
  Format.fprintf fmt "%-22s %8d %12.3f@\n" "traced total" (ops ()) (ms total)

(* Chrome trace_event JSON of the reported ops. *)
let chrome_trace () =
  T.Export.to_chrome_trace
    { T.Snapshot.spans = List.concat_map (fun b -> b.events) (traced ());
      counters = [];
      gauges = [];
      histograms = [] }
