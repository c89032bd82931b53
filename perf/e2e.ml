(* The benchmark's four workloads: build, deliver, campaign and fuzz.

   Each workload's setup generates every input from the seed.  An op
   then runs one request through the public API and returns a checker,
   which the loop calls after the op's timer has stopped.  Traced ops run
   the same code with telemetry switched on, so the per-layer split comes
   from the spans the library records itself; the few calls an op makes
   that the library does not wrap get a span here. *)

module W = Eric_workloads.Workloads
module Driver = Eric_cc.Driver
module Prng = Eric_util.Prng
module Program = Eric_rv.Program
module Soc = Eric_sim.Soc
module Campaign = Eric_fleet.Campaign
module Artifact_cache = Eric_fleet.Artifact_cache
module Oracle = Eric_verif.Oracle
open Eric

type check = unit -> (unit, string) result

type instance = {
  inputs : int;  (** seeded op inputs; the loop makes passes over them *)
  op : int -> check;
}

type t = {
  name : string;
  setup : seed:int -> smoke:bool -> instance;
      (** [smoke] shrinks the inputs for the self-test *)
}

let ok = function Ok v -> v | Error msg -> failwith msg
let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt
let mode = Config.Full
let span name f = Eric_telemetry.Span.with_ ~cat:"perf" ~name f

let rng_of ~seed salt = Prng.create ~seed:(Int64.add (Int64.of_int seed) salt)

(* [per_group] copies of each of [groups] indices in seeded order: every
   seed runs the same mix, so quantiles over inputs do not move with the
   draw. *)
let balanced rng ~groups ~per_group =
  let a = Array.init (groups * per_group) (fun i -> i mod groups) in
  Prng.shuffle rng a;
  a

(* ---- build --------------------------------------------------------- *)

(* The distributor's per-program latency (Fig 6): a full compile and
   encrypt of a large-dataset workload for one of 64 provisioned
   targets. *)
let build =
  let setup ~seed ~smoke =
    let rng = rng_of ~seed 0xB0L in
    let sources = Array.of_list (List.map (fun w -> w.W.source) W.all) in
    let reference = Array.map (fun s -> Program.to_binary (Driver.compile_exn s)) sources in
    let keys = Array.init 64 (fun _ -> Protocol.provision (Target.of_id (Prng.bits64 rng))) in
    let inputs =
      Array.map
        (fun s -> (s, Prng.int rng ~bound:(Array.length keys)))
        (balanced rng ~groups:(Array.length sources) ~per_group:(if smoke then 1 else 4))
    in
    let op i =
      let s, k = inputs.(i) in
      let key = keys.(k) and reference = reference.(s) in
      match Source.build ~mode ~key sources.(s) with
      | Error e -> fun () -> fail "compile: %s" e
      | Ok b ->
        fun () ->
          if Program.to_binary b.Source.image <> reference then
            fail "image differs from the reference compile"
          else (
            match Encrypt.decrypt ~key b.Source.package with
            | Error e -> fail "package does not validate: %a" Encrypt.pp_error e
            | Ok (image, _) when Program.to_binary image <> reference ->
              fail "decrypted image differs from the reference compile"
            | Ok _ -> Ok ())
    in
    { inputs = Array.length inputs; op }
  in
  { name = "build"; setup }

(* ---- deliver ------------------------------------------------------- *)

let guarded_hde =
  { Eric_hw.Hde.default_config with
    Eric_hw.Hde.guard = Eric_hw.Guard.fetch_and_scrub ~interval_cycles:1024 }

(* The device side (Fig 7): personalize a prepared small-dataset build,
   ship it, validate it in the HDE and run it on the SoC.  Every fourth
   device runs the fetch+scrub integrity guard. *)
let deliver =
  let setup ~seed ~smoke =
    let rng = rng_of ~seed 0xDE1L in
    let sources = Array.of_list (List.map (fun w -> w.W.source_small) W.all) in
    let prepared = Array.map (fun s -> ok (Source.prepare ~mode s)) sources in
    (* Expected behaviour from the IR interpreter on unoptimised IR,
       which shares nothing with the back end or the SoC. *)
    let expected =
      let options = { Driver.default_options with Driver.optimize = false } in
      Array.map (fun s -> Eric_cc.Ir_interp.run (ok (Driver.compile_to_ir ~options s))) sources
    in
    let targets =
      Array.init 64 (fun d ->
          let hde = if d mod 4 = 0 then guarded_hde else Eric_hw.Hde.default_config in
          Target.of_id ~hde (Prng.bits64 rng))
    in
    let keys = Array.map Protocol.provision targets in
    (* Simulated results are deterministic per (program, guard): taken
       once on device 1 (unguarded) and device 0 (guarded), every op must
       reproduce them exactly, cycles included. *)
    let reference =
      Array.map
        (fun p ->
          Array.map
            (fun d ->
              let b = Source.personalize ~key:keys.(d) p in
              match Target.receive_bytes targets.(d) (Package.serialize b.Source.package) with
              | Error e -> failwith (Format.asprintf "reference run: %a" Target.pp_load_error e)
              | Ok loaded -> Target.run targets.(d) loaded)
            [| 1; 0 |])
        prepared
    in
    (* Group 2w runs program w on a guarded device, group 2w+1 on an
       unguarded one. *)
    let inputs =
      Array.map
        (fun g ->
          let d = 4 * Prng.int rng ~bound:16 in
          (g / 2, if g mod 2 = 0 then d else d + 1 + Prng.int rng ~bound:3))
        (balanced rng ~groups:(2 * Array.length sources) ~per_group:(if smoke then 1 else 2))
    in
    let check w d (r : Soc.result) () =
      let e = expected.(w) in
      if r.Soc.status <> Eric_sim.Cpu.Exited e.Eric_cc.Ir_interp.exit_code then
        fail "%a, interpreter exits %d" Oracle.pp_behaviour (Oracle.of_result r)
          e.Eric_cc.Ir_interp.exit_code
      else if r.Soc.output <> e.Eric_cc.Ir_interp.output then
        fail "output differs from the IR interpreter"
      else if r <> reference.(w).(if d mod 4 = 0 then 1 else 0) then
        fail "simulated result differs from the reference run"
      else Ok ()
    in
    let op i =
      let w, d = inputs.(i) in
      let target = targets.(d) in
      let b = Source.personalize ~key:keys.(d) prepared.(w) in
      let wire = span "build.serialize" (fun () -> Package.serialize b.Source.package) in
      match span "ingest.receive_bytes" (fun () -> Target.receive_bytes target wire) with
      | Error e -> fun () -> fail "refused: %a" Target.pp_load_error e
      | Ok loaded ->
        let r = span "target.run" (fun () -> Target.run target loaded) in
        Trace.count "sim.instructions" (Int64.to_float r.Soc.instructions);
        Trace.count "sim.guard_cycles" (Int64.to_float r.Soc.guard_cycles);
        Trace.count "sim_cycles_per_op" (Int64.to_float (Soc.total_cycles r));
        check w d r
    in
    { inputs = Array.length inputs; op }
  in
  { name = "deliver"; setup }

(* ---- campaign ------------------------------------------------------ *)

(* The operator's time to roll an update over a fleet: a warm campaign
   of one workload program (large dataset) to every enrolled device over
   a clean channel, validating each delivery without running it.  The
   per-device work is the same at any fleet size; 100 devices keep the
   op short enough to find undisturbed runs on a shared host (see
   README.md). *)
let campaign =
  let setup ~seed ~smoke =
    let rng = rng_of ~seed 0xCA4L in
    let devices = if smoke then 50 else 100 in
    let registry = Eric_fleet.Registry.create () in
    for _ = 1 to devices do
      ignore (ok (Eric_fleet.Registry.enroll_legacy registry (Prng.bits64 rng)))
    done;
    let cache = Artifact_cache.create () in
    let order = balanced rng ~groups:(List.length W.all) ~per_group:1 in
    let sources =
      Array.map (fun w -> (List.nth W.all w).W.source) (if smoke then Array.sub order 0 2 else order)
    in
    (* Compile every program into the cache; one cold campaign boots
       every target.  A package's size does not depend on the key. *)
    let wire_bytes =
      Array.map
        (fun source ->
          let prepared, _ = ok (Artifact_cache.get_or_compile cache ~mode source) in
          let b = Source.personalize ~key:(Bytes.make 32 '\000') prepared in
          devices * Package.size b.Source.package)
        sources
    in
    let cold = ok (Campaign.deploy ~cache ~registry sources.(0)) in
    if cold.Campaign.wire_bytes <> wire_bytes.(0) then failwith "cold campaign lost devices";
    let op i =
      match Campaign.deploy ~cache ~registry sources.(i) with
      | Error e -> fun () -> fail "compile: %s" e
      | Ok r ->
        fun () ->
          if not (Campaign.all_accounted r) then fail "devices unaccounted for"
          else if r.Campaign.delivered <> devices then
            fail "%d of %d devices delivered" r.Campaign.delivered devices
          else if r.Campaign.wire_bytes <> wire_bytes.(i) then
            fail "%d wire bytes shipped, expected %d" r.Campaign.wire_bytes wire_bytes.(i)
          else if r.Campaign.cache <> Artifact_cache.Memory_hit then
            fail "artifact cache %s" (Artifact_cache.outcome_label r.Campaign.cache)
          else Ok ()
    in
    { inputs = Array.length sources; op }
  in
  { name = "campaign"; setup }

(* ---- fuzz ---------------------------------------------------------- *)

(* Verification throughput: the three-path differential oracle on
   generated programs. *)
let fuzz =
  let setup ~seed ~smoke =
    let rng = rng_of ~seed 0xF0L in
    let programs =
      Array.init (if smoke then 10 else 150) (fun _ ->
          (Eric_verif.Gen.generate ~seed:(Prng.bits64 rng) ()).Eric_verif.Gen.source)
    in
    let op i =
      match Oracle.run programs.(i) with
      | Error e -> fun () -> fail "compile: %s" e
      | Ok r when Oracle.agree r || Oracle.exhausted r -> fun () -> Ok ()
      | Ok r -> fun () -> fail "divergence:@ %a" Oracle.pp_report r
    in
    { inputs = Array.length programs; op }
  in
  { name = "fuzz"; setup }

let all = [ build; deliver; campaign; fuzz ]
