(* Bechamel micro-benchmarks: the primitive operations behind each table
   and figure.  One Test.make per experiment family:
   - Table II's units: SHA-256 core (both compressions), keystream, XOR
     cipher, PUF response,
     and a device's boot (manufacture, key vote, target boot);
   - Fig 5/6's compiler path: full compilation and encrypting build;
   - Fig 7's load path: package personalize, decrypt+validate and SoC
     execution, with and without the integrity guard;
   - the differential oracle's IR interpreter on the same program. *)

open Bechamel
open Toolkit

let buf_4k = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF))

(* As many blocks as [Sha256.digest buf_4k] compresses, its 64 and a pad
   block; a compression's time does not depend on the bytes. *)
let blocks_65 = Bytes.make (65 * 64) '\x5a'
let chain = Bytes.create 32
let key = Bytes.of_string "0123456789abcdef0123456789abcdef"

let quick_source = (List.nth Eric_workloads.Workloads.all 4).Eric_workloads.Workloads.source
(* crc32 *)

let quick_image = lazy (Eric_cc.Driver.compile_exn quick_source)

let quick_prepared = lazy (Eric.Encrypt.prepare ~mode:Eric.Config.Full (Lazy.force quick_image))
let quick_package = lazy (fst (Eric.Encrypt.personalize ~key (Lazy.force quick_prepared)))

(* crc32 on its small dataset: 100,180 simulated instructions *)
let quick_small_source =
  (List.nth Eric_workloads.Workloads.all 4).Eric_workloads.Workloads.source_small

let quick_small_image = lazy (Eric_cc.Driver.compile_exn quick_small_source)

(* ...and as unoptimised IR, which perf's [deliver] set-up interprets for
   its expected outputs. *)
let quick_small_ir =
  lazy
    (let options = { Eric_cc.Driver.default_options with Eric_cc.Driver.optimize = false } in
     match Eric_cc.Driver.compile_to_ir ~options quick_small_source with
     | Ok ir -> ir
     | Error e -> failwith e)

let puf_device = lazy (Eric_puf.Device.manufacture 99L)

let word = Eric_rv.Encode.encode (Eric_rv.Inst.I (Addi, Eric_rv.Reg.a 0, Eric_rv.Reg.a 1, 42))

let tests =
  Test.make_grouped ~name:"eric"
    [ Test.make ~name:"sha256-4KiB" (Staged.stage (fun () -> Eric_crypto.Sha256.digest buf_4k));
      (* The same 65 compressions in OCaml, which runs wherever the host
         lacks the SHA extensions. *)
      Test.make ~name:"sha256-4KiB-portable"
        (Staged.stage (fun () ->
             for b = 0 to 64 do
               Eric_crypto.Sha256.portable_compress chain blocks_65 (64 * b)
             done));
      Test.make ~name:"keystream-4KiB"
        (Staged.stage (fun () ->
             Eric_crypto.Keystream.take (Eric_crypto.Keystream.create ~key) 4096));
      Test.make ~name:"xor-cipher-4KiB"
        (Staged.stage (fun () -> Eric_crypto.Keystream.xor ~key buf_4k));
      Test.make ~name:"hmac-derive" (Staged.stage (fun () ->
          Eric.Kmu.derive ~puf_key:key Eric.Kmu.default_context));
      Test.make ~name:"decode-word" (Staged.stage (fun () -> Eric_rv.Decode.decode word));
      Test.make ~name:"rvc-expand" (Staged.stage (fun () -> Eric_rv.Rvc.expand 0x4505));
      Test.make ~name:"puf-response"
        (Staged.stage (fun () ->
             let d = Lazy.force puf_device in
             Eric_puf.Device.respond d (Eric_puf.Device.challenge_set d)));
      (* The boot path: draw a die's silicon, vote its key, and both plus
         the KMU's derivation ([Target.of_id]). *)
      Test.make ~name:"puf-manufacture"
        (Staged.stage (fun () -> Eric_puf.Device.manufacture 99L));
      Test.make ~name:"puf-key"
        (Staged.stage (fun () -> Eric_puf.Device.puf_key (Lazy.force puf_device)));
      Test.make ~name:"target-boot" (Staged.stage (fun () -> Eric.Target.of_id 99L));
      (* The fixed cost every compile pays, whatever its source. *)
      Test.make ~name:"compile-empty"
        (Staged.stage (fun () ->
             match Eric_cc.Driver.compile "int main() { return 0; }" with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"compile-crc32"
        (Staged.stage (fun () ->
             match Eric_cc.Driver.compile quick_source with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"eric-build-crc32"
        (Staged.stage (fun () ->
             match Eric.Source.build ~mode:Eric.Config.Full ~key quick_source with
             | Ok _ -> ()
             | Error e -> failwith e));
      Test.make ~name:"package-decrypt-validate"
        (Staged.stage (fun () ->
             match Eric.Encrypt.decrypt ~key (Lazy.force quick_package) with
             | Ok _ -> ()
             | Error _ -> failwith "decrypt failed"));
      Test.make ~name:"package-personalize-crc32"
        (Staged.stage (fun () -> Eric.Encrypt.personalize ~key (Lazy.force quick_prepared)));
      Test.make ~name:"soc-run-crc32"
        (Staged.stage (fun () -> Eric_sim.Soc.run_program (Lazy.force quick_small_image)));
      (* The same run under the integrity guard: its host cost is the
         difference between the two rows. *)
      Test.make ~name:"soc-run-crc32-guarded"
        (Staged.stage (fun () ->
             let image = Lazy.force quick_small_image in
             Eric_sim.Soc.run_loaded
               ~guard:(Eric_hw.Guard.fetch_and_scrub ~interval_cycles:1024)
               ~load_cycles:0L image (Eric_sim.Soc.load image)));
      Test.make ~name:"ir-interp-crc32"
        (Staged.stage (fun () -> Eric_cc.Ir_interp.run (Lazy.force quick_small_ir)));
      (* The telemetry no-op guarantee: with recording disabled, an
         instrumentation site must cost one branch over the bare call.
         Compare these three rows (all should be within noise of each
         other and a handful of ns). *)
      Test.make ~name:"telemetry-off-baseline" (Staged.stage (fun () -> Sys.opaque_identity ()));
      Test.make ~name:"telemetry-off-span"
        (Staged.stage (fun () ->
             Eric_telemetry.Span.with_ ~name:"noop" (fun () -> Sys.opaque_identity ())));
      Test.make ~name:"telemetry-off-counter"
        (Staged.stage (fun () -> Eric_telemetry.Registry.inc "noop")) ]

let run () =
  Report.heading "Microbenchmarks (bechamel, monotonic clock, ns/run)";
  Printf.printf "SHA-256 compression selected on this host: %s\n"
    (if Eric_crypto.Sha256.sha_extensions then "x86 SHA extensions" else "portable OCaml");
  assert (not (Eric_telemetry.Control.is_enabled ()));
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> Printf.sprintf "%.1f" est
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      rows := [ name; ns; r2 ] :: !rows)
    results;
  Report.table ~header:[ "benchmark"; "ns/run"; "r^2" ]
    (List.sort compare !rows)
