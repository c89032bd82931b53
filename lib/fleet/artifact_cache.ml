type outcome = Memory_hit | Disk_hit | Miss

let outcome_label = function Memory_hit -> "hit" | Disk_hit -> "disk" | Miss -> "miss"

type t = {
  dir : string option;
  table : (string, Eric.Source.prepared) Hashtbl.t;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
}

let create ?dir () =
  { dir; table = Hashtbl.create 8; hits = 0; disk_hits = 0; misses = 0 }

let hits t = t.hits
let disk_hits t = t.disk_hits
let misses t = t.misses
let lookups t = t.hits + t.disk_hits + t.misses

let hit_rate t =
  let n = lookups t in
  if n = 0 then 0.0 else float_of_int (t.hits + t.disk_hits) /. float_of_int n

(* The cache key must change whenever the compiler would emit different
   bytes (options) or the package layout/selection would differ (mode,
   including selection seeds), so every component is spelled into the
   digest input explicitly. *)
let selection_fingerprint = function
  | Eric.Config.Select_all -> "all"
  | Eric.Config.Select_fraction { fraction; seed } -> Printf.sprintf "frac=%h,seed=%Ld" fraction seed
  | Eric.Config.Select_ranges ranges ->
    "ranges="
    ^ String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) ranges)

let mode_fingerprint = function
  | Eric.Config.Full -> "full"
  | Eric.Config.Partial sel -> "partial:" ^ selection_fingerprint sel
  | Eric.Config.Field (Eric.Config.Imm_fields, sel) -> "field-imm:" ^ selection_fingerprint sel
  | Eric.Config.Field (Eric.Config.All_but_opcode, sel) ->
    "field-abo:" ^ selection_fingerprint sel
  | Eric.Config.Field (Eric.Config.Control_flow, sel) ->
    "field-cf:" ^ selection_fingerprint sel

(* The driver always links the prelude and always verifies, but the
   key keeps its v1 spelling with those two former options written as
   their fixed values: disk caches written before they were removed, and
   the digests in [--report-out] and [fleet campaign] output, stay
   valid.  Compiling the prelude once per process instead of with every
   source leaves every image byte-identical, so it did not change the
   key either. *)
let options_fingerprint (o : Eric_cc.Driver.options) =
  Printf.sprintf "optimize=%b,compress=%b,prelude=true,verify=true,transform=%s"
    o.Eric_cc.Driver.optimize o.Eric_cc.Driver.compress
    (match o.Eric_cc.Driver.transform with
    | None -> "none"
    | Some t -> t.Eric_cc.Driver.t_tag)

let digest ~options ~mode source =
  Eric_crypto.Sha256.hex
    (Eric_crypto.Sha256.digest_string
       (String.concat "\x00"
          [ "eric-artifact-v1"; options_fingerprint options; mode_fingerprint mode; source ]))

let count_event t outcome =
  (match outcome with
  | Memory_hit -> t.hits <- t.hits + 1
  | Disk_hit -> t.disk_hits <- t.disk_hits + 1
  | Miss -> t.misses <- t.misses + 1);
  if Eric_telemetry.Control.is_enabled () then
    Eric_telemetry.Registry.inc
      ~labels:[ ("result", outcome_label outcome) ]
      "fleet.cache.events_total"

let image_path dir key = Filename.concat dir (key ^ ".rexe")

(* A missing or unreadable image is a miss, a corrupt one too. *)
let read_image path =
  Result.to_option
    (Result.bind (Eric_util.Wire.read_file path) (fun data ->
         Eric_rv.Program.of_binary (Bytes.of_string data)))

(* The disk tier's directory is made on the first write. *)
let write_image dir key image =
  Result.bind (Eric_util.Wire.ensure_dir dir) (fun () ->
      Eric_util.Wire.write_atomic (image_path dir key) (fun oc ->
          output_bytes oc (Eric_rv.Program.to_binary image)))

let get_or_compile t ?(options = Eric_cc.Driver.default_options) ~mode source =
  let key = digest ~options ~mode source in
  match Hashtbl.find_opt t.table key with
  | Some prepared ->
    count_event t Memory_hit;
    Ok (prepared, Memory_hit)
  | None -> (
    (* Disk tier: the compiled image survives across processes; only the
       (cheap relative to compilation) prepare step reruns. *)
    match Option.bind t.dir (fun dir -> read_image (image_path dir key)) with
    | Some image ->
      let prepared = Eric.Source.prepare_image ~mode image in
      Hashtbl.replace t.table key prepared;
      count_event t Disk_hit;
      Ok (prepared, Disk_hit)
    | None -> (
      match Eric.Source.prepare ~options ~mode source with
      | Error _ as e -> e
      | Ok prepared -> (
        let written =
          match t.dir with
          | None -> Ok ()
          | Some dir -> write_image dir key prepared.Eric.Source.p_image
        in
        match written with
        | Error _ as e -> e
        | Ok () ->
          Hashtbl.replace t.table key prepared;
          count_event t Miss;
          Ok (prepared, Miss))))
