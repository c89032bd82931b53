(* Every on-disk registry: a plain EFRG file (the one-shard case) or a
   hash-partitioned directory of per-shard EFRG files behind a tiny
   manifest.

   Manifest wire format (strict, like every ERIC container):

     off  size  field
     0    4     magic "EFRS"
     4    2     version (1)
     6    2     reserved (must be zero)
     8    4     shard count S (1..65535)
     12   4*S   per-shard entry counts (u32 each)

   Shard i lives in shard-%04d.efrg, a standard version-2 EFRG file; a
   missing shard file is an empty shard, so creating a sharded registry
   costs one manifest write regardless of S.  Opening a directory reads
   the manifest only; shard files parse lazily on first touch and are
   released (with write-back) by fleet walks to bound memory.  A plain
   file is its own single shard, parsed when opened. *)

let magic = "EFRS"
let manifest_version = 1
let manifest_name = "MANIFEST"
let max_shards = 0xFFFF

type t = {
  path : string;
  sharded : bool; (* a directory with a manifest; false = a plain EFRG file *)
  shards : int;
  counts : int array; (* live entry counts, persisted in the manifest *)
  opened : (int, Registry.t) Hashtbl.t;
  dirty : bool array;
  lock : Mutex.t;
}

let ( let* ) = Result.bind

(* The finalizer spreads sequential factory ids evenly instead of
   striping them. *)
let shard_of ~shards id =
  Int64.to_int
    (Int64.rem (Int64.logand (Eric_util.Prng.mix64 id) Int64.max_int) (Int64.of_int shards))

let manifest_file dir = Filename.concat dir manifest_name

let shard_file t i =
  if t.sharded then Filename.concat t.path (Printf.sprintf "shard-%04d.efrg" i) else t.path

let is_sharded path =
  Sys.file_exists path && Sys.is_directory path && Sys.file_exists (manifest_file path)

let make ~path ~sharded counts =
  let shards = Array.length counts in
  {
    path;
    sharded;
    shards;
    counts;
    opened = Hashtbl.create 16;
    dirty = Array.make shards false;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let count t = locked t (fun () -> Array.fold_left ( + ) 0 t.counts)

(* ------------------------------------------------------------------ *)
(* Manifest I/O                                                        *)
(* ------------------------------------------------------------------ *)

module W = Eric_util.Wire

let manifest_bytes t =
  let buf = Buffer.create (12 + (4 * t.shards)) in
  Buffer.add_string buf magic;
  W.add_u16 buf manifest_version;
  W.add_u16 buf 0;
  W.add_u32 buf t.shards;
  Array.iter (W.add_u32 buf) t.counts;
  Buffer.to_bytes buf

let write_manifest t =
  if t.sharded then
    W.write_atomic (manifest_file t.path) (fun oc -> output_bytes oc (manifest_bytes t))
  else Ok ()

let read_manifest ~dir c =
  let len = W.remaining c in
  if len < 12 then W.fail c "manifest truncated";
  W.magic c magic "bad manifest magic (not a sharded ERIC registry)";
  let v = W.u16 c "version" in
  if v <> manifest_version then W.fail c (Printf.sprintf "unsupported manifest version %d" v);
  if W.u16 c "reserved" <> 0 then W.fail c "reserved bytes set";
  let s = W.i32 c "shard count" in
  if s < 1 || s > max_shards then W.fail c (Printf.sprintf "shard count %d out of range" s);
  if len <> 12 + (4 * s) then
    W.fail c (Printf.sprintf "manifest length %d does not match %d shard(s)" len s);
  let counts = Array.init s (fun _ -> W.i32 c "shard entry count") in
  if Array.exists (fun c -> c < 0) counts then W.fail c "negative shard count";
  make ~path:dir ~sharded:true counts

(* A plain file: one shard, already parsed. *)
let of_file path reg =
  let t = make ~path ~sharded:false [| Registry.count reg |] in
  Hashtbl.add t.opened 0 reg;
  t

let create_dir ~dir ~shards =
  if shards < 1 || shards > max_shards then
    Error (Printf.sprintf "shard count %d out of range (1..%d)" shards max_shards)
  else if is_sharded dir then Error (dir ^ ": already a sharded registry")
  else
    let* () = W.ensure_dir dir in
    let t = make ~path:dir ~sharded:true (Array.make shards 0) in
    let* () = write_manifest t in
    Ok t

let create ~shards path =
  if shards <> 0 then create_dir ~dir:path ~shards
  else begin
    let t = of_file path (Registry.create ()) in
    t.dirty.(0) <- true;
    Ok t
  end

let observe_open_ns ~kind start =
  Eric_telemetry.Registry.observe
    ~labels:[ ("kind", kind) ]
    "fleet.registry.open_ns"
    (Int64.to_float (Int64.sub (Eric_telemetry.Clock.now_ns ()) start))

let load path =
  Eric_telemetry.Span.with_ ~cat:"fleet" ~name:"fleet.registry.open" (fun () ->
      let start = Eric_telemetry.Clock.now_ns () in
      let kind, result =
        if is_sharded path then
          ( "manifest",
            W.decode_file ~format:"manifest" (manifest_file path) (read_manifest ~dir:path) )
        else ("file", Result.map (of_file path) (Registry.load path))
      in
      observe_open_ns ~kind start;
      result)

(* ------------------------------------------------------------------ *)
(* Lazy shard access                                                   *)
(* ------------------------------------------------------------------ *)

let open_shard t i =
  let path = shard_file t i in
  let start = Eric_telemetry.Clock.now_ns () in
  let reg = if Sys.file_exists path then Registry.load path else Ok (Registry.create ()) in
  observe_open_ns ~kind:"shard" start;
  Eric_telemetry.Registry.inc "fleet.registry.shard.opens_total";
  reg

let shard t i =
  match locked t (fun () -> Hashtbl.find_opt t.opened i) with
  | Some reg ->
    Eric_telemetry.Registry.inc "fleet.registry.shard.hits_total";
    Ok reg
  | None ->
    let* reg = open_shard t i in
    Ok
      (locked t (fun () ->
           match Hashtbl.find_opt t.opened i with
           | Some reg' -> reg'
           | None ->
             Hashtbl.add t.opened i reg;
             t.counts.(i) <- Registry.count reg;
             reg))

let save_shard t i reg =
  let* () = Registry.save reg (shard_file t i) in
  t.counts.(i) <- Registry.count reg;
  t.dirty.(i) <- false;
  Ok ()

let save t =
  locked t (fun () ->
      let* () =
        Hashtbl.fold
          (fun i reg acc ->
            let* () = acc in
            if t.dirty.(i) then save_shard t i reg
            else begin
              t.counts.(i) <- Registry.count reg;
              Ok ()
            end)
          t.opened (Ok ())
      in
      write_manifest t)

(* ------------------------------------------------------------------ *)
(* Entry operations (route to the owning shard)                        *)
(* ------------------------------------------------------------------ *)

let owner t id = shard t (shard_of ~shards:t.shards id)

let find t id = Result.map (fun reg -> Registry.find reg id) (owner t id)

let insert t id op =
  let i = shard_of ~shards:t.shards id in
  let* reg = shard t i in
  let* e = op reg in
  locked t (fun () ->
      t.dirty.(i) <- true;
      t.counts.(i) <- t.counts.(i) + 1);
  Ok e

let enroll ?epoch ?label ?enrollment t id =
  insert t id (fun reg -> Registry.enroll ?epoch ?label ?enrollment reg id)

let enroll_legacy ?epoch ?label t id =
  insert t id (fun reg -> Registry.enroll_legacy ?epoch ?label reg id)

let target ?env t (e : Registry.entry) =
  Result.map (fun reg -> Registry.target ?env reg e) (owner t e.Registry.device_id)

(* ------------------------------------------------------------------ *)
(* Whole-fleet traversal and conversion                                *)
(* ------------------------------------------------------------------ *)

let fold_entries t ~init ~f =
  let rec go i acc =
    if i = t.shards then Ok acc
    else
      match locked t (fun () -> Hashtbl.find_opt t.opened i) with
      | Some reg -> go (i + 1) (List.fold_left f acc (Registry.entries reg))
      | None ->
        let path = shard_file t i in
        if not (Sys.file_exists path) then go (i + 1) acc
        else
          let* acc = Registry.fold_file path ~init:acc ~f:(fun acc e -> Ok (f acc e)) in
          go (i + 1) acc
  in
  go 0 init

let walk ?(scan = ignore) t ~f =
  (* the scan is what makes a refused walk leave every file untouched *)
  let* () = fold_entries t ~init:() ~f:(fun () e -> scan e) in
  let rec go i acc =
    if i = t.shards then Ok (List.rev acc)
    else if locked t (fun () -> t.counts.(i)) = 0 then go (i + 1) acc
    else
      let* reg = shard t i in
      let* r = f reg in
      let* () =
        locked t (fun () ->
            let saved = save_shard t i reg in
            Hashtbl.remove t.opened i;
            saved)
      in
      go (i + 1) (r :: acc)
  in
  let* results = go 0 [] in
  let* () = locked t (fun () -> write_manifest t) in
  Ok results

let of_registry ~dir ~shards reg =
  let* t = create_dir ~dir ~shards in
  let* () =
    List.fold_left
      (fun acc (e : Registry.entry) ->
        let* () = acc in
        let* _ = insert t e.Registry.device_id (fun reg -> Registry.add reg e) in
        Ok ())
      (Ok ()) (Registry.entries reg)
  in
  let* () = save t in
  Ok t

let migrate ~file ~dir ~shards =
  let* () =
    if is_sharded file then Error (file ^ " is already a sharded registry")
    else if not (Sys.file_exists file) then Error ("registry " ^ file ^ " does not exist")
    else Ok ()
  in
  let* t = create_dir ~dir ~shards in
  (* Stream: route each decoded entry straight to its shard's temp
     file (header written with count 0 and patched at the end), so the
     single-file fleet is never resident and no shard file exists until
     its temp is renamed into place. *)
  let outs = Array.make shards None in
  let out i =
    match outs.(i) with
    | Some s -> Ok (W.channel s)
    | None ->
      let* s = W.stage (shard_file t i) in
      outs.(i) <- Some s;
      output_bytes (W.channel s) (Registry.header ~count:0);
      Ok (W.channel s)
  in
  let seen = Hashtbl.create 1024 in
  let buf = Buffer.create 256 in
  let routed =
    Registry.fold_file file ~init:() ~f:(fun () e ->
        if Hashtbl.mem seen e.Registry.device_id then
          Error
            (Printf.sprintf "duplicate entry: device %Ld is already enrolled" e.Registry.device_id)
        else begin
          Hashtbl.add seen e.Registry.device_id ();
          let i = shard_of ~shards e.Registry.device_id in
          let* oc = out i in
          Buffer.clear buf;
          Registry.serialize_entry buf e;
          Buffer.output_buffer oc buf;
          t.counts.(i) <- t.counts.(i) + 1;
          Ok ()
        end)
  in
  (* Patch each count in its temp file, then rename it into place; after
     a failure every remaining temp file is removed. *)
  let patch i s =
    match
      seek_out (W.channel s) 0;
      output_bytes (W.channel s) (Registry.header ~count:t.counts.(i))
    with
    | () -> W.commit s
    | exception Sys_error msg ->
      W.discard s;
      Error msg
  in
  let result = ref routed in
  Array.iteri
    (fun i ->
      Option.iter (fun s -> if Result.is_ok !result then result := patch i s else W.discard s))
    outs;
  let* () = !result in
  let* () = write_manifest t in
  Ok t

let to_registry t =
  let reg = Registry.create () in
  let* added =
    fold_entries t ~init:(Ok ()) ~f:(fun acc e ->
        let* () = acc in
        Result.map ignore (Registry.add reg e))
  in
  Result.map (fun () -> reg) added

let summary t =
  let* total, active, quarantined =
    fold_entries t ~init:(0, 0, 0) ~f:(fun (n, a, q) e ->
        match e.Registry.status with
        | Registry.Active -> (n + 1, a + 1, q)
        | Registry.Quarantined _ -> (n + 1, a, q + 1))
  in
  Ok
    (Printf.sprintf "%d device(s)%s, %d active, %d quarantined" total
       (if t.sharded then Printf.sprintf " in %d shard(s)" t.shards else "")
       active quarantined)
