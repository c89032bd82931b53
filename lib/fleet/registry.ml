type status = Active | Quarantined of string

type entry = {
  device_id : Eric_puf.Device.id;
  epoch : int;
  label : string;
  key : bytes;
  firmware_epoch : int;
  status : status;
  helper : Eric_puf.Enroll.helper option;
      (* fuzzy-extractor helper data from reliability-aware enrollment;
         None for legacy (v1) entries, which boot by plain majority vote *)
  instability_ppm : int;
      (* worst per-bit instability seen at enrollment or the last field
         survey, in parts per million (0 for legacy entries) *)
}

type t = {
  mutable rev_order : Eric_puf.Device.id list; (* newest first *)
  byid : (Eric_puf.Device.id, entry) Hashtbl.t;
  devices : (Eric_puf.Device.id, Eric_puf.Device.t) Hashtbl.t;
      (* simulated silicon is manufactured once per registry, not once per
         shipment — the stand-in for the hardware simply existing *)
  targets : (Eric_puf.Device.id * int * string, Eric.Target.t) Hashtbl.t;
      (* per (device, KMU context): Target.create replays the PUF
         majority-vote key derivation, which real silicon does once per
         boot, not once per packet *)
  mutable hde : Eric_hw.Hde.config option;
      (* fleet-wide HDE provisioning override (None = hardware default);
         the serve layer sets this to enable the runtime integrity guard
         on every device the registry boots *)
  lock : Mutex.t;
      (* guards the three tables and [rev_order] so engine workers can
         address targets concurrently.  Boots themselves run outside the
         lock: a boot consumes the device's private noise stream, so
         concurrent boots must be for *distinct* devices — the engine's
         one-job-per-device partitioning guarantees that. *)
}

let magic = "EFRG"
let version = 2
let min_version = 1
let header_size = 12

let create () =
  {
    rev_order = [];
    byid = Hashtbl.create 64;
    devices = Hashtbl.create 64;
    targets = Hashtbl.create 64;
    hde = None;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entries t = locked t (fun () -> List.rev_map (fun id -> Hashtbl.find t.byid id) t.rev_order)
let count t = locked t (fun () -> Hashtbl.length t.byid)
let find t id = locked t (fun () -> Hashtbl.find_opt t.byid id)
let mem t id = Option.is_some (find t id)
let active t = List.filter (fun e -> e.status = Active) (entries t)
let quarantined t = List.filter (fun e -> e.status <> Active) (entries t)

let context (e : entry) = { Eric.Kmu.epoch = e.epoch; label = e.label }

let device t id =
  match locked t (fun () -> Hashtbl.find_opt t.devices id) with
  | Some d -> d
  | None ->
    (* Manufacture is deterministic in [id], so a racing duplicate is
       identical; keep the first inserted instance as the one silicon. *)
    let d = Eric_puf.Device.manufacture id in
    locked t (fun () ->
        match Hashtbl.find_opt t.devices id with
        | Some d' -> d'
        | None ->
          Hashtbl.add t.devices id d;
          d)

let target_for ?env t ~context:(c : Eric.Kmu.context) id =
  let k = (id, c.Eric.Kmu.epoch, c.Eric.Kmu.label) in
  match locked t (fun () -> Hashtbl.find_opt t.targets k) with
  | Some tg -> tg
  | None ->
    (* An enrolled helper makes the fuzzy extractor the boot path for
       every context this device is addressed under (rotation included);
       legacy entries keep the plain majority-vote boot.  The boot runs
       outside the lock — see the [lock] invariant above. *)
    let hde = t.hde in
    let tg =
      match find t id with
      | Some { helper = Some h; _ } ->
        Eric.Target.create_with_helper ~context:c ?hde ?env (device t id) h
      | Some { helper = None; _ } | None -> Eric.Target.create ~context:c ?hde (device t id)
    in
    locked t (fun () ->
        match Hashtbl.find_opt t.targets k with
        | Some tg' -> tg'
        | None ->
          Hashtbl.add t.targets k tg;
          tg)

let target ?env t (e : entry) = target_for ?env t ~context:(context e) e.device_id

let set_hde t config =
  locked t (fun () ->
      t.hde <- Some config;
      (* Already-booted targets were built with the old silicon config;
         dropping the memo makes the next addressing re-boot under the
         new one (key reconstruction is re-paid — provisioning a fleet
         is rare, per-packet addressing is not). *)
      Hashtbl.reset t.targets)

let invalidate_targets t id =
  locked t (fun () ->
      let stale =
        Hashtbl.fold
          (fun ((id', _, _) as k) _ acc -> if Int64.equal id' id then k :: acc else acc)
          t.targets []
      in
      List.iter (Hashtbl.remove t.targets) stale)

let add t entry =
  locked t (fun () ->
      if Hashtbl.mem t.byid entry.device_id then
        Error (Printf.sprintf "device %Ld is already enrolled" entry.device_id)
      else begin
        Hashtbl.replace t.byid entry.device_id entry;
        t.rev_order <- entry.device_id :: t.rev_order;
        Ok entry
      end)

let instability_to_ppm worst = int_of_float (Float.round (worst *. 1_000_000.0))

let validate_context ~epoch ~label =
  if epoch < 0 then Error "epoch must be non-negative"
  else if String.length label > 0xFFFF then Error "label too long"
  else Ok { Eric.Kmu.epoch; label }

let enroll ?(epoch = Eric.Kmu.default_context.Eric.Kmu.epoch)
    ?(label = Eric.Kmu.default_context.Eric.Kmu.label) ?enrollment t device_id =
  let ( let* ) = Result.bind in
  let* context = validate_context ~epoch ~label in
  let* e =
    match enrollment with
    | Some e -> Ok e
    | None ->
      Result.map_error
        (fun msg -> Printf.sprintf "device %Ld: %s" device_id msg)
        (Eric_puf.Enroll.enroll (device t device_id))
  in
  let key = Eric.Kmu.derive ~puf_key:e.Eric_puf.Enroll.key context in
  let r =
    add t
      {
        device_id;
        epoch;
        label;
        key;
        firmware_epoch = 0;
        status = Active;
        helper = Some e.Eric_puf.Enroll.helper;
        instability_ppm = instability_to_ppm e.Eric_puf.Enroll.worst_instability;
      }
  in
  if Result.is_ok r && Eric_telemetry.Control.is_enabled () then
    Eric_telemetry.Registry.inc "fleet.registry.enrolled_total";
  r

let enroll_legacy ?(epoch = Eric.Kmu.default_context.Eric.Kmu.epoch)
    ?(label = Eric.Kmu.default_context.Eric.Kmu.label) t device_id =
  let ( let* ) = Result.bind in
  let* context = validate_context ~epoch ~label in
  (* The fast factory path: majority-vote PUF read at nominal conditions
     and no helper data.  The 8-sigma dark-bit mask makes the plain vote
     stable at nominal, which is exactly the pre-fuzzy-extractor (v1)
     provisioning flow — and roughly 5x cheaper than full reliability
     screening, which matters when enrolling 10^5-device benches. *)
  let key = Eric.Kmu.device_key ~context (device t device_id) in
  let r =
    add t
      {
        device_id;
        epoch;
        label;
        key;
        firmware_epoch = 0;
        status = Active;
        helper = None;
        instability_ppm = 0;
      }
  in
  if Result.is_ok r && Eric_telemetry.Control.is_enabled () then
    Eric_telemetry.Registry.inc ~labels:[ ("path", "legacy") ]
      "fleet.registry.enrolled_total";
  r

(* A replaced entry only needs a fresh boot when a field the boot reads
   changed: KMU context (epoch, label), provisioned key, or helper data.
   Campaign bookkeeping (firmware_epoch) and quarantine flips leave the
   memoized target valid — re-booting every device because its firmware
   epoch advanced made warm redeployments pay a full PUF key
   reconstruction per device per campaign. *)
let boot_relevant_change old entry =
  old.epoch <> entry.epoch || old.label <> entry.label
  || not (Bytes.equal old.key entry.key)
  || old.helper <> entry.helper

let update t entry =
  let old =
    locked t (fun () ->
        match Hashtbl.find_opt t.byid entry.device_id with
        | None ->
          invalid_arg
            (Printf.sprintf "Registry.update: device %Ld not enrolled" entry.device_id)
        | Some old ->
          Hashtbl.replace t.byid entry.device_id entry;
          old)
  in
  if boot_relevant_change old entry then invalidate_targets t entry.device_id

(* ------------------------------------------------------------------ *)
(* Wire format (version 2; version 1 still parses)                     *)
(*                                                                     *)
(*   off  size  field                                                  *)
(*   0    4     magic "EFRG"                                           *)
(*   4    2     version                                                *)
(*   6    2     reserved (must be zero)                                *)
(*   8    4     entry count                                            *)
(*   12   ...   entries:                                               *)
(*          u64 device id                                              *)
(*          u32 KMU epoch                                              *)
(*          u32 firmware epoch                                         *)
(*          u16 label length, label bytes                              *)
(*          u16 key length, key bytes                                  *)
(*          u8  status (0 = active, 1 = quarantined)                   *)
(*          if quarantined: u16 reason length, reason bytes            *)
(*          -- version >= 2 only --                                    *)
(*          u8  has_helper (0/1)                                       *)
(*          if has_helper: u32 helper length, helper blob ("EHLP")     *)
(*          u32 instability, parts per million                         *)
(*                                                                     *)
(* Version-1 files parse with [helper = None] and zero instability, so *)
(* fleets enrolled before the fuzzy extractor keep loading (and keep   *)
(* the plain majority-vote boot path).  Serialization always writes    *)
(* version 2.                                                          *)
(*                                                                     *)
(* Parsing is strict, like Package: reserved bytes must be zero, every  *)
(* declared length must land inside the buffer, duplicate device ids   *)
(* are rejected, helper blobs must themselves parse, and trailing bytes *)
(* fail the parse — a corrupt registry is refused loudly rather than    *)
(* half-loaded.                                                         *)
(*                                                                     *)
(* One decode loop serves a buffer ([parse]) and a streamed file       *)
(* ([load], [fold_file]), so shard files are read one entry at a time, *)
(* and a declared length is checked against the bytes left before      *)
(* anything is allocated for it.                                       *)
(* ------------------------------------------------------------------ *)

module W = Eric_util.Wire

let header ~count =
  let buf = Buffer.create header_size in
  Buffer.add_string buf magic;
  W.add_u16 buf version;
  W.add_u16 buf 0;
  W.add_u32 buf count;
  Buffer.to_bytes buf

let add_str buf s =
  W.add_u16 buf (String.length s);
  Buffer.add_string buf s

let serialize_entry buf e =
  W.add_u64 buf e.device_id;
  W.add_u32 buf e.epoch;
  W.add_u32 buf e.firmware_epoch;
  add_str buf e.label;
  W.add_u16 buf (Bytes.length e.key);
  Buffer.add_bytes buf e.key;
  (match e.status with
  | Active -> W.add_u8 buf 0
  | Quarantined reason ->
    W.add_u8 buf 1;
    add_str buf reason);
  (match e.helper with
  | None -> W.add_u8 buf 0
  | Some h ->
    W.add_u8 buf 1;
    let blob = Eric_puf.Enroll.serialize h in
    W.add_u32 buf (Bytes.length blob);
    Buffer.add_bytes buf blob);
  W.add_u32 buf e.instability_ppm

let serialize t =
  let es = entries t in
  let buf = Buffer.create (64 * (1 + List.length es)) in
  Buffer.add_bytes buf (header ~count:(List.length es));
  List.iter (serialize_entry buf) es;
  Buffer.to_bytes buf

let u32 c what =
  let v = W.i32 c what in
  if v < 0 then W.fail c ("negative " ^ what) else v

let read_entry c ~version:v =
  let device_id = W.u64 c "device id" in
  let epoch = u32 c "epoch" in
  let firmware_epoch = u32 c "firmware epoch" in
  let label = W.string c (W.u16 c "label length") "label" in
  let key = W.bytes c (W.u16 c "key length") "key" in
  let status =
    match W.u8 c "status" with
    | 0 -> Active
    | 1 -> Quarantined (W.string c (W.u16 c "quarantine reason length") "quarantine reason")
    | tag -> W.fail c (Printf.sprintf "unknown status tag %d" tag)
  in
  let helper, instability_ppm =
    if v < 2 then (None, 0)
    else
      let helper =
        match W.u8 c "helper flag" with
        | 0 -> None
        | 1 -> (
          let blob = W.bytes c (u32 c "helper length") "helper blob" in
          match Eric_puf.Enroll.parse blob with
          | Ok h -> Some h
          | Error e -> W.fail c (Printf.sprintf "device %Ld: %s" device_id e))
        | flag -> W.fail c (Printf.sprintf "unknown helper flag %d" flag)
      in
      (helper, u32 c "instability")
  in
  { device_id; epoch; firmware_epoch; label; key; status; helper; instability_ppm }

(* Header, every entry through [f], then the strict end. *)
let read_entries c ~init ~f =
  W.magic c magic "bad magic (not an ERIC registry)";
  let v = W.u16 c "version" in
  if v < min_version || v > version then
    W.fail c (Printf.sprintf "unsupported registry version %d" v);
  if W.u16 c "reserved" <> 0 then W.fail c "reserved bytes set";
  let n = u32 c "entry count" in
  let rec loop i acc = if i = n then acc else loop (i + 1) (f acc (read_entry c ~version:v)) in
  let acc = loop 0 init in
  match W.remaining c with
  | 0 -> acc
  | k -> W.fail c (Printf.sprintf "%d trailing bytes after the last entry" k)

let read_registry c =
  let t = create () in
  read_entries c ~init:() ~f:(fun () e ->
      match add t e with Ok _ -> () | Error m -> W.fail c ("duplicate entry: " ^ m));
  t

let parse b = W.decode ~format:"registry" b read_registry
let load path = W.decode_file ~format:"registry" path read_registry

let fold_file path ~init ~f =
  W.decode_file ~format:"registry" path (fun c ->
      read_entries c ~init ~f:(fun acc e ->
          match f acc e with Ok acc -> acc | Error m -> W.fail c m))

let save t path = W.write_atomic path (fun oc -> output_bytes oc (serialize t))

let pp_status fmt = function
  | Active -> Format.pp_print_string fmt "active"
  | Quarantined reason -> Format.fprintf fmt "quarantined (%s)" reason

let pp_entry fmt e =
  Format.fprintf fmt "device %Ld  epoch %d  label %S  firmware %d  %a  %s" e.device_id
    e.epoch e.label e.firmware_epoch pp_status e.status
    (match e.helper with
    | None -> "legacy boot"
    | Some h ->
      Printf.sprintf "helper v%d (%d/%d chains, %d ppm)" h.Eric_puf.Enroll.version
        (Eric_puf.Enroll.kept_chains h) h.Eric_puf.Enroll.chains e.instability_ppm)
