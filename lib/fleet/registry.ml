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
(* The entry decoder runs against a [Reader], a cursor abstract over an *)
(* in-memory buffer and a buffered channel, so shard files stream one   *)
(* entry at a time without ever materializing the whole shard.          *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let buf_add_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let buf_add_u32 buf v =
  let b = Bytes.create 4 in
  Eric_util.Bytesx.set_u32 b 0 (Int32.of_int v);
  Buffer.add_bytes buf b

let buf_add_u64 buf v =
  let b = Bytes.create 8 in
  Eric_util.Bytesx.set_u64 b 0 v;
  Buffer.add_bytes buf b

let add_header buf ~count =
  Buffer.add_string buf magic;
  buf_add_u16 buf version;
  buf_add_u16 buf 0;
  buf_add_u32 buf count

let header ~count =
  let buf = Buffer.create header_size in
  add_header buf ~count;
  Buffer.to_bytes buf

let serialize_entry buf e =
  buf_add_u64 buf e.device_id;
  buf_add_u32 buf e.epoch;
  buf_add_u32 buf e.firmware_epoch;
  buf_add_u16 buf (String.length e.label);
  Buffer.add_string buf e.label;
  buf_add_u16 buf (Bytes.length e.key);
  Buffer.add_bytes buf e.key;
  (match e.status with
  | Active -> Buffer.add_char buf '\000'
  | Quarantined reason ->
    Buffer.add_char buf '\001';
    buf_add_u16 buf (String.length reason);
    Buffer.add_string buf reason);
  (match e.helper with
  | None -> Buffer.add_char buf '\000'
  | Some h ->
    Buffer.add_char buf '\001';
    let blob = Eric_puf.Enroll.serialize h in
    buf_add_u32 buf (Bytes.length blob);
    Buffer.add_bytes buf blob);
  buf_add_u32 buf e.instability_ppm

let serialize t =
  let es = entries t in
  let buf = Buffer.create (64 * (1 + List.length es)) in
  add_header buf ~count:(List.length es);
  List.iter (serialize_entry buf) es;
  Buffer.to_bytes buf

module Reader = struct
  type src = Buf of bytes | Chan of in_channel

  type t = { src : src; mutable pos : int }

  let of_bytes b = { src = Buf b; pos = 0 }
  let of_channel ic = { src = Chan ic; pos = 0 }

  let take r n what =
    let truncated () =
      Error (Printf.sprintf "registry truncated reading %s (at byte %d)" what r.pos)
    in
    match r.src with
    | Buf b ->
      if n >= 0 && r.pos + n <= Bytes.length b then begin
        let s = Bytes.sub b r.pos n in
        r.pos <- r.pos + n;
        Ok s
      end
      else truncated ()
    | Chan ic -> (
      if n < 0 then truncated ()
      else
        let b = Bytes.create n in
        match really_input ic b 0 n with
        | () ->
          r.pos <- r.pos + n;
          Ok b
        | exception End_of_file -> truncated ())

  let u8 r what =
    let* b = take r 1 what in
    Ok (Char.code (Bytes.get b 0))

  let u16 r what =
    let* b = take r 2 what in
    Ok (Eric_util.Bytesx.get_u16 b 0)

  let u32 r what =
    let* b = take r 4 what in
    let v = Int32.to_int (Eric_util.Bytesx.get_u32 b 0) in
    if v < 0 then Error (Printf.sprintf "negative %s" what) else Ok v

  let u64 r what =
    let* b = take r 8 what in
    Ok (Eric_util.Bytesx.get_u64 b 0)

  let str r what =
    let* n = u16 r (what ^ " length") in
    let* b = take r n what in
    Ok (Bytes.to_string b)

  (* Bytes remaining past the cursor (0 = cleanly consumed).  Used for
     the trailing-garbage strictness check; for a channel source it may
     consume, so only call it after the last entry. *)
  let excess r =
    match r.src with
    | Buf b -> Bytes.length b - r.pos
    | Chan ic -> (
      match input_char ic with
      | exception End_of_file -> 0
      | _ -> in_channel_length ic - pos_in ic + 1)
end

let read_header r =
  let* m = Reader.take r 4 "magic" in
  let* () =
    if Bytes.to_string m = magic then Ok () else Error "bad magic (not an ERIC registry)"
  in
  let* v = Reader.u16 r "version" in
  let* () =
    if v >= min_version && v <= version then Ok ()
    else Error (Printf.sprintf "unsupported registry version %d" v)
  in
  let* reserved = Reader.u16 r "reserved" in
  let* () = if reserved = 0 then Ok () else Error "reserved bytes set" in
  let* n = Reader.u32 r "entry count" in
  Ok (v, n)

let read_entry r ~version:v =
  let* device_id = Reader.u64 r "device id" in
  let* epoch = Reader.u32 r "epoch" in
  let* firmware_epoch = Reader.u32 r "firmware epoch" in
  let* label = Reader.str r "label" in
  let* key = Reader.str r "key" in
  let* tag = Reader.u8 r "status" in
  let* status =
    match tag with
    | 0 -> Ok Active
    | 1 ->
      let* reason = Reader.str r "quarantine reason" in
      Ok (Quarantined reason)
    | _ -> Error (Printf.sprintf "unknown status tag %d" tag)
  in
  let* helper, instability_ppm =
    if v < 2 then Ok (None, 0)
    else
      let* flag = Reader.u8 r "helper flag" in
      let* helper =
        match flag with
        | 0 -> Ok None
        | 1 ->
          let* blob_len = Reader.u32 r "helper length" in
          let* blob = Reader.take r blob_len "helper blob" in
          let* h =
            Result.map_error
              (fun e -> Printf.sprintf "device %Ld: %s" device_id e)
              (Eric_puf.Enroll.parse blob)
          in
          Ok (Some h)
        | _ -> Error (Printf.sprintf "unknown helper flag %d" flag)
      in
      let* ppm = Reader.u32 r "instability" in
      Ok (helper, ppm)
  in
  Ok { device_id; epoch; firmware_epoch; label; key = Bytes.of_string key; status; helper; instability_ppm }

let parse_reader r =
  let* v, n = read_header r in
  let t = create () in
  let rec loop i =
    if i = n then Ok ()
    else
      let* e = read_entry r ~version:v in
      let* _ = Result.map_error (fun m -> "duplicate entry: " ^ m) (add t e) in
      loop (i + 1)
  in
  let* () = loop 0 in
  match Reader.excess r with
  | 0 -> Ok t
  | k -> Error (Printf.sprintf "%d trailing bytes after the last entry" k)

let parse b = parse_reader (Reader.of_bytes b)

let fold_file path ~init ~f =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let r = Reader.of_channel ic in
        let* v, n = read_header r in
        let rec loop i acc =
          if i = n then Ok acc
          else
            let* e = read_entry r ~version:v in
            let* acc = f acc e in
            loop (i + 1) acc
        in
        let* acc = loop 0 init in
        match Reader.excess r with
        | 0 -> Ok acc
        | k -> Error (Printf.sprintf "%d trailing bytes after the last entry" k))
  with
  | exception Sys_error msg -> Error msg
  | r -> Result.map_error (fun e -> path ^ ": " ^ e) r

let save t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc (serialize t))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> parse_reader (Reader.of_channel ic))
  with
  | exception Sys_error msg -> Error msg
  | r -> Result.map_error (fun e -> path ^ ": " ^ e) r

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
