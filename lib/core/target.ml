type t = {
  device_ : Eric_puf.Device.t;
  context : Kmu.context;
  hde : Eric_hw.Hde.config;
  key : (bytes, Eric_puf.Fuzzy.failure) result;
      (** cached boot outcome; the silicon recomputes it at boot.  The
          plain [create] path always lands in [Ok]; helper-data boots can
          land in [Error], and such a target refuses every load. *)
}

let create ?(context = Kmu.default_context) ?(hde = Eric_hw.Hde.default_config) device_ =
  { device_; context; hde; key = Ok (Kmu.device_key ~context device_) }

let of_id ?context ?hde id = create ?context ?hde (Eric_puf.Device.manufacture id)

let create_with_helper ?(context = Kmu.default_context)
    ?(hde = Eric_hw.Hde.default_config) ?(fuzzy = Eric_puf.Fuzzy.default_config)
    ?env device_ helper =
  let votes = if fuzzy.Eric_puf.Fuzzy.votes mod 2 = 0 then fuzzy.votes + 1 else fuzzy.votes in
  let reads =
    Eric_puf.Enroll.kept_chains helper * helper.Eric_puf.Enroll.rep * votes
  in
  match Eric_puf.Fuzzy.reconstruct ~config:fuzzy ?env device_ helper with
  | Ok r ->
    (* Fuzzy boot replaces the majority-vote challenge sequencing in the
       key-setup budget; the SHA block for derivation stays. *)
    let setup =
      Eric_hw.Hde.reconstruction_cycles hde ~reads ~attempts:r.Eric_puf.Fuzzy.attempts_used
      + hde.Eric_hw.Hde.sha_block_cycles
    in
    let hde = { hde with Eric_hw.Hde.key_setup_cycles = setup } in
    { device_; context; hde; key = Ok (Kmu.derive ~puf_key:r.Eric_puf.Fuzzy.key context) }
  | Error f -> { device_; context; hde; key = Error f }

let device t = t.device_
let key_state t = t.key

let derived_key t =
  match t.key with
  | Ok key -> key
  | Error f ->
    invalid_arg
      (Printf.sprintf "Target.derived_key: no key (%s)"
         (Eric_puf.Fuzzy.failure_to_string f))

type load_error =
  | Malformed of string
  | Rejected of Encrypt.error
  | Key_unavailable of Eric_puf.Fuzzy.failure

let pp_load_error fmt = function
  | Malformed msg -> Format.fprintf fmt "malformed package: %s" msg
  | Rejected e -> Format.fprintf fmt "validation failed: %a" Encrypt.pp_error e
  | Key_unavailable f ->
    Format.fprintf fmt "key unavailable: %a" Eric_puf.Fuzzy.pp_failure f

type loaded = {
  image : Eric_rv.Program.t;
  stats : Encrypt.stats;
  load : Eric_hw.Hde.breakdown;
}

let refusal_reason = function
  | Malformed _ -> "malformed"
  | Rejected (Encrypt.Framing_failure _) -> "framing"
  | Rejected Encrypt.Signature_mismatch -> "signature"
  | Key_unavailable _ -> "key-reconstruction"

let count_refusal e =
  if Eric_telemetry.Control.is_enabled () then
    Eric_telemetry.Registry.inc ~labels:[ ("reason", refusal_reason e) ] "ingest.refused_total"

let receive t pkg =
  Eric_telemetry.Span.with_ ~cat:"core" ~name:"ingest.receive" (fun () ->
      if Eric_telemetry.Control.is_enabled () then
        Eric_telemetry.Registry.inc ~by:(Int64.of_int (Package.size pkg)) "ingest.bytes_in";
      match t.key with
      | Error f ->
        (* No key, no decrypt: the HDE refuses outright rather than ever
           running the validation path with a guessed key. *)
        let e = Key_unavailable f in
        count_refusal e;
        Error e
      | Ok key ->
      match Encrypt.decrypt ~key pkg with
      | Error e ->
        let e = Rejected e in
        count_refusal e;
        Error e
      | Ok (image, stats) ->
        let image_bytes = Package.size pkg in
        let hashed_bytes =
          Package.authenticated_header_size pkg
          + Bytes.length pkg.Package.enc_text + Bytes.length pkg.Package.data
        in
        (* The travelling signature needs keystream too. *)
        let encrypted_bytes = stats.Encrypt.encrypted_bytes + Siggen.signature_size in
        let load = Eric_hw.Hde.load_encrypted t.hde ~image_bytes ~hashed_bytes ~encrypted_bytes in
        Ok { image; stats; load })

let receive_bytes t bytes =
  match Package.parse bytes with
  | Error msg ->
    let e = Malformed msg in
    count_refusal e;
    Error e
  | Ok pkg -> receive t pkg

let run ?timing ?fuel ?corrupt t { image; load; _ } =
  let memory = Eric_sim.Soc.load image in
  (match corrupt with None -> () | Some f -> f memory image);
  Eric_sim.Soc.run_loaded ?timing ?fuel ~guard:t.hde.Eric_hw.Hde.guard
    ~load_cycles:load.Eric_hw.Hde.total_cycles image memory

let execute ?timing ?fuel t pkg =
  match receive t pkg with
  | Error e -> Error e
  | Ok loaded -> Ok (run ?timing ?fuel t loaded)
