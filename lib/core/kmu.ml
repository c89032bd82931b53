type context = { epoch : int; label : string }

let default_context = { epoch = 1; label = "eric" }

let derive ~puf_key context =
  if context.epoch < 0 then invalid_arg "Kmu.derive: negative epoch";
  let msg = Printf.sprintf "ERIC-KDF|epoch=%d|label=%s" context.epoch context.label in
  Eric_crypto.Hmac_sha256.mac_string ~key:puf_key msg

let device_key ?(context = default_context) device =
  derive ~puf_key:(Eric_puf.Device.puf_key device) context

type boot =
  | Key_ready of bytes
  | Key_reconstruction_failed of Eric_puf.Fuzzy.failure

let boot_key ?(context = default_context) ?fuzzy ?env device helper =
  match Eric_puf.Fuzzy.reconstruct ?config:fuzzy ?env device helper with
  | Ok r -> Key_ready (derive ~puf_key:r.Eric_puf.Fuzzy.key context)
  | Error f -> Key_reconstruction_failed f
