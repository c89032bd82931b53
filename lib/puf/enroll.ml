(* Reliability-aware enrollment: oversample a wide challenge pool at a
   stress corner, keep only comfortably-margined challenges, mask chains
   that cannot field a full repetition group, and publish the result as a
   versioned helper-data blob (secure sketch + integrity tag).

   The sketch is a repetition code: each kept chain contributes [rep]
   challenges whose ideal bits are XOR-masked with the chain's key bit.
   Helper data is public by construction — each helper bit leaks only the
   XOR of two response bits, never a response bit itself — so the blob can
   live in the fleet registry next to the device id. *)

type config = {
  rep : int;
  screen_votes : int;
  screen_env : Env.t;
  margin_sigmas : float;
  drift_allowance_ps : float;
  max_instability : float;
  min_chains : int;
}

let default_config =
  {
    rep = 7;
    screen_votes = 9;
    screen_env = Env.stress;
    margin_sigmas = 2.5;
    drift_allowance_ps = 4.0;
    max_instability = 0.2;
    min_chains = 16;
  }

type helper = {
  version : int;
  device_id : Device.id;
  chains : int;
  rep : int;
  mask : Eric_util.Bitvec.t;  (* length [chains]; set = chain kept *)
  challenges : int array;  (* kept * rep, chain-major over kept chains *)
  sketch : Eric_util.Bitvec.t;  (* kept * rep helper bits *)
  tag : bytes;  (* 32-byte keyed integrity/correctness tag *)
}

type enrollment = {
  helper : helper;
  key : bytes;
  instability : float array;  (* per kept chain, worst over its group *)
  worst_instability : float;
}

module W = Eric_util.Wire

let helper_version = 1
let magic = "EHLP"
let tag_len = 32
let tag_domain = "ERIC-HELPER-TAG|v1"

let kept_chains h = Eric_util.Bitvec.popcount h.mask

(* -- wire format ---------------------------------------------------------

   magic(4) "EHLP" | u16 version | u16 rep | u64 device_id | u16 chains
   | u16 kept | mask bytes (ceil(chains/8)) | kept*rep u16 challenges
   | sketch bytes (ceil(kept*rep/8)) | tag (32).  All little-endian; the
   padding bits of the mask's and the sketch's last bytes are zero. *)

let serialize_prefix h =
  let buf = Buffer.create (64 + (2 * Array.length h.challenges)) in
  Buffer.add_string buf magic;
  W.add_u16 buf h.version;
  W.add_u16 buf h.rep;
  W.add_u64 buf h.device_id;
  W.add_u16 buf h.chains;
  W.add_u16 buf (kept_chains h);
  Buffer.add_bytes buf (Eric_util.Bitvec.to_bytes h.mask);
  Array.iter (W.add_u16 buf) h.challenges;
  Buffer.add_bytes buf (Eric_util.Bitvec.to_bytes h.sketch);
  Buffer.to_bytes buf

let serialize h = Bytes.cat (serialize_prefix h) h.tag

let compute_tag ~key prefix =
  let auth_key = Eric_crypto.Hmac_sha256.mac_string ~key tag_domain in
  Eric_crypto.Hmac_sha256.mac ~key:auth_key prefix

let tag_matches ~key h =
  Eric_crypto.Ct.equal (compute_tag ~key (serialize_prefix h)) h.tag

let read c =
  let len = W.remaining c in
  if len < 20 then W.fail c "truncated header";
  W.magic c magic "bad magic";
  let version = W.u16 c "version" in
  let rep = W.u16 c "rep" in
  let device_id = W.u64 c "device id" in
  let chains = W.u16 c "chains" in
  let kept = W.u16 c "kept" in
  if version <> helper_version then W.fail c (Printf.sprintf "unsupported version %d" version);
  if rep < 1 || rep mod 2 = 0 then W.fail c "repetition count must be odd";
  if chains < 1 then W.fail c "no chains";
  if kept > chains then W.fail c "kept exceeds chains";
  let group = kept * rep in
  let expect = 20 + ((chains + 7) / 8) + (2 * group) + ((group + 7) / 8) + tag_len in
  if len <> expect then W.fail c (Printf.sprintf "length %d, expected %d" len expect);
  let mask = W.bitvec c chains "mask" in
  if Eric_util.Bitvec.popcount mask <> kept then W.fail c "mask popcount disagrees with kept count";
  let challenges = Array.init group (fun _ -> W.u16 c "challenge") in
  let sketch = W.bitvec c group "sketch" in
  let tag = W.bytes c tag_len "tag" in
  { version; device_id; chains; rep; mask; challenges; sketch; tag }

let parse blob =
  Result.map_error (fun msg -> "helper data: " ^ msg) (W.decode ~format:"EHLP" blob read)

(* -- enrollment ---------------------------------------------------------- *)

let measure_instability ~votes ~env device ~chain ~challenge =
  let ideal = Device.eval_chain ~noisy:false device ~chain ~challenge in
  let flips = ref 0 in
  for _ = 1 to votes do
    if Device.eval_chain ~env device ~chain ~challenge <> ideal then incr flips
  done;
  float_of_int !flips /. float_of_int votes

let enroll ?(config = default_config) device =
  if config.rep < 1 || config.rep mod 2 = 0 then
    invalid_arg "Enroll.enroll: rep must be odd and positive";
  let chains = Device.chains device in
  let bound = 1 lsl Device.challenge_width device in
  let floor_ps =
    (config.margin_sigmas
    *. Device.accumulated_noise_sigma ~env:config.screen_env device)
    +. config.drift_allowance_ps
  in
  let kept_idx = ref [] and groups = ref [] in
  let key_bits = ref [] and instab = ref [] in
  for chain = chains - 1 downto 0 do
    (* Rank every challenge by stress-corner margin; wide margins first. *)
    let ranked =
      List.init bound (fun challenge ->
          (challenge, Float.abs (Device.chain_margin ~env:config.screen_env device ~chain ~challenge)))
      |> List.filter (fun (_, m) -> m >= floor_ps)
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    in
    if List.length ranked >= config.rep then begin
      let group =
        List.filteri (fun i _ -> i < config.rep) ranked |> List.map fst
      in
      let worst =
        List.fold_left
          (fun acc challenge ->
            Float.max acc
              (measure_instability ~votes:config.screen_votes
                 ~env:config.screen_env device ~chain ~challenge))
          0.0 group
      in
      if worst <= config.max_instability then begin
        kept_idx := chain :: !kept_idx;
        groups := group :: !groups;
        instab := worst :: !instab;
        (* The chain's key bit is the ideal response of its widest-margin
           challenge; the sketch re-expresses the rest relative to it. *)
        key_bits :=
          Device.eval_chain ~noisy:false device ~chain ~challenge:(List.hd group)
          :: !key_bits
      end
    end
  done;
  let kept_idx = !kept_idx and groups = !groups in
  let key_bits = Array.of_list !key_bits in
  let kept = List.length kept_idx in
  if kept < config.min_chains then
    Error
      (Printf.sprintf
         "enrollment yielded %d stable chains, below the %d-chain floor (dark-bit mask too aggressive for this die)"
         kept config.min_chains)
  else begin
    let mask = Eric_util.Bitvec.create chains in
    List.iter (fun chain -> Eric_util.Bitvec.set mask chain true) kept_idx;
    let challenges = Array.of_list (List.concat groups) in
    let sketch = Eric_util.Bitvec.create (kept * config.rep) in
    List.iteri
      (fun j group ->
        List.iteri
          (fun i challenge ->
            let chain = List.nth kept_idx j in
            let w = Device.eval_chain ~noisy:false device ~chain ~challenge in
            Eric_util.Bitvec.set sketch ((j * config.rep) + i)
              (w <> key_bits.(j)))
          group)
      groups;
    let key =
      Eric_util.Bitvec.to_bytes (Eric_util.Bitvec.of_bool_array key_bits)
    in
    let h =
      {
        version = helper_version;
        device_id = Device.id device;
        chains;
        rep = config.rep;
        mask;
        challenges;
        sketch;
        tag = Bytes.create tag_len;
      }
    in
    let h = { h with tag = compute_tag ~key (serialize_prefix h) } in
    let instability = Array.of_list !instab in
    let worst_instability = Array.fold_left Float.max 0.0 instability in
    if Eric_telemetry.Control.is_enabled () then begin
      Eric_telemetry.Registry.inc "puf.enroll.total";
      Eric_telemetry.Registry.observe "puf.enroll.masked_chains"
        (float_of_int (chains - kept));
      Eric_telemetry.Registry.observe "puf.enroll.worst_instability"
        worst_instability
    end;
    Ok { helper = h; key; instability; worst_instability }
  end

let survey ?(votes = 15) ?env device h =
  if Device.id device <> h.device_id then
    invalid_arg "Enroll.survey: helper belongs to another device";
  let votes = if votes mod 2 = 0 then votes + 1 else votes in
  let worst = ref 0.0 in
  let group = ref 0 in
  for chain = 0 to h.chains - 1 do
    if Eric_util.Bitvec.get h.mask chain then begin
      for i = 0 to h.rep - 1 do
        let challenge = h.challenges.((!group * h.rep) + i) in
        let ones = ref 0 in
        for _ = 1 to votes do
          if Device.eval_chain ?env device ~chain ~challenge then incr ones
        done;
        (* Instability relative to this read burst's own majority: key-free,
           so the field can survey a device without reconstructing. *)
        let minority = min !ones (votes - !ones) in
        worst := Float.max !worst (float_of_int minority /. float_of_int votes)
      done;
      incr group
    end
  done;
  !worst
