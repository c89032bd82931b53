(* Fuzzy extractor: rebuild the enrolled key from noisy PUF reads plus
   public helper data.  Decode is repetition-code majority, attempts are
   bounded, and the candidate key is accepted only if it reproduces the
   helper blob's keyed tag — so a wrong key can never leave this module:
   every failure is a typed refusal. *)

type failure =
  | Helper_mismatch of string  (* helper structurally wrong for device *)
  | Exhausted of { attempts : int }  (* retries spent, tag never verified *)

type config = {
  attempts : int;  (* bounded re-read retries per boot *)
  votes : int;  (* noisy reads per challenge per attempt *)
}

let default_config = { attempts = 3; votes = 3 }

type reconstruction = { key : bytes; attempts_used : int }

let pp_failure fmt = function
  | Helper_mismatch msg -> Format.fprintf fmt "helper mismatch: %s" msg
  | Exhausted { attempts } ->
    Format.fprintf fmt
      "key reconstruction exhausted after %d attempt%s (tag never verified)"
      attempts
      (if attempts = 1 then "" else "s")

let failure_to_string f = Format.asprintf "%a" pp_failure f

let decode_once ~votes ?env device (h : Enroll.helper) =
  let votes = if votes mod 2 = 0 then votes + 1 else votes in
  let kept = Enroll.kept_chains h in
  let bits = Array.make kept false in
  let group = ref 0 in
  for chain = 0 to h.chains - 1 do
    if Eric_util.Bitvec.get h.mask chain then begin
      let ones = ref 0 in
      for i = 0 to h.rep - 1 do
        let idx = (!group * h.rep) + i in
        let challenge = h.challenges.(idx) in
        (* Majority over [votes] reads of one challenge, then unmask with
           the sketch bit: each group member votes for the chain's key bit. *)
        let hi = ref 0 in
        for _ = 1 to votes do
          if Device.eval_chain ?env device ~chain ~challenge then incr hi
        done;
        let read = 2 * !hi > votes in
        let k_hat = read <> Eric_util.Bitvec.get h.sketch idx in
        if k_hat then incr ones
      done;
      bits.(!group) <- 2 * !ones > h.rep;
      incr group
    end
  done;
  Eric_util.Bitvec.to_bytes (Eric_util.Bitvec.of_bool_array bits)

let reconstruct ?(config = default_config) ?env device (h : Enroll.helper) =
  if config.attempts < 1 then invalid_arg "Fuzzy.reconstruct: attempts must be positive";
  if Device.id device <> h.device_id then begin
    Eric_telemetry.Registry.inc "puf.reconstruct.mismatch_total";
    Error
      (Helper_mismatch
         (Printf.sprintf "helper enrolled for device 0x%Lx, booting 0x%Lx"
            h.device_id (Device.id device)))
  end
  else if Device.chains device <> h.chains then begin
    Eric_telemetry.Registry.inc "puf.reconstruct.mismatch_total";
    Error
      (Helper_mismatch
         (Printf.sprintf "helper covers %d chains, device has %d" h.chains
            (Device.chains device)))
  end
  else begin
    let rec go attempt =
      if attempt > config.attempts then begin
        Eric_telemetry.Registry.inc "puf.reconstruct.exhausted_total";
        Error (Exhausted { attempts = config.attempts })
      end
      else begin
        let key = decode_once ~votes:config.votes ?env device h in
        (* The tag doubles as integrity check (tampered helper never
           verifies) and key-correctness check (a wrong decode never
           verifies): acceptance implies the enrolled key, up to 2^-256. *)
        if Enroll.tag_matches ~key h then begin
          Eric_telemetry.Registry.inc "puf.reconstruct.ok_total";
          if Eric_telemetry.Control.is_enabled () then
            Eric_telemetry.Registry.observe "puf.reconstruct.attempts"
              (float_of_int attempt);
          Ok { key; attempts_used = attempt }
        end
        else begin
          Eric_telemetry.Registry.inc "puf.reconstruct.retry_total";
          go (attempt + 1)
        end
      end
    in
    go 1
  end
