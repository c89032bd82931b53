type id = int64

type t = {
  id : id;
  chains_ : Arbiter.t array;
  challenge_width : int;
  noise_rng : Eric_util.Prng.t;
}

let manufacture ?(params = Arbiter.default_params) ?(chains = 32) id =
  if chains <= 0 then invalid_arg "Device.manufacture: chains must be positive";
  (* Distinct derivation domains: silicon draw vs runtime noise vs aging
     drift.  Drift uses its own stream so the silicon draws — and hence
     every key enrolled before the aging model existed — are unchanged. *)
  let silicon = Eric_util.Prng.create ~seed:(Int64.add 0x5111C0DEL id) in
  let noise = Eric_util.Prng.create ~seed:(Int64.add 0x4015EL id) in
  let drift = Eric_util.Prng.create ~seed:(Int64.add 0xD21F7L id) in
  {
    id;
    chains_ = Array.init chains (fun _ -> Arbiter.manufacture ~drift_rng:drift params silicon);
    challenge_width = params.Arbiter.stages;
    noise_rng = noise;
  }

let id t = t.id
let chains t = Array.length t.chains_
let key_bits = chains
let challenge_width t = t.challenge_width

let challenge_set t =
  (* Enrolment challenges are public; derive them from the device id so the
     software source can reconstruct them without a database.  Candidates
     whose race margin is within reach of evaluation noise are skipped
     (dark-bit masking): an unstable bit would survive majority voting with
     non-negligible probability and brick the device's own key. *)
  let rng = Eric_util.Prng.create ~seed:(Int64.add 0xCA11E64EL t.id) in
  let bound = 1 lsl t.challenge_width in
  let margin_floor chain =
    (* Noise on each of ~2*stages delays accumulates as sqrt; 8 sigma of the
       accumulated noise keeps single-shot flip probability ~1e-15. *)
    let accumulated = sqrt (float_of_int (2 * Arbiter.stages chain)) in
    8.0 *. accumulated
  in
  Array.map
    (fun chain ->
      let floor_ps = margin_floor chain *. Arbiter.noise_sigma chain in
      let rec pick attempts =
        let candidate = Eric_util.Prng.int rng ~bound in
        if attempts > 64 then candidate
        else if Float.abs (Arbiter.delay_difference chain ~challenge:candidate) >= floor_ps then
          candidate
        else pick (attempts + 1)
      in
      pick 0)
    t.chains_

let respond ?(noisy = true) ?env t challenges =
  if Array.length challenges <> chains t then
    invalid_arg "Device.respond: one challenge per chain expected";
  let bits =
    Array.mapi
      (fun i challenge ->
        if noisy then Arbiter.eval ~noise:t.noise_rng ?env t.chains_.(i) ~challenge
        else Arbiter.eval ?env t.chains_.(i) ~challenge)
      challenges
  in
  Eric_util.Bitvec.of_bool_array bits

let eval_chain ?(noisy = true) ?env t ~chain ~challenge =
  if chain < 0 || chain >= chains t then invalid_arg "Device.eval_chain: chain out of range";
  if noisy then Arbiter.eval ~noise:t.noise_rng ?env t.chains_.(chain) ~challenge
  else Arbiter.eval ?env t.chains_.(chain) ~challenge

let accumulated_noise_sigma ?(env = Env.nominal) t =
  (* Noise on each of ~2*stages delays accumulates as sqrt; all chains share
     the manufacture params, so chain 0 is representative. *)
  let chain = t.chains_.(0) in
  sqrt (float_of_int (2 * Arbiter.stages chain))
  *. Arbiter.noise_sigma chain *. Env.noise_scale env

let chain_margin ?env t ~chain ~challenge =
  if chain < 0 || chain >= chains t then invalid_arg "Device.chain_margin: chain out of range";
  Arbiter.delay_difference ?env t.chains_.(chain) ~challenge

let puf_key ?(votes = 15) ?env t =
  let votes = if votes mod 2 = 0 then votes + 1 else votes in
  let challenges = challenge_set t in
  let counts = Array.make (chains t) 0 in
  for _ = 1 to votes do
    (* one noisy read of every chain, in chain order, as [respond] reads *)
    for i = 0 to chains t - 1 do
      if Arbiter.eval ~noise:t.noise_rng ?env t.chains_.(i) ~challenge:challenges.(i) then
        counts.(i) <- counts.(i) + 1
    done
  done;
  let bits = Array.map (fun c -> c * 2 > votes) counts in
  Eric_util.Bitvec.to_bytes (Eric_util.Bitvec.of_bool_array bits)
