type stage = {
  straight_top : float;
  straight_bot : float;
  cross_top : float; (* bottom input -> top output *)
  cross_bot : float; (* top input -> bottom output *)
}

type t = {
  stages_ : stage array;
  drift_ : stage array;  (* unit aging-drift direction per delay element *)
  arbiter_skew : float;
  noise_sigma : float;
}

type params = {
  stages : int;
  nominal_delay_ps : float;
  variation_sigma_ps : float;
  noise_sigma_ps : float;
}

let default_params =
  { stages = 8; nominal_delay_ps = 100.0; variation_sigma_ps = 3.0; noise_sigma_ps = 0.12 }

let zero_stage = { straight_top = 0.0; straight_bot = 0.0; cross_top = 0.0; cross_bot = 0.0 }

let manufacture ?drift_rng p rng =
  if p.stages <= 0 then invalid_arg "Arbiter.manufacture: stages must be positive";
  let draw () = Eric_util.Prng.gaussian rng ~mu:p.nominal_delay_ps ~sigma:p.variation_sigma_ps in
  let make_stage _ =
    { straight_top = draw (); straight_bot = draw (); cross_top = draw (); cross_bot = draw () }
  in
  (* Aging drift directions come from their own stream so existing silicon
     draws (and therefore every enrolled key) are unchanged by the model. *)
  let drift_ =
    match drift_rng with
    | None -> Array.make p.stages zero_stage
    | Some rng ->
      let d () = Eric_util.Prng.gaussian rng ~mu:0.0 ~sigma:1.0 in
      Array.init p.stages (fun _ ->
          { straight_top = d (); straight_bot = d (); cross_top = d (); cross_bot = d () })
  in
  {
    stages_ = Array.init p.stages make_stage;
    drift_;
    arbiter_skew = Eric_util.Prng.gaussian rng ~mu:0.0 ~sigma:(p.variation_sigma_ps /. 4.0);
    noise_sigma = p.noise_sigma_ps;
  }

let stages t = Array.length t.stages_

(* The noiseless race, each delay shifted [age] ps along its drift
   direction: top-minus-bottom arrival time plus the arbiter's skew. *)
let[@inline] margin t ~age ~challenge =
  let top = ref 0.0 and bot = ref 0.0 in
  for i = 0 to Array.length t.stages_ - 1 do
    let st = t.stages_.(i) and dr = t.drift_.(i) in
    if (challenge lsr i) land 1 = 0 then begin
      top := !top +. (st.straight_top +. (age *. dr.straight_top));
      bot := !bot +. (st.straight_bot +. (age *. dr.straight_bot))
    end
    else begin
      let new_top = !bot +. (st.cross_top +. (age *. dr.cross_top)) in
      let new_bot = !top +. (st.cross_bot +. (age *. dr.cross_bot)) in
      top := new_top;
      bot := new_bot
    end
  done;
  !top -. !bot +. t.arbiter_skew

(* The same race with every delay perturbed by a Gaussian draw: the
   delay that ends on the top path at stage [i] takes the uniforms
   [u.(4i)], [u.(4i+1)], the bottom one [u.(4i+2)], [u.(4i+3)], which is
   the order {!Eric_util.Prng.gaussian} drew them in per delay. *)
let draw_noise ~sigma u j = Eric_util.Prng.box_muller ~mu:0.0 ~sigma u.(2 * j) u.((2 * j) + 1)

let noisy_race t ~age ~sigma u ~challenge =
  let top = ref 0.0 and bot = ref 0.0 in
  for i = 0 to Array.length t.stages_ - 1 do
    let st = t.stages_.(i) and dr = t.drift_.(i) in
    let n_top = draw_noise ~sigma u (2 * i) and n_bot = draw_noise ~sigma u ((2 * i) + 1) in
    if (challenge lsr i) land 1 = 0 then begin
      top := !top +. (st.straight_top +. (age *. dr.straight_top) +. n_top);
      bot := !bot +. (st.straight_bot +. (age *. dr.straight_bot) +. n_bot)
    end
    else begin
      let new_top = !bot +. (st.cross_top +. (age *. dr.cross_top) +. n_top) in
      let new_bot = !top +. (st.cross_bot +. (age *. dr.cross_bot) +. n_bot) in
      top := new_top;
      bot := new_bot
    end
  done;
  !top -. !bot +. t.arbiter_skew

(* For u1 in [2^-(k+1), 2^-k), sqrt (-2 ln u1) <= sqrt (2 (k+1) ln 2):
   since |cos| <= 1, that times |sigma| bounds the draw's noise.  k is
   read off u1's exponent field (1022 for [0.5, 1)), without a branch;
   {!Eric_util.Prng.uniform_pairs} gives u1 >= 2^-53, so k <= 52. *)
let radii = Array.init 64 (fun k -> sqrt (2.0 *. float_of_int (k + 1) *. log 2.0))

let[@inline] radius_bound u1 =
  radii.(1022 - Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float u1) 52))

(* Every delay's noise enters the race once, with sign +1 or -1, so the
   noisy race lies within |sigma| * (sum of the radius bounds) of the
   noiseless margin; the slack covers the float rounding of both races.
   Beyond that reach the noisy answer is the noiseless one, and no log,
   cos or sqrt runs. *)
let eval ?noise ?(env = Env.nominal) t ~challenge =
  let age = Env.age_shift_ps env in
  match noise with
  | None -> margin t ~age ~challenge < 0.0
  | Some rng ->
    let sigma = t.noise_sigma *. Env.noise_scale env in
    let u = Array.create_float (4 * Array.length t.stages_) in
    Eric_util.Prng.uniform_pairs rng u;
    let m = margin t ~age ~challenge in
    let reach = ref 0.0 in
    for j = 0 to (2 * Array.length t.stages_) - 1 do
      reach := !reach +. radius_bound u.(2 * j)
    done;
    if Float.abs m > (Float.abs sigma *. !reach *. (1.0 +. 1e-9)) +. 1e-9 then m < 0.0
    else noisy_race t ~age ~sigma u ~challenge < 0.0

let noise_sigma t = t.noise_sigma
let delay_difference ?(env = Env.nominal) t ~challenge =
  margin t ~age:(Env.age_shift_ps env) ~challenge
