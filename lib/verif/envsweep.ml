(* Environmental-sweep campaign: enroll a population, then boot every
   device repeatedly at every operating corner and measure the key
   failure rate with and without the fuzzy extractor.  This is the
   experiment behind the PR's robustness claim: plain 15-vote majority
   keys fall over at >= 10x nominal noise, the extractor does not, and a
   reconstruction that *verifies* but yields a wrong key (a silent
   failure) is a campaign-failing event on its own. *)

type corner_row = {
  corner : string;
  env : Eric_puf.Env.t;
  boots : int;
  plain_failures : int;  (* majority-vote key differed from enrolled *)
  fuzzy_failures : int;  (* typed reconstruction refusals *)
  wrong_keys : int;  (* verified reconstructions with a wrong key: must be 0 *)
  attempts_total : int;  (* fuzzy attempts summed over successful boots *)
}

let plain_kfr row =
  if row.boots = 0 then 0.0 else float_of_int row.plain_failures /. float_of_int row.boots

let fuzzy_kfr row =
  if row.boots = 0 then 0.0 else float_of_int row.fuzzy_failures /. float_of_int row.boots

let mean_attempts row =
  let ok = row.boots - row.fuzzy_failures in
  if ok = 0 then 0.0 else float_of_int row.attempts_total /. float_of_int ok

type report = {
  devices : int;
  boots_per_device : int;
  max_kfr : float;
  rows : corner_row list;
}

type config = {
  devices : int;
  boots : int;  (* per device per corner *)
  seed : int64;  (* base device id of the population *)
  corners : (string * Eric_puf.Env.t) list;
  enroll : Eric_puf.Enroll.config;
  fuzzy : Eric_puf.Fuzzy.config;
  max_kfr : float;  (* per-corner post-extractor budget *)
}

let default_config =
  {
    devices = 6;
    boots = 25;
    seed = 0xE57EEDL;
    corners = Eric_puf.Env.corners;
    enroll = Eric_puf.Enroll.default_config;
    fuzzy = Eric_puf.Fuzzy.default_config;
    max_kfr = 1e-3;
  }

let breaches (report : report) =
  List.filter (fun row -> row.wrong_keys > 0 || fuzzy_kfr row > report.max_kfr) report.rows

let passed report = breaches report = []

let campaign ?(config = default_config) () =
  Eric_telemetry.Span.with_ ~cat:"verif" ~name:"verif.envsweep" (fun () ->
      let ( let* ) = Result.bind in
      let* () = if config.devices < 1 then Error "need at least one device" else Ok () in
      let* () = if config.boots < 1 then Error "need at least one boot per corner" else Ok () in
      let* () = if config.corners = [] then Error "no corners requested" else Ok () in
      let* population =
        let rec build i acc =
          if i = config.devices then Ok (List.rev acc)
          else
            let device =
              Eric_puf.Device.manufacture (Int64.add config.seed (Int64.of_int i))
            in
            match Eric_puf.Enroll.enroll ~config:config.enroll device with
            | Error e ->
              Error
                (Printf.sprintf "device 0x%Lx failed enrollment: %s"
                   (Eric_puf.Device.id device) e)
            | Ok e ->
              (* The plain-majority reference key is the nominal boot, as a
                 fleet without helper data would have enrolled it. *)
              build (i + 1) ((device, e, Eric_puf.Device.puf_key device) :: acc)
        in
        build 0 []
      in
      let rows =
        List.map
          (fun (corner, env) ->
            let row =
              ref
                {
                  corner;
                  env;
                  boots = 0;
                  plain_failures = 0;
                  fuzzy_failures = 0;
                  wrong_keys = 0;
                  attempts_total = 0;
                }
            in
            List.iter
              (fun (device, (e : Eric_puf.Enroll.enrollment), plain_ref) ->
                for _ = 1 to config.boots do
                  let r = !row in
                  let plain_fail =
                    not (Bytes.equal (Eric_puf.Device.puf_key ~env device) plain_ref)
                  in
                  let fuzzy_fail, wrong, attempts =
                    match
                      Eric_puf.Fuzzy.reconstruct ~config:config.fuzzy ~env device
                        e.Eric_puf.Enroll.helper
                    with
                    | Ok rc ->
                      ( false,
                        not (Bytes.equal rc.Eric_puf.Fuzzy.key e.Eric_puf.Enroll.key),
                        rc.Eric_puf.Fuzzy.attempts_used )
                    | Error _ -> (true, false, 0)
                  in
                  let labels = [ ("corner", corner) ] in
                  Eric_telemetry.Registry.inc ~labels "verif.envsweep.boots_total";
                  if plain_fail then
                    Eric_telemetry.Registry.inc ~labels "verif.envsweep.plain_failures_total";
                  if fuzzy_fail then
                    Eric_telemetry.Registry.inc ~labels "verif.envsweep.fuzzy_failures_total";
                  if wrong then
                    Eric_telemetry.Registry.inc ~labels "verif.envsweep.wrong_keys_total";
                  row :=
                    {
                      r with
                      boots = r.boots + 1;
                      plain_failures = (r.plain_failures + if plain_fail then 1 else 0);
                      fuzzy_failures = (r.fuzzy_failures + if fuzzy_fail then 1 else 0);
                      wrong_keys = (r.wrong_keys + if wrong then 1 else 0);
                      attempts_total = r.attempts_total + attempts;
                    }
                done)
              population;
            !row)
          config.corners
      in
      Ok
        {
          devices = config.devices;
          boots_per_device = config.boots;
          max_kfr = config.max_kfr;
          rows;
        })

let to_json (report : report) =
  let open Eric_telemetry.Json in
  Obj
    [
      ("suite", Str "env_sweep");
      ("devices", Num (float_of_int report.devices));
      ("boots_per_device", Num (float_of_int report.boots_per_device));
      ("max_kfr", Num report.max_kfr);
      ("passed", Bool (passed report));
      ( "corners",
        List
          (List.map
             (fun row ->
               Obj
                 [
                   ("corner", Str row.corner);
                   ("noise_scale", Num (Eric_puf.Env.noise_scale row.env));
                   ("age_years", Num row.env.Eric_puf.Env.age_years);
                   ("boots", Num (float_of_int row.boots));
                   ("plain_failures", Num (float_of_int row.plain_failures));
                   ("plain_kfr", Num (plain_kfr row));
                   ("fuzzy_failures", Num (float_of_int row.fuzzy_failures));
                   ("fuzzy_kfr", Num (fuzzy_kfr row));
                   ("wrong_keys", Num (float_of_int row.wrong_keys));
                   ("mean_attempts", Num (mean_attempts row));
                 ])
             report.rows) );
    ]

let pp_report fmt (report : report) =
  Format.fprintf fmt "@[<v>%-14s %7s %6s %10s %10s %6s %9s@," "corner" "noise" "boots"
    "plain-kfr" "fuzzy-kfr" "wrong" "attempts";
  List.iter
    (fun row ->
      Format.fprintf fmt "%-14s %6.1fx %6d %9.4f %9.4f %6d %9.2f@," row.corner
        (Eric_puf.Env.noise_scale row.env)
        row.boots (plain_kfr row) (fuzzy_kfr row) row.wrong_keys (mean_attempts row))
    report.rows;
  (match breaches report with
  | [] ->
    Format.fprintf fmt "all corners within the %.0e post-extractor budget, no wrong keys@]"
      report.max_kfr
  | b ->
    Format.fprintf fmt "BREACH: %d corner(s) over budget or with wrong keys: %s@]"
      (List.length b)
      (String.concat ", " (List.map (fun r -> r.corner) b)))
