(* The OTA update service loop: a discrete-event M/G/k simulation.

   [servers] is an array of per-server free-at instants; the admission
   queue holds requests FIFO between arrival and service start.  All
   latency is simulated — the sum of the scenario's cost model plus the
   shipper's simulated backoff — so a (scenario, seed) pair produces a
   byte-identical SLO report on any machine.

   The run's {!Eric_util.Sim_clock} is a monotone high-water mark over
   every processed event; the shipper advances it too (its retry
   backoff), so fleet delivery and the service loop account time on one
   shared timeline. *)

module Registry = Eric_fleet.Registry
module Shipper = Eric_fleet.Shipper
module Cache = Eric_fleet.Artifact_cache
module T = Eric_telemetry.Registry

let corpus = Array.of_list Eric_workloads.Workloads.all

type state = {
  scenario : Scenario.t;
  policy : Eric_fleet.Backoff.policy;
  seed : int64;
  clock : Eric_util.Sim_clock.t;
  cache : Cache.t;
  tenants : Tenant.t array;
  mode : Eric.Config.mode;
  latency : Eric_telemetry.Histogram.t;
  mutable served : int;
  mutable refused : int;
  mutable quarantined : int;
  mutable rotations : int;
  mutable retried : int;
  mutable faults_injected : int;
  mutable faults_detected : int;
  mutable faults_undetected : int;
  mutable fault_recovered : int;
}

let quarantine ~reason st tenant (r : Traffic.request) =
  st.quarantined <- st.quarantined + 1;
  T.inc ~labels:[ ("reason", reason) ] "serve.quarantined_total";
  let reg = Tenant.registry tenant in
  let entry = Tenant.entry tenant r.r_device in
  match entry.Registry.status with
  | Registry.Quarantined _ -> ()
  | Registry.Active ->
      Registry.update reg { entry with Registry.status = Registry.Quarantined reason }

(* Rotate the device to epoch+1 under its enrolled label.  A successful
   rotation re-activates a quarantined device (fresh keys cure a stale or
   hostile key); a failed key reconstruction at the new epoch quarantines
   it for re-enrollment instead. *)
let rotate st tenant (r : Traffic.request) =
  let reg = Tenant.registry tenant in
  let entry = Tenant.entry tenant r.r_device in
  let context =
    { Eric.Kmu.epoch = entry.Registry.epoch + 1; label = entry.Registry.label }
  in
  let target = Registry.target_for reg ~context entry.Registry.device_id in
  match Eric.Target.key_state target with
  | Error _ -> None
  | Ok key ->
      st.rotations <- st.rotations + 1;
      T.inc "serve.rotations_total";
      Registry.update reg
        {
          entry with
          Registry.epoch = entry.Registry.epoch + 1;
          key;
          status = Registry.Active;
        };
      Some (target, key)

(* A corpus workload the artifact cache could not build (compile, or
   write to its disk tier) ends the run; [run] returns it as [Error]. *)
exception Unbuildable of string

(* Serve one admitted request starting at [start]; returns its completion
   instant.  Every cost is simulated per the scenario's cost model. *)
let serve_one st (r : Traffic.request) ~start =
  let c = st.scenario.Scenario.costs in
  let tenant = st.tenants.(r.r_tenant) in
  let entry = Tenant.entry tenant r.r_device in
  let dur = ref c.Scenario.overhead_ns in
  let add ns = dur := Int64.add !dur ns in
  let add_f f = add (Int64.of_float f) in
  let completion () = Int64.add start !dur in
  T.inc ~labels:[ ("kind", Traffic.kind_label r.r_kind) ] "serve.requests_total";
  match (entry.Registry.status, r.r_kind) with
  | Registry.Quarantined _, Traffic.Update ->
      (* the service refuses to ship to a quarantined device; only a
         rotation (re-key) or re-enrollment brings it back *)
      st.quarantined <- st.quarantined + 1;
      T.inc ~labels:[ ("reason", "already-quarantined") ] "serve.quarantined_total";
      completion ()
  | _ -> (
      let wl = corpus.(r.r_program) in
      match Cache.get_or_compile st.cache ~mode:st.mode wl.Eric_workloads.Workloads.source_small with
      | Error e ->
          raise
            (Unbuildable
               (Printf.sprintf "corpus workload %s: %s" wl.Eric_workloads.Workloads.name e))
      | Ok (prepared, outcome) -> (
          add
            (match outcome with
            | Cache.Memory_hit -> c.Scenario.mem_hit_ns
            | Cache.Disk_hit -> c.Scenario.disk_hit_ns
            | Cache.Miss -> c.Scenario.prepare_ns);
          let keyed =
            match r.r_kind with
            | Traffic.Update ->
                Some (Registry.target (Tenant.registry tenant) entry, entry.Registry.key)
            | Traffic.Rotate ->
                add c.Scenario.rotate_ns;
                rotate st tenant r
          in
          match keyed with
          | None ->
              quarantine
                ~reason:(Shipper.quarantine_label Shipper.Key_reconstruction_failed)
                st tenant r;
              completion ()
          | Some (target, key) ->
              let build = Eric.Source.personalize ~key prepared in
              add_f
                (float_of_int build.Eric.Source.plain_size
                *. c.Scenario.personalize_ns_per_byte);
              let channel = Scenario.channel_of st.scenario ~seed:st.seed ~seq:r.r_seq in
              let fires, soft_errors =
                match st.scenario.Scenario.faults with
                | Scenario.No_faults -> (None, None)
                | Scenario.Soft_errors { per_exec } ->
                    let fires = ref 0 in
                    (* One bit flipped in resident text, after HDE
                       validation and before the first instruction —
                       salted by (run seed, request, attempt) so a retry
                       of the same request draws an independent upset. *)
                    let inject ~attempt memory (image : Eric_rv.Program.t) =
                      let rng =
                        Eric_util.Prng.create
                          ~seed:
                            (Int64.logxor st.seed
                               (Int64.of_int ((r.r_seq * 0x10001) + attempt)))
                      in
                      if Eric_util.Prng.float rng < per_exec then begin
                        incr fires;
                        let text_len = Eric_rv.Program.text_size image in
                        let bit = Eric_util.Prng.int rng ~bound:(text_len * 8) in
                        let addr = Eric_rv.Program.Layout.text_base + (bit / 8) in
                        Eric_util.Memory.write_u8 memory addr
                          (Eric_util.Memory.read_u8 memory addr lxor (1 lsl (bit mod 8)))
                      end
                    in
                    (Some fires, Some inject)
              in
              let execute = Option.is_some soft_errors in
              let delivery =
                Shipper.ship ~policy:st.policy ~channel ~execute
                  ?fuel:(if execute then Some 2_000_000 else None)
                  ~clock:st.clock ?soft_errors ~build ~target ()
              in
              (match fires with
              | None -> ()
              | Some fires ->
                  let guard_faults = delivery.Shipper.integrity_faults in
                  (* Same convention as the verif DRAM campaign
                     (trap_is_detection): a corrupted execution the
                     machine aborts with its own fault was caught, not
                     silent — only a run that *completes* on corrupted
                     memory counts as undetected. *)
                  let trap_detected =
                    match delivery.Shipper.outcome with
                    | Shipper.Delivered
                        {
                          exec = Some { Eric_sim.Soc.status = Eric_sim.Cpu.Faulted _; _ };
                          _;
                        }
                      when !fires > guard_faults ->
                        1
                    | _ -> 0
                  in
                  let detected = guard_faults + trap_detected in
                  st.faults_injected <- st.faults_injected + !fires;
                  st.faults_detected <- st.faults_detected + detected;
                  st.faults_undetected <- st.faults_undetected + max 0 (!fires - detected);
                  if !fires > 0 then
                    T.inc ~by:(Int64.of_int !fires) "serve.faults_injected_total";
                  if detected > 0 then
                    T.inc ~by:(Int64.of_int detected) "serve.faults_detected_total");
              add_f
                (float_of_int (delivery.Shipper.wire_bytes * delivery.Shipper.attempts)
                *. c.Scenario.wire_ns_per_byte);
              add delivery.Shipper.backoff_ns;
              (match delivery.Shipper.outcome with
              | Shipper.Delivered { load_cycles; exec } ->
                  add_f (Int64.to_float load_cycles *. c.Scenario.cycle_ns);
                  (* Executed requests also bill on-device run time; the
                     guard's scrub/fetch-check cycles are already charged
                     into [exec_cycles], so its overhead shows up in the
                     served latency, not a side channel. *)
                  (match exec with
                  | Some res ->
                      add_f
                        (Int64.to_float res.Eric_sim.Soc.exec_cycles *. c.Scenario.cycle_ns)
                  | None -> ());
                  if delivery.Shipper.integrity_faults > 0 then begin
                    st.fault_recovered <- st.fault_recovered + 1;
                    T.inc "serve.faults_recovered_total"
                  end;
                  st.served <- st.served + 1;
                  if Shipper.retried delivery then st.retried <- st.retried + 1;
                  T.inc "serve.served_total";
                  let latency_ns =
                    Int64.to_float (Int64.sub (completion ()) r.r_arrival_ns)
                  in
                  Eric_telemetry.Histogram.observe st.latency latency_ns;
                  T.observe "serve.latency_ns" latency_ns
              | Shipper.Quarantined { reason } ->
                  quarantine ~reason:(Shipper.quarantine_label reason) st tenant r);
              completion ()))

let argmin servers =
  let best = ref 0 in
  for i = 1 to Array.length servers - 1 do
    if Int64.compare servers.(i) servers.(!best) < 0 then best := i
  done;
  !best

let run ?(seed = 1L) ?cache_dir ?(policy = Eric_fleet.Backoff.default)
    ~(scenario : Scenario.t) () =
  let rng = Eric_util.Prng.create ~seed in
  let traffic_rng = Eric_util.Prng.split rng in
  let programs =
    Zipf.create ~exponent:scenario.Scenario.zipf_exponent ~n:(Array.length corpus) ()
  in
  let tenants =
    Array.init scenario.Scenario.tenants (fun i ->
        Tenant.provision
          ~label:(Printf.sprintf "tenant-%d" i)
          ~first_id:(Int64.of_int (0x5E0000 + (i * 0x1000)))
          ~count:scenario.Scenario.devices_per_tenant ())
  in
  let st =
    {
      scenario;
      policy;
      seed;
      clock = Eric_util.Sim_clock.create ();
      cache = Cache.create ?dir:cache_dir ();
      tenants;
      mode = Eric.Config.Full;
      latency = Eric_telemetry.Histogram.create ();
      served = 0;
      refused = 0;
      quarantined = 0;
      rotations = 0;
      retried = 0;
      faults_injected = 0;
      faults_detected = 0;
      faults_undetected = 0;
      fault_recovered = 0;
    }
  in
  (* Fault-injecting scenarios provision every device with the scenario's
     integrity guard: corrupted executions must fault (and re-deliver)
     instead of completing silently. *)
  if Eric_hw.Guard.enabled scenario.Scenario.guard then
    Array.iter
      (fun tn ->
        Registry.set_hde (Tenant.registry tn)
          { Eric_hw.Hde.default_config with Eric_hw.Hde.guard = scenario.Scenario.guard })
      tenants;
  let requests =
    Traffic.generate ~rng:traffic_rng ~rate:(Scenario.rate scenario)
      ~max_rate:(Scenario.max_rate scenario)
      ~duration_ns:scenario.Scenario.duration_ns ~tenants:scenario.Scenario.tenants
      ~devices_per_tenant:scenario.Scenario.devices_per_tenant ~programs
      ~rotate_fraction:scenario.Scenario.rotate_fraction ()
  in
  let queue = Admit.create ~capacity:scenario.Scenario.queue_capacity in
  let servers = Array.make scenario.Scenario.servers 0L in
  (* Start queued requests on any server that frees up at or before
     [bound]; service is FIFO in arrival order. *)
  let rec drain bound =
    if Admit.length queue > 0 then begin
      let i = argmin servers in
      if Int64.compare servers.(i) bound <= 0 then begin
        match Admit.pop queue with
        | None -> ()
        | Some h ->
            let start =
              if Int64.compare servers.(i) h.Traffic.r_arrival_ns > 0 then servers.(i)
              else h.Traffic.r_arrival_ns
            in
            let completion = serve_one st h ~start in
            servers.(i) <- completion;
            Eric_util.Sim_clock.advance_to st.clock completion;
            drain bound
      end
    end
  in
  match
    List.iter
      (fun (r : Traffic.request) ->
        Eric_util.Sim_clock.advance_to st.clock r.Traffic.r_arrival_ns;
        drain r.Traffic.r_arrival_ns;
        match Admit.offer queue r with
        | Admit.Shed ->
            st.refused <- st.refused + 1;
            T.inc ~labels:[ ("reason", "queue-shed") ] "serve.refused_total"
        | Admit.Accepted -> drain r.Traffic.r_arrival_ns)
      requests;
    drain Int64.max_int
  with
  | exception Unbuildable msg -> Error msg
  | () ->
      Ok
        (Slo.make ~scenario ~seed
           ~faults_injected:st.faults_injected ~faults_detected:st.faults_detected
           ~faults_undetected:st.faults_undetected ~fault_recovered:st.fault_recovered
           ~completed_ns:(Eric_util.Sim_clock.now_ns st.clock)
           ~requests:(List.length requests) ~served:st.served ~refused:st.refused
           ~quarantined:st.quarantined ~rotations:st.rotations ~retried:st.retried
           ~queue_peak:(Admit.peak queue) ~cache:st.cache ~latency_hist:st.latency ())
