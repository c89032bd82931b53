open Eric_rv
module Memory = Eric_util.Memory

type result = {
  status : Cpu.status;
  output : string;
  exec_cycles : int64;
  load_cycles : int64;
  guard_cycles : int64;
  instructions : int64;
  icache_hit_rate : float;
  dcache_hit_rate : float;
}

let total_cycles r = Int64.add r.exec_cycles r.load_cycles

let plain_load_cycles image =
  Eric_hw.Hde.load_plain Eric_hw.Hde.default_config
    ~image_bytes:(Program.binary_size image)

let load image =
  let memory = Memory.create ~size:Program.Layout.memory_size in
  Memory.blit_bytes memory ~addr:Program.Layout.text_base image.Program.text;
  Memory.blit_bytes memory ~addr:(Program.Layout.data_base image) image.Program.data;
  if image.Program.bss_size > 0 then
    Memory.fill memory ~addr:(Program.Layout.bss_base image) ~len:image.Program.bss_size '\000';
  memory

let boot ?timing ?branch_predictor image memory =
  Cpu.create ?timing ?branch_predictor ~memory ~pc:(Program.Layout.entry_address image)
    ~sp:Program.Layout.stack_top ()

(* Export the per-run hardware counters as gauges: the figures that the
   bench harness reads from [result] become queryable through one metric
   pipeline (latest run wins, as for any gauge). *)
let record_result r =
  if Eric_telemetry.Control.is_enabled () then begin
    let set = Eric_telemetry.Registry.set in
    set "sim.exec_cycles" (Int64.to_float r.exec_cycles);
    set "sim.load_cycles" (Int64.to_float r.load_cycles);
    set "sim.instructions" (Int64.to_float r.instructions);
    set "sim.cpi"
      (if r.instructions = 0L then 0.0
       else Int64.to_float r.exec_cycles /. Int64.to_float r.instructions);
    set "sim.icache_hit_rate" r.icache_hit_rate;
    set "sim.dcache_hit_rate" r.dcache_hit_rate
  end

let finish ?(guard_cycles = 0) ~load_cycles cpu status =
  let r =
    {
      status;
      output = Cpu.output cpu;
      exec_cycles = Int64.of_int (Cpu.cycles cpu);
      load_cycles;
      guard_cycles = Int64.of_int guard_cycles;
      instructions = Cpu.instructions cpu;
      icache_hit_rate = Cache.hit_rate (Cpu.icache cpu);
      dcache_hit_rate = Cache.hit_rate (Cpu.dcache cpu);
    }
  in
  record_result r;
  r

let running cpu = match Cpu.status cpu with Cpu.Running -> true | _ -> false

(* Same stepping contract as [Cpu.run], with the scrub engine interleaved
   between instructions whenever its interval elapses: the core runs to
   the next deadline in one [Cpu.run_until], then the pass runs.  The
   deadline is above the count after a pass, so every chunk steps. *)
let run_guarded ?(fuel = 50_000_000) guard image cpu memory =
  let integ = Integrity.create ~config:guard ~image memory in
  Integrity.attach integ cpu;
  let remaining = ref fuel in
  while running cpu && !remaining > 0 do
    if Integrity.scrub_due integ ~now:(Cpu.cycles cpu) then Integrity.scrub integ cpu;
    if running cpu then
      remaining :=
        !remaining - Cpu.run_until cpu ~fuel:!remaining ~cycles:(Integrity.next_scrub integ)
  done;
  (* [Cpu.run ~fuel:0] applies the same out-of-fuel faulting as the
     unguarded path without stepping. *)
  let status = if running cpu then Cpu.run ~fuel:0 cpu else Cpu.status cpu in
  ((Integrity.stats integ).Integrity.guard_cycles, status)

let run_loaded ?timing ?fuel ?(guard = Eric_hw.Guard.disabled) ?trace ~load_cycles image
    memory =
  let cpu = boot ?timing image memory in
  Cpu.set_trace cpu trace;
  let guard_cycles, status =
    Eric_telemetry.Span.with_ ~cat:"sim" ~name:"sim.execute" (fun () ->
        if Eric_hw.Guard.enabled guard then run_guarded ?fuel guard image cpu memory
        else (0, Cpu.run ?fuel cpu))
  in
  finish ~guard_cycles ~load_cycles cpu status

let run_program ?timing ?branch_predictor ?fuel image =
  let cpu = boot ?timing ?branch_predictor image (load image) in
  let status = Eric_telemetry.Span.with_ ~cat:"sim" ~name:"sim.execute" (fun () -> Cpu.run ?fuel cpu) in
  finish ~load_cycles:(plain_load_cycles image) cpu status
