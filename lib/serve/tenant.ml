(* A tenant = one fleet registry plus an indexable device population.

   Provisioning enrolls [count] devices starting at [first_id], skipping
   the occasional die that cannot field enough stable chains — the same
   id always fails (or succeeds) enrollment, so the surviving population
   is deterministic.  Devices live in an array because the serve loop
   picks them by uniform index millions of times per run.

   The reliability screening (the expensive part) runs as engine jobs in
   waves of consecutive candidate ids; each die's screen depends only on
   its own PUF noise stream, and registry records are written after each
   wave in id order, so the surviving population is independent of the
   scheduler. *)

module Engine = Eric_engine.Engine

type t = {
  t_label : string;
  t_registry : Eric_fleet.Registry.t;
  t_devices : Eric_puf.Device.id array;
}

let provision ?scheduler ~label ~first_id ~count () =
  if count < 1 then invalid_arg "Tenant.provision: need at least one device";
  let registry = Eric_fleet.Registry.create () in
  let ids = ref [] in
  let enrolled = ref 0 in
  let next = ref first_id in
  let tried = ref 0 in
  let budget = (count * 8) + 64 in
  let screen id =
    match Eric_puf.Enroll.enroll (Eric_fleet.Registry.device registry id) with
    | Ok e -> Engine.Done e
    | Error reason -> Engine.Skipped reason
  in
  while !enrolled < count do
    let wave = min (count - !enrolled) (budget - !tried) in
    if wave <= 0 then
      failwith
        (Printf.sprintf "Tenant.provision %s: %d/%d dies enrolled after %d tries"
           label !enrolled count !tried);
    let items = Array.init wave (fun i -> Int64.add !next (Int64.of_int i)) in
    next := Int64.add !next (Int64.of_int wave);
    tried := !tried + wave;
    let commit i (c : _ Engine.completion) =
      match c.Engine.c_outcome with
      | Engine.Done e -> (
        match Eric_fleet.Registry.enroll ~label ~enrollment:e registry items.(i) with
        | Ok entry ->
          ids := entry.Eric_fleet.Registry.device_id :: !ids;
          incr enrolled
        | Error _ -> ())
      | Engine.Faulted _ | Engine.Skipped _ -> ()
    in
    Array.iteri commit
      (Engine.run ?scheduler ~name:"serve.tenant.provision" screen items).Engine.completions
  done;
  { t_label = label; t_registry = registry; t_devices = Array.of_list (List.rev !ids) }

let label t = t.t_label
let registry t = t.t_registry

let device_id t i =
  if i < 0 || i >= Array.length t.t_devices then
    invalid_arg "Tenant.device_id: index out of range";
  t.t_devices.(i)

let entry t i =
  match Eric_fleet.Registry.find t.t_registry (device_id t i) with
  | Some e -> e
  | None -> assert false (* enrolled above; registry never forgets *)
