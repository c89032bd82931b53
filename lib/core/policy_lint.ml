open Eric_rv
module Leakage = Eric_lint.Leakage

let coverage ~mode (p : Program.t) =
  let parcels = Program.parcels p in
  let offsets = Program.parcel_offsets p in
  let selected = Config.selection_bits mode ~parcels ~offsets in
  Array.mapi
    (fun i parcel ->
      if not (Eric_util.Bitvec.get selected i) then Leakage.Clear
      else
        match mode with
        | Config.Full | Config.Partial _ -> Leakage.Enc_all
        | Config.Field (scope, _) -> (
          match parcel with
          | Program.P32 w -> Leakage.Enc32 (Config.field_mask32 scope w)
          | Program.P16 v -> Leakage.Enc16 (Config.field_mask16 scope v)))
    parcels

let analyze ~mode p = Leakage.analyze p (coverage ~mode p)
let lint ?max_leakage ~mode p = Leakage.lint ?max_leakage p (coverage ~mode p)
let recover ~mode ~attacker p = Leakage.recover attacker p (coverage ~mode p)
