(* Single-bit mutation of a binary format's bytes, shared by the suites
   that own one: every flip must decode to [Ok] or [Error] without
   raising, and every [Ok] must re-serialize to the flipped bytes, so a
   decoder that accepts a bit its writer never writes fails here. *)

(* [roundtrip b] decodes [b]: [None] for an [Error], [Some] of the
   decoded value re-serialized for an [Ok]. *)
let every_flip ~roundtrip wire =
  let rec go bit =
    if bit = 8 * Bytes.length wire then Ok ()
    else begin
      let b = Bytes.copy wire and i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit land 7))));
      let at = Printf.sprintf "bit %d of byte %d" (bit land 7) i in
      match roundtrip b with
      | None -> go (bit + 1)
      | Some b' when Bytes.equal b b' -> go (bit + 1)
      | Some _ -> Error (at ^ ": accepted, but re-serializes differently")
      | exception e -> Error (at ^ ": raised " ^ Printexc.to_string e)
    end
  in
  go 0

(* A qcheck property over the labelled fixtures [corners], always tried
   first, then [random] more drawn from [gen]. *)
let property ~name ~corners ~random ~gen ~roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:(List.length corners + random) ~name
       (QCheck.make ~print:fst (QCheck.Gen.graft_corners gen corners ()))
       (fun (label, wire) ->
         match every_flip ~roundtrip wire with
         | Ok () -> true
         | Error m -> QCheck.Test.fail_reportf "%s: %s" label m))
