open Eric_cc
module Leakage = Eric_lint.Leakage
module Prng = Eric_util.Prng

type pass = Flatten | Opaque | Dummy | Arith | Constants

(* Application order, regardless of how the user spelled the list:
   data passes first (they must only see real code), then the decoy
   planters, then flattening, which sweeps real and decoy blocks alike
   into its dispatch table.  Block labels survive every pass, so decoy
   provenance maps through to the image's symbol table. *)
let all_passes = [ Constants; Arith; Opaque; Dummy; Flatten ]

let pass_name = function
  | Flatten -> "flatten"
  | Opaque -> "opaque"
  | Dummy -> "dummy"
  | Arith -> "arith"
  | Constants -> "constants"

let pass_of_string = function
  | "flatten" -> Some Flatten
  | "opaque" -> Some Opaque
  | "dummy" -> Some Dummy
  | "arith" -> Some Arith
  | "constants" -> Some Constants
  | _ -> None

(* Wire bits of the package header's pass mask (Package.obf). *)
let pass_bit = function Flatten -> 1 | Opaque -> 2 | Dummy -> 4 | Arith -> 8 | Constants -> 16

let mask_of_passes passes = List.fold_left (fun m p -> m lor pass_bit p) 0 passes
let passes_of_mask mask = List.filter (fun p -> mask land pass_bit p <> 0) all_passes

(* Canonical form: application order, duplicates collapsed. *)
let canonical passes = passes_of_mask (mask_of_passes passes)

let passes_of_string s =
  let names =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun n -> n <> "")
  in
  if names = [] then Error "no passes given"
  else
    let rec go acc = function
      | [] -> Ok (canonical (List.rev acc))
      | n :: rest -> (
        match pass_of_string n with
        | Some p -> go (p :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown obfuscation pass %S (expected %s)" n
               (String.concat "|" (List.map pass_name all_passes))))
    in
    go [] names

(* The documented default build seed; any other seed gives a different
   but equally reproducible build. *)
let default_seed = 0xE51C0BF5CA7E0001L

type config = { passes : pass list; seed : int64 }

let tag config =
  Printf.sprintf "obf:%s:seed=0x%Lx"
    (String.concat "," (List.map pass_name (canonical config.passes)))
    config.seed

let apply ?annot config (p : Ir.program) =
  let annot = match annot with Some a -> a | None -> Annot.create () in
  Annot.reset annot;
  Eric_telemetry.Span.with_ ~cat:"cc" ~name:"cc.obf" @@ fun () ->
  let seed = config.seed in
  let apply_one p pass =
    annot.Annot.passes_run <- annot.Annot.passes_run + 1;
    match pass with
    | Constants ->
      Constants.run ~seed ~annot p;
      p
    | Arith ->
      Arith.run ~seed ~annot p;
      p
    | Opaque ->
      Opaque.run ~seed ~annot p;
      p
    | Dummy -> Dummy.run ~seed ~annot p
    | Flatten ->
      Flatten.run ~seed ~annot p;
      p
  in
  let p = List.fold_left apply_one p (canonical config.passes) in
  if Eric_telemetry.Control.is_enabled () then begin
    let inc by name =
      if by > 0 then Eric_telemetry.Registry.inc ~by:(Int64.of_int by) ("cc.obf." ^ name)
    in
    inc annot.Annot.passes_run "passes_total";
    inc annot.Annot.blocks_inserted "blocks_inserted";
    inc annot.Annot.predicates_planted "predicates_planted";
    inc annot.Annot.constants_encoded "constants_encoded";
    inc annot.Annot.arith_rewrites "arith_rewrites";
    inc annot.Annot.functions_added "functions_added"
  end;
  p

let transform config = { Driver.t_tag = tag config; t_apply = (fun p -> apply config p) }

let hook config =
  let annot = Annot.create () in
  ({ Driver.t_tag = tag config; t_apply = (fun p -> apply ~annot config p) }, annot)

let options ?(base = Driver.default_options) config =
  { base with Driver.transform = Some (transform config) }

(* ------------------------------------------------------------------ *)
(* Grading                                                             *)
(* ------------------------------------------------------------------ *)

(* Codegen emits a [.L_<fname>_<label>] local symbol per IR block (and
   the assembler keeps locals in Program.symbols), so each planted decoy
   block or function owns a byte range of the text section: from its
   symbol to the next symbol.  [keep] rejects exactly those ranges. *)
let keep_real ~annot (image : Eric_rv.Program.t) =
  let decoy_syms = Hashtbl.create 64 in
  List.iter
    (fun (f, l) -> Hashtbl.replace decoy_syms (Printf.sprintf ".L_%s_%d" f l) ())
    annot.Annot.decoy_blocks;
  let is_decoy name =
    Hashtbl.mem decoy_syms name
    || List.exists
         (fun d -> name = d || String.starts_with ~prefix:(".L_" ^ d ^ "_") name)
         annot.Annot.decoy_funcs
  in
  let syms =
    List.sort (fun (_, a) (_, b) -> compare a b) image.Eric_rv.Program.symbols
  in
  let text_len = Eric_rv.Program.text_size image in
  let rec ranges = function
    | [] -> []
    | (name, off) :: rest ->
      let next = match rest with [] -> text_len | (_, o) :: _ -> o in
      if is_decoy name then (off, next) :: ranges rest else ranges rest
  in
  let decoy_ranges = Array.of_list (ranges syms) in
  fun off -> not (Array.exists (fun (lo, hi) -> off >= lo && off < hi) decoy_ranges)

let real_truth ~annot image =
  Truth.restrict ~keep:(keep_real ~annot image) (Truth.of_image image)

(* Grade an attacker against the obfuscated plain image: Jaccard
   recovered-structure score against the real-only truth.  1.0 means
   the obfuscation added nothing the attacker swallowed; lower means
   the recovered structure is diluted with decoys. *)
let grade ~annot ~attacker (image : Eric_rv.Program.t) =
  let truth = real_truth ~annot image in
  let coverage = Array.map (fun _ -> Leakage.Clear) (Eric_rv.Program.parcels image) in
  Leakage.recover_against attacker ~truth:truth.Truth.truth image coverage
