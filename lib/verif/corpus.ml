type kind =
  | Divergence
  | Compile_error
  | Injection_escape of { region : string; bit : int }

type entry = {
  kind : kind;
  seed : int64;
  trace : int array;
  source : string;
  note : string;
}

let magic = "ERIC-VERIF-REPRO 1"

let kind_label = function
  | Divergence -> "divergence"
  | Compile_error -> "compile-error"
  | Injection_escape _ -> "injection-escape"

let trace_string trace = String.concat "," (List.map string_of_int (Array.to_list trace))

let entry_id e =
  let digest =
    Eric_crypto.Sha256.digest
      (Bytes.of_string (kind_label e.kind ^ "\n" ^ trace_string e.trace ^ "\n" ^ e.source))
  in
  String.sub (Eric_util.Bytesx.to_hex digest) 0 12

let file_name e = Printf.sprintf "%s-%s.repro" (kind_label e.kind) (entry_id e)

let to_string e =
  let b = Buffer.create 256 in
  Buffer.add_string b (magic ^ "\n");
  Buffer.add_string b (Printf.sprintf "kind: %s\n" (kind_label e.kind));
  Buffer.add_string b (Printf.sprintf "seed: %Ld\n" e.seed);
  (match e.kind with
  | Injection_escape { region; bit } ->
    Buffer.add_string b (Printf.sprintf "region: %s\n" region);
    Buffer.add_string b (Printf.sprintf "bit: %d\n" bit)
  | Divergence | Compile_error -> ());
  Buffer.add_string b (Printf.sprintf "note: %s\n" (String.map (function '\n' -> ' ' | c -> c) e.note));
  Buffer.add_string b (Printf.sprintf "trace: %s\n" (trace_string e.trace));
  Buffer.add_string b "--- source ---\n";
  Buffer.add_string b e.source;
  Buffer.contents b

let save ~dir e =
  let path = Filename.concat dir (file_name e) in
  Result.bind (Eric_util.Wire.ensure_dir dir) (fun () ->
      Result.map
        (fun () -> path)
        (Eric_util.Wire.write_atomic path (fun oc -> output_string oc (to_string e))))

let parse text =
  let ( let* ) = Result.bind in
  match String.index_opt text '\n' with
  | None -> Error "empty reproducer file"
  | Some _ -> (
    let marker = "--- source ---\n" in
    let rec find i =
      if i + String.length marker > String.length text then None
      else if String.sub text i (String.length marker) = marker then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> Error "no '--- source ---' section"
    | Some cut ->
      let header = String.sub text 0 cut in
      let source = String.sub text (cut + String.length marker) (String.length text - cut - String.length marker) in
      let lines = String.split_on_char '\n' header in
      let* () =
        match lines with
        | m :: _ when m = magic -> Ok ()
        | _ -> Error "bad reproducer magic (expected ERIC-VERIF-REPRO 1)"
      in
      let field name =
        List.find_map
          (fun line ->
            let prefix = name ^ ": " in
            if String.length line >= String.length prefix
               && String.sub line 0 (String.length prefix) = prefix
            then Some (String.sub line (String.length prefix) (String.length line - String.length prefix))
            else None)
          lines
      in
      let* kind_s = Option.to_result ~none:"missing kind" (field "kind") in
      let* seed =
        match Option.bind (field "seed") Int64.of_string_opt with
        | Some s -> Ok s
        | None -> Error "missing or bad seed"
      in
      let* trace =
        match field "trace" with
        | None -> Error "missing trace"
        | Some "" -> Ok [||]
        | Some s -> (
          let parts = String.split_on_char ',' s in
          try Ok (Array.of_list (List.map int_of_string parts))
          with Failure _ -> Error "bad trace (expected comma-separated integers)")
      in
      let note = Option.value ~default:"" (field "note") in
      let* kind =
        match kind_s with
        | "divergence" -> Ok Divergence
        | "compile-error" -> Ok Compile_error
        | "injection-escape" -> (
          match (field "region", Option.bind (field "bit") int_of_string_opt) with
          | Some region, Some bit -> Ok (Injection_escape { region; bit })
          | _ -> Error "injection-escape entry missing region/bit")
        | other -> Error (Printf.sprintf "unknown reproducer kind %S" other)
      in
      Ok { kind; seed; trace; source; note })

let load path = Result.bind (Eric_util.Wire.read_file path) parse

let list ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load path))

let pp_entry fmt e =
  Format.fprintf fmt "%s seed=%Ld trace=%d draws source=%d B%s" (kind_label e.kind) e.seed
    (Array.length e.trace)
    (String.length e.source)
    (if e.note = "" then "" else " — " ^ e.note)
