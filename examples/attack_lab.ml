(* Attack lab: what the paper's two adversaries actually see and get.

   Walks the threat model: (i) a static-analysis attacker disassembling an
   intercepted package, (ii) a dynamic-analysis attacker running it on
   hardware they control, (iii) in-transit tampering and soft errors.

     dune exec examples/attack_lab.exe *)

let secret_program =
  {|
// The "IP" the attacker wants: a distinctive constant-time comparison
// routine plus a key schedule.
int schedule[16];

void expand(int seed) {
  for (int i = 0; i < 16; i = i + 1) {
    seed = (seed * 0x5deece66 + 11) % 0x7fffffff;
    schedule[i] = seed;
  }
}

int compare(int *a, int *b, int n) {
  int acc = 0;
  for (int i = 0; i < n; i = i + 1) {
    acc = acc | (a[i] ^ b[i]);
  }
  return acc == 0;
}

int main() {
  expand(42);
  println_int(compare(schedule, schedule, 16));
  println_int(schedule[7] % 100000);
  return 0;
}
|}

let show_listing title text ~lines =
  Printf.printf "\n%s (first %d parcels):\n" title lines;
  let all = Eric_rv.Disasm.disassemble_stream text in
  List.iteri
    (fun i (l : Eric_rv.Disasm.line) ->
      if i < lines then
        match l.decoded with
        | Some inst -> Printf.printf "  %4x:  %s\n" l.offset (Eric_rv.Disasm.inst_to_string inst)
        | None -> Printf.printf "  %4x:  <not a valid instruction>\n" l.offset)
    all

let () =
  let target = Eric.Target.of_id 5150L in
  let key = Eric.Protocol.provision target in
  let build =
    match Eric.Source.build ~mode:Eric.Config.Full ~key secret_program with
    | Ok b -> b
    | Error e -> failwith e
  in
  let plain_text = build.Eric.Source.image.Eric_rv.Program.text in
  let cipher_text = build.Eric.Source.package.Eric.Package.enc_text in

  print_endline "=== 1. Static analysis: disassembling the intercepted package ===";
  show_listing "what the attacker would see WITHOUT ERIC" plain_text ~lines:8;
  show_listing "what the attacker sees WITH ERIC" cipher_text ~lines:8;
  let rp = Eric.Analysis.static_analysis plain_text in
  let rc = Eric.Analysis.static_analysis cipher_text in
  Format.printf "@.plaintext : %a@." Eric.Analysis.pp_static_report rp;
  Format.printf "ciphertext: %a@." Eric.Analysis.pp_static_report rc;
  Printf.printf "byte entropy: %.2f -> %.2f bits/byte (8.0 = random)\n"
    (Eric.Analysis.byte_entropy plain_text)
    (Eric.Analysis.byte_entropy cipher_text);

  print_endline "\n=== 2. Dynamic analysis: running it on attacker-controlled hardware ===";
  let lab_device = Eric.Target.of_id 0xA77ACCE5L in
  (match Eric.Protocol.transmit ~source:build ~target:lab_device () with
  | Eric.Protocol.Refused reason ->
    Format.printf "lab device: %a — no instruction ever executes@." Eric.Target.pp_load_error
      reason
  | Eric.Protocol.Executed _ -> failwith "attack succeeded?!");
  (* Even brute-forcing one key bit tells the attacker almost nothing: *)
  Printf.printf "key diffusion: flipping 1 key bit changes %.1f%% of decrypted text bits\n"
    (100.0 *. Eric.Analysis.diffusion ~key build.Eric.Source.package);

  print_endline "\n=== 3. Tampering and soft errors in transit ===";
  let attempts =
    [ ("1 flipped bit (soft error)", Eric.Protocol.Bit_flips { count = 1; seed = 1L });
      ("8 flipped bits", Eric.Protocol.Bit_flips { count = 8; seed = 2L });
      ("malicious 16-byte splice", Eric.Protocol.Splice { payload = Bytes.make 16 '\x90'; at = 120 });
      ("truncated tail", Eric.Protocol.Truncate 5) ]
  in
  List.iter
    (fun (name, attack) ->
      match Eric.Protocol.transmit ~attack ~source:build ~target () with
      | Eric.Protocol.Refused reason ->
        Format.printf "  %-28s -> %a@." name Eric.Target.pp_load_error reason
      | Eric.Protocol.Executed _ -> Format.printf "  %-28s -> EXECUTED (bad!)@." name)
    attempts;

  print_endline "\n=== 4. The legitimate device, for contrast ===";
  match Eric.Protocol.transmit ~source:build ~target () with
  | Eric.Protocol.Executed r ->
    Printf.printf "validated and ran; output:\n%s" r.Eric_sim.Soc.output
  | Eric.Protocol.Refused _ -> failwith "legit device refused"
