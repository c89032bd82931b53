(* Tests for the dataflow framework and the analyses built on it: the
   worklist solver (fixpoint + termination on random CFGs), qcheck
   lattice laws for every lattice instance, value-set resolution of
   computed jumps, the Mc_cfg compressed-instruction fallthrough fix,
   the linear/recursive attacker hierarchy over the workloads, and the
   pipeline secret-taint obligation. *)

open Eric_lint
module Df = Dataflow
module Rv = Eric_rv

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

module Bits = Df.Make (Df.Bitset)

let test_solver_forward_diamond () =
  (*    0 -> 1 -> 3
        0 -> 2 -> 3   gen.(n) flows forward and joins at 3.  *)
  let graph = Df.graph_of_edges ~node_count:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let gen = [| 1; 2; 4; 8 |] in
  let transfer n v = v lor gen.(n) in
  let r = Bits.solve ~graph ~transfer () in
  check Alcotest.int "entry input empty" 0 r.Bits.input.(0);
  check Alcotest.int "join of both arms" (1 lor 2 lor 4) r.Bits.input.(3);
  check Alcotest.int "output includes own gen" (1 lor 2 lor 4 lor 8) r.Bits.output.(3);
  check Alcotest.bool "iterated at least once per node" true (r.Bits.iterations >= 4)

let test_solver_backward_liveness () =
  (* Straight line 0 -> 1 -> 2; node 2 uses bit 1, node 0 kills it. *)
  let graph = Df.graph_of_edges ~node_count:3 [ (0, 1); (1, 2) ] in
  let transfer n out = match n with 2 -> out lor 1 | 0 -> out land lnot 1 | _ -> out in
  let r = Bits.solve ~direction:Df.Backward ~graph ~transfer () in
  check Alcotest.int "live-out of 1 sees the use" 1 r.Bits.input.(1);
  check Alcotest.int "kill at 0" 0 r.Bits.output.(0)

let test_solver_boundary_and_loop () =
  (* Self-loop: boundary fact must survive the join and the solve must
     terminate. *)
  let graph = Df.graph_of_edges ~node_count:2 [ (0, 1); (1, 1) ] in
  let r = Bits.solve ~boundary:[ (0, 16) ] ~graph ~transfer:(fun _ v -> v) () in
  check Alcotest.int "boundary propagates through loop" 16 r.Bits.output.(1)

let test_graph_rejects_bad_edges () =
  Alcotest.check_raises "out-of-range edge" (Invalid_argument "Dataflow.graph_of_edges: edge (0,7) outside [0,3)")
    (fun () -> ignore (Df.graph_of_edges ~node_count:3 [ (0, 7) ]))

(* Random-CFG termination and fixpoint consistency: on any graph and any
   monotone gen/kill transfer, the solver returns, and every edge
   satisfies in(v) ⊒ out(u). *)
let arb_cfg =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) es)))
    QCheck.Gen.(
      int_range 1 20 >>= fun n ->
      list_size (int_bound 40) (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun es ->
      return (n, es))

let prop_solver_fixpoint (n, es) =
  let graph = Df.graph_of_edges ~node_count:n es in
  let gen = Array.init n (fun i -> 1 lsl (i mod 8)) in
  let kill = Array.init n (fun i -> 1 lsl ((i + 3) mod 8)) in
  let transfer i v = gen.(i) lor (v land lnot kill.(i)) in
  let r = Bits.solve ~boundary:[ (0, 0x100) ] ~graph ~transfer () in
  List.for_all
    (fun (u, v) ->
      let out_u = r.Bits.output.(u) and in_v = r.Bits.input.(v) in
      in_v lor out_u = in_v)
    es
  && r.Bits.iterations >= n

(* ------------------------------------------------------------------ *)
(* Lattice laws                                                        *)
(* ------------------------------------------------------------------ *)

(* One law-pack per lattice instance: join commutativity, associativity,
   idempotence, and bottom as identity. *)
let laws (type a) (module L : Df.LATTICE with type t = a) name arb =
  let t2 = QCheck.pair arb arb and t3 = QCheck.triple arb arb arb in
  [ qtest (name ^ ": join commutative") t2 (fun (a, b) ->
        L.equal (L.join a b) (L.join b a));
    qtest (name ^ ": join associative") t3 (fun (a, b, c) ->
        L.equal (L.join a (L.join b c)) (L.join (L.join a b) c));
    qtest (name ^ ": join idempotent") arb (fun a -> L.equal (L.join a a) a);
    qtest (name ^ ": bottom is identity") arb (fun a -> L.equal (L.join L.bottom a) a) ]

let arb_bitset = QCheck.map (fun i -> i land 0xFFFF) QCheck.small_nat

module Flat_int = Df.Flat (struct
  type t = int

  let equal = Int.equal
  let pp = Format.pp_print_int
end)

let arb_flat =
  QCheck.make
    ~print:(fun v -> Format.asprintf "%a" Flat_int.pp v)
    QCheck.Gen.(
      frequency
        [ (1, return Flat_int.Bot);
          (3, map (fun i -> Flat_int.Known i) (int_bound 5));
          (1, return Flat_int.Top) ])

let gen_value =
  QCheck.Gen.(
    frequency
      [ (1, return Mc_dataflow.Value.Bot);
        (1, return Mc_dataflow.Value.Top);
        (4,
          map
            (fun vs ->
              (* Normalise through join so the invariant (sorted, unique,
                 width-capped) holds, as any framework-produced value. *)
              Mc_dataflow.Value.join Mc_dataflow.Value.Bot
                (Mc_dataflow.Value.Vals (List.sort_uniq Int64.compare vs)))
            (list_size (int_range 1 10) (map Int64.of_int (int_bound 6))) ) ])

let arb_value =
  QCheck.make ~print:(Format.asprintf "%a" Mc_dataflow.Value.pp) gen_value

let arb_state =
  QCheck.make
    ~print:(Format.asprintf "%a" Mc_dataflow.State.pp)
    QCheck.Gen.(
      frequency
        [ (1, return Mc_dataflow.State.Unreached);
          (4,
            map
              (fun vs -> Mc_dataflow.State.Regs (Array.of_list vs))
              (list_repeat 32 gen_value) ) ])

let arb_taint =
  QCheck.make
    ~print:(Format.asprintf "%a" Taint.Lattice.pp)
    QCheck.Gen.(oneofl [ Taint.Lattice.Clean; Taint.Lattice.Tainted ])

module Must = Eric_cc.Ir_dataflow.Must_define

(* Every set of one solve spans the same temps, [0, 9) here. *)
let must_of_list l =
  let s = Eric_util.Bitvec.create 9 in
  List.iter (Eric_util.Bitvec.add s) l;
  Must.Defined s

let arb_must =
  QCheck.make
    ~print:(Format.asprintf "%a" Must.pp)
    QCheck.Gen.(
      frequency
        [ (1, return Must.All);
          (4, map must_of_list (list_size (int_bound 6) (int_bound 8))) ])

(* Transfer monotonicity for the value-set analysis: a ⊑ b implies
   transfer a ⊑ transfer b, over a pool of representative parcels. *)
let transfer_pool =
  let open Rv in
  [ Inst.I (Addi, Reg.a 0, Reg.a 1, 12);
    Inst.U (Lui, Reg.t_ 0, 5);
    Inst.U (Auipc, Reg.t_ 1, 0);
    Inst.Shift (Slli, Reg.a 2, Reg.a 2, 3);
    Inst.R (Add, Reg.a 0, Reg.a 1, Reg.a 2);
    Inst.R (Sub, Reg.a 3, Reg.a 0, Reg.a 1);
    Inst.Jal (Reg.ra, 8);
    Inst.Jalr (Reg.x0, Reg.ra, 0);
    Inst.Ecall ]

let leq_state a b = Mc_dataflow.State.equal (Mc_dataflow.State.join a b) b

let prop_transfer_monotone (idx, (a, b)) =
  let inst = List.nth transfer_pool (idx mod List.length transfer_pool) in
  let node = { Mc_cfg.n_index = 0; n_offset = 0; n_size = 4; n_inst = Some inst } in
  let ab = Mc_dataflow.State.join a b in
  let t = Mc_dataflow.transfer ~text_base:Rv.Program.Layout.text_base node in
  leq_state (t a) (t ab)

(* ------------------------------------------------------------------ *)
(* Mc_cfg: compressed fallthrough                                      *)
(* ------------------------------------------------------------------ *)

let p32 i = Rv.Program.P32 (Rv.Encode.encode i)

let p16 i =
  match Rv.Rvc.compress i with
  | Some enc -> Rv.Program.P16 enc
  | None -> Alcotest.fail "instruction has no compressed form"

let image_of_parcels ?(entry = 0) ?(symbols = []) parcels =
  { (Parcel_image.of_parcels (Array.of_list parcels)) with
    Rv.Program.entry_offset = entry;
    symbols }

let exit_stub code =
  [ p32 (Rv.Inst.I (Addi, Rv.Reg.a 0, Rv.Reg.x0, code));
    p32 (Rv.Inst.I (Addi, Rv.Reg.a 7, Rv.Reg.x0, 93));
    p32 Rv.Inst.Ecall ]

let test_rvc_indirect_call_falls_through () =
  (* c.jalr is 2 bytes: the resume point is offset+2, not +4.  Before the
     Indirect_call flow existed the successor was dropped entirely and
     the exit stub below was unreachable. *)
  let parcels =
    p32 (Rv.Inst.U (Lui, Rv.Reg.t_ 0, 16)) (* t0 = text base *)
    :: p16 (Rv.Inst.Jalr (Rv.Reg.ra, Rv.Reg.t_ 0, 0))
    :: exit_stub 0
  in
  let cfg = Mc_cfg.build (image_of_parcels parcels) in
  let node = Option.get (Mc_cfg.node_at cfg 4) in
  check Alcotest.int "compressed parcel is 2 bytes" 2 node.Mc_cfg.n_size;
  check Alcotest.bool "classified as an indirect call" true
    (Mc_cfg.flow_of node = Mc_cfg.Indirect_call);
  check Alcotest.(option int) "falls through 2 bytes later" (Some 6)
    (Mc_cfg.fallthrough cfg node);
  (* The 4-byte (uncompressed) form resumes 4 bytes later. *)
  let cfg32 =
    Mc_cfg.build
      (image_of_parcels
         (p32 (Rv.Inst.U (Lui, Rv.Reg.t_ 0, 16))
         :: p32 (Rv.Inst.Jalr (Rv.Reg.ra, Rv.Reg.t_ 0, 0))
         :: exit_stub 0))
  in
  let node32 = Option.get (Mc_cfg.node_at cfg32 4) in
  check Alcotest.(option int) "32-bit form resumes at +4" (Some 8)
    (Mc_cfg.fallthrough cfg32 node32)

let test_rvc_mixed_blocks () =
  (* Mixed 2/4-byte encodings: block leaders must be n_size-exact.  A
     compressed branch (c.beqz) at offset 4 is 2 bytes; its fallthrough
     block starts at 6. *)
  let parcels =
    [ p16 (Rv.Inst.I (Addi, Rv.Reg.a 0, Rv.Reg.x0, 1)); (* 0: c.li, 2 bytes *)
      p16 (Rv.Inst.Branch (Beq, Rv.Reg.a 0, Rv.Reg.x0, 10)); (* 2: c.beqz -> 12 *)
      p32 (Rv.Inst.I (Addi, Rv.Reg.a 0, Rv.Reg.a 0, 2)); (* 4 *)
      p32 (Rv.Inst.Jal (Rv.Reg.x0, 8)) (* 8: j -> 16 *) ]
    @ exit_stub 0 (* 12, 16, 20 *)
  in
  let cfg = Mc_cfg.build (image_of_parcels parcels) in
  let { Mc_cfg.blocks; block_of_node } = Mc_cfg.basic_blocks cfg in
  let block_starting off =
    let n = Option.get (Mc_cfg.node_at cfg off) in
    let b = blocks.(block_of_node.(n.Mc_cfg.n_index)) in
    check Alcotest.int ("block leader at " ^ string_of_int off) b.Mc_cfg.bb_first
      n.Mc_cfg.n_index;
    b
  in
  (* Leaders: 0 (entry), 4 (right after the 2-byte c.beqz), 12 (branch
     target), 16 (jump target). *)
  ignore (block_starting 0);
  ignore (block_starting 4);
  ignore (block_starting 12);
  ignore (block_starting 16);
  let b0 = blocks.(block_of_node.(0)) in
  let b4 = blocks.(block_of_node.((Option.get (Mc_cfg.node_at cfg 4)).Mc_cfg.n_index)) in
  check Alcotest.int "entry block spans both compressed parcels" 1 b0.Mc_cfg.bb_last;
  check Alcotest.int "two successors of the branch block" 2 (List.length b0.Mc_cfg.bb_succs);
  check Alcotest.int "fallthrough chain reaches the jump" 1
    (List.length b4.Mc_cfg.bb_succs)

let test_rvc_no_false_fallthrough_end () =
  (* A compressed indirect call just before the exit stub must not
     detach the stub (the pre-fix behaviour made the region end at the
     c.jalr and the verifier reported nothing downstream of it). *)
  let parcels =
    p32 (Rv.Inst.U (Lui, Rv.Reg.t_ 0, 16))
    :: p16 (Rv.Inst.Jalr (Rv.Reg.ra, Rv.Reg.t_ 0, 0))
    :: exit_stub 0
  in
  let diags = Mc_verify.verify (image_of_parcels parcels) in
  check Alcotest.bool "no fallthrough-end" false
    (List.exists (fun d -> d.Diag.check = "mc.cfg.fallthrough-end") diags);
  check Alcotest.bool "indirect call noted" true
    (List.exists
       (fun d -> d.Diag.check = "mc.jalr.indirect" && d.Diag.severity = Diag.Note)
       diags)

(* ------------------------------------------------------------------ *)
(* Value-set analysis                                                  *)
(* ------------------------------------------------------------------ *)

let test_value_set_resolves_auipc_jalr () =
  (* auipc t0, 0; addi t0, t0, 16; jalr x0, t0, 0  — a computed jump to
     text offset 16 (auipc at offset 0).  The linear sweep sees nothing;
     the value-set analysis must resolve it. *)
  let parcels =
    [ p32 (Rv.Inst.U (Auipc, Rv.Reg.t_ 0, 0));
      p32 (Rv.Inst.I (Addi, Rv.Reg.t_ 0, Rv.Reg.t_ 0, 16));
      p32 (Rv.Inst.Jalr (Rv.Reg.x0, Rv.Reg.t_ 0, 0));
      p32 (Rv.Inst.I (Addi, Rv.Reg.x0, Rv.Reg.x0, 0)) (* 12: dead pad *) ]
    @ exit_stub 0 (* 16: the target *)
  in
  let cfg = Mc_cfg.build (image_of_parcels parcels) in
  let r = Mc_dataflow.analyze cfg ~entries:[ 0 ] in
  check Alcotest.int "one indirect site" 1 (List.length r.Mc_dataflow.resolutions);
  let res = List.hd r.Mc_dataflow.resolutions in
  check Alcotest.int "site offset" 8 res.Mc_dataflow.site_offset;
  check (Alcotest.list Alcotest.int) "resolved to offset 16" [ 16 ] res.Mc_dataflow.targets;
  check Alcotest.int "counted as resolved" 1 r.Mc_dataflow.resolved_sites

let test_value_set_call_havoc () =
  (* A call between materialisation and use havocs t0: the jalr must NOT
     resolve (ra-relative resolution is the attacker's return linking,
     not the value-set's job). *)
  let parcels =
    [ p32 (Rv.Inst.U (Auipc, Rv.Reg.t_ 0, 0)); (* 0 *)
      p32 (Rv.Inst.Jal (Rv.Reg.ra, 12)); (* 4: call 16 *)
      p32 (Rv.Inst.Jalr (Rv.Reg.x0, Rv.Reg.t_ 0, 0)); (* 8: t0 now unknown *)
      p32 (Rv.Inst.I (Addi, Rv.Reg.x0, Rv.Reg.x0, 0)); (* 12 *)
      p32 (Rv.Inst.Jalr (Rv.Reg.x0, Rv.Reg.ra, 0)) ] (* 16: ret *)
  in
  let cfg = Mc_cfg.build (image_of_parcels parcels) in
  let r = Mc_dataflow.analyze cfg ~entries:[ 0 ] in
  let site8 =
    List.find (fun x -> x.Mc_dataflow.site_offset = 8) r.Mc_dataflow.resolutions
  in
  check (Alcotest.list Alcotest.int) "clobbered base resolves nothing" []
    site8.Mc_dataflow.targets

let test_value_set_invisible_parcels () =
  (* Same program as the auipc test, but the materialising parcels are
     encrypted: nothing resolves. *)
  let parcels =
    [ p32 (Rv.Inst.U (Auipc, Rv.Reg.t_ 0, 0));
      p32 (Rv.Inst.I (Addi, Rv.Reg.t_ 0, Rv.Reg.t_ 0, 16));
      p32 (Rv.Inst.Jalr (Rv.Reg.x0, Rv.Reg.t_ 0, 0));
      p32 (Rv.Inst.I (Addi, Rv.Reg.x0, Rv.Reg.x0, 0)) ]
    @ exit_stub 0
  in
  let cfg = Mc_cfg.build (image_of_parcels parcels) in
  let r = Mc_dataflow.analyze ~visible:(fun i -> i >= 2) cfg ~entries:[ 0 ] in
  check Alcotest.int "nothing resolves through encrypted parcels" 0
    r.Mc_dataflow.resolved_sites

(* ------------------------------------------------------------------ *)
(* Attacker hierarchy                                                  *)
(* ------------------------------------------------------------------ *)

let workload_images =
  lazy
    (List.map
       (fun (w : Eric_workloads.Workloads.t) ->
         (w.Eric_workloads.Workloads.name,
          Eric_cc.Driver.compile_exn w.Eric_workloads.Workloads.source))
       Eric_workloads.Workloads.all)

let clear_coverage (image : Rv.Program.t) =
  Array.map (fun _ -> Leakage.Clear) (Rv.Program.parcels image)

let test_attacker_hierarchy_plain () =
  (* The acceptance gate: on every workload's plain image the recursive
     score dominates the linear score, strictly on at least 3 workloads
     (here: on all, via resolved returns and entry discovery). *)
  let strict = ref 0 in
  List.iter
    (fun (name, image) ->
      let cov = clear_coverage image in
      let lin = Leakage.recover Leakage.Linear image cov in
      let rc = Leakage.recover Leakage.Recursive image cov in
      if not (rc.Leakage.structure_score >= lin.Leakage.structure_score) then
        Alcotest.fail
          (Printf.sprintf "%s: recursive %.3f < linear %.3f" name
             rc.Leakage.structure_score lin.Leakage.structure_score);
      if rc.Leakage.structure_score > lin.Leakage.structure_score then incr strict;
      if rc.Leakage.indirect_resolved = 0 then
        Alcotest.fail (name ^ ": recursive attacker resolved no indirect transfer");
      check Alcotest.bool (name ^ ": component dominance") true
        (rc.Leakage.code_found >= lin.Leakage.code_found
        && rc.Leakage.functions_found >= lin.Leakage.functions_found
        && rc.Leakage.branch_targets_found >= lin.Leakage.branch_targets_found
        && rc.Leakage.call_edges_found >= lin.Leakage.call_edges_found
        && rc.Leakage.indirect_resolved >= lin.Leakage.indirect_resolved))
    (Lazy.force workload_images);
  check Alcotest.bool "strictly greater on >= 3 workloads" true (!strict >= 3)

let test_attacker_hierarchy_encrypted () =
  (* Under full encryption the recursive attacker keeps only the entry
     point (plaintext in the package header); under a half-plaintext
     policy it still dominates. *)
  List.iter
    (fun (name, image) ->
      let full = Eric.Policy_lint.recover ~mode:Eric.Config.Full ~attacker:Leakage.Recursive image in
      check Alcotest.int (name ^ ": full encryption leaves no code") 0
        full.Leakage.code_found;
      check Alcotest.bool (name ^ ": at most the entry function") true
        (full.Leakage.functions_found <= 1);
      let mode =
        Eric.Config.Partial (Eric.Config.Select_fraction { fraction = 0.5; seed = 0x5EEDL })
      in
      let lin = Eric.Policy_lint.recover ~mode ~attacker:Leakage.Linear image in
      let rc = Eric.Policy_lint.recover ~mode ~attacker:Leakage.Recursive image in
      check Alcotest.bool (name ^ ": dominance under partial policy") true
        (rc.Leakage.structure_score >= lin.Leakage.structure_score))
    (Lazy.force workload_images)

let test_attacker_structure_diags () =
  let _, image = List.hd (Lazy.force workload_images) in
  let cov = clear_coverage image in
  let s = Leakage.recover Leakage.Recursive image cov in
  check Alcotest.bool "plain image recovers everything" true (s.Leakage.structure_score > 0.99);
  let warn = Leakage.structure_diags s in
  check Alcotest.bool "advisory warning" true
    (List.exists
       (fun d -> d.Diag.check = "leak.struct.recovered" && d.Diag.severity = Diag.Warning)
       warn);
  let gated = Leakage.structure_diags ~max_leakage:0.5 s in
  check Alcotest.bool "gate escalates" true
    (List.exists
       (fun d -> d.Diag.check = "leak.struct.recovered" && d.Diag.severity = Diag.Error)
       gated);
  check Alcotest.bool "indirect note" true
    (List.exists (fun d -> d.Diag.check = "leak.struct.indirect") warn);
  (* Length-mismatch guard. *)
  Alcotest.check_raises "coverage mismatch"
    (Invalid_argument "Leakage.recover: coverage length <> parcel count") (fun () ->
      ignore (Leakage.recover Leakage.Linear image (Array.make 1 Leakage.Clear)))

let test_compiler_truth_export () =
  let name, image = List.hd (Lazy.force workload_images) in
  let t = Eric_cc.Truth.of_image image in
  check Alcotest.bool (name ^ ": has function symbols") true
    (List.length t.Eric_cc.Truth.functions >= 2);
  check Alcotest.bool "functions are non-local" true
    (List.for_all
       (fun (n, _) -> not (String.length n > 0 && n.[0] = '.'))
       t.Eric_cc.Truth.functions);
  check Alcotest.bool "_start exported" true
    (List.mem_assoc "_start" t.Eric_cc.Truth.functions);
  match Eric_telemetry.Json.of_string (Eric_telemetry.Json.to_string (Eric_cc.Truth.to_json t)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("truth json does not parse: " ^ e)

(* ------------------------------------------------------------------ *)
(* Pipeline taint                                                      *)
(* ------------------------------------------------------------------ *)

let test_taint_obligation_holds () =
  let result, diags = Eric.Pipeline_taint.lint () in
  check (Alcotest.list Alcotest.string) "no findings" []
    (List.map (fun d -> d.Diag.check) diags);
  check Alcotest.bool "keystream is tainted" true
    (List.mem "keystream" result.Taint.tainted);
  check Alcotest.bool "device key is tainted" true
    (List.mem "device_key" result.Taint.tainted);
  check Alcotest.bool "ciphertext is clean" false
    (List.mem "enc_text" result.Taint.tainted)

let test_taint_seeded_defect_fails () =
  let result = Taint.analyze Eric.Pipeline_taint.defective_model in
  let diags = Taint.diags result in
  check Alcotest.bool "defect reported at error severity" true
    (List.exists
       (fun d ->
         d.Diag.check = Eric.Pipeline_taint.field_check && d.Diag.severity = Diag.Error)
       diags);
  let f = List.find (fun f -> f.Taint.sink = "package_header") result.Taint.findings in
  check Alcotest.bool "witness path starts at the source" true
    (match f.Taint.path with "puf_response" :: _ -> true | _ -> false);
  check Alcotest.bool "witness path ends at the sink" true
    (match List.rev f.Taint.path with "package_header" :: _ -> true | _ -> false)

let test_taint_bad_specs_rejected () =
  let open Taint in
  Alcotest.check_raises "duplicate node"
    (Invalid_argument "Taint.analyze: duplicate node a") (fun () ->
      ignore (analyze { nodes = [ ("a", Internal); ("a", Internal) ]; edges = [] }));
  Alcotest.check_raises "unknown edge endpoint"
    (Invalid_argument "Taint.analyze: copy edge names unknown node b") (fun () ->
      ignore (analyze { nodes = [ ("a", Internal) ]; edges = [ ("a", Copy, "b") ] }))

let test_taint_checks_catalogued () =
  List.iter
    (fun id ->
      match Checks.find id with
      | Some i ->
        check Alcotest.bool (id ^ " is an error") true (i.Checks.severity = Diag.Error)
      | None -> Alcotest.fail ("undocumented check id: " ^ id))
    [ Eric.Pipeline_taint.field_check; Eric.Pipeline_taint.telemetry_check ];
  List.iter
    (fun id ->
      if Checks.find id = None then Alcotest.fail ("undocumented check id: " ^ id))
    [ "leak.struct.recovered"; "leak.struct.indirect" ]

let () =
  Alcotest.run "eric_dataflow"
    ([ ( "solver",
         [ Alcotest.test_case "forward diamond" `Quick test_solver_forward_diamond;
           Alcotest.test_case "backward liveness" `Quick test_solver_backward_liveness;
           Alcotest.test_case "boundary through loop" `Quick test_solver_boundary_and_loop;
           Alcotest.test_case "rejects bad edges" `Quick test_graph_rejects_bad_edges;
           qtest ~count:300 "terminates at a fixpoint on random CFGs" arb_cfg
             prop_solver_fixpoint ] ) ]
    @ [ ( "lattice-laws",
          laws (module Df.Bitset) "bitset" arb_bitset
          @ laws (module Flat_int) "flat" arb_flat
          @ laws (module Mc_dataflow.Value) "value-set" arb_value
          @ laws (module Mc_dataflow.State) "register-state" arb_state
          @ laws (module Taint.Lattice) "taint" arb_taint
          @ laws (module Must) "must-define" arb_must
          @ [ qtest ~count:300 "value-set transfer monotone"
                QCheck.(pair small_nat (pair arb_state arb_state))
                prop_transfer_monotone ] ) ]
    @ [ ( "mc-cfg-rvc",
          [ Alcotest.test_case "c.jalr falls through +2" `Quick
              test_rvc_indirect_call_falls_through;
            Alcotest.test_case "mixed-width blocks" `Quick test_rvc_mixed_blocks;
            Alcotest.test_case "no false fallthrough-end" `Quick
              test_rvc_no_false_fallthrough_end ] );
        ( "value-set",
          [ Alcotest.test_case "resolves auipc+jalr" `Quick test_value_set_resolves_auipc_jalr;
            Alcotest.test_case "call havoc" `Quick test_value_set_call_havoc;
            Alcotest.test_case "invisible parcels" `Quick test_value_set_invisible_parcels ] );
        ( "attacker",
          [ Alcotest.test_case "hierarchy on plain images" `Quick test_attacker_hierarchy_plain;
            Alcotest.test_case "hierarchy under policies" `Quick
              test_attacker_hierarchy_encrypted;
            Alcotest.test_case "structure diagnostics" `Quick test_attacker_structure_diags;
            Alcotest.test_case "compiler truth export" `Quick test_compiler_truth_export ] );
        ( "taint",
          [ Alcotest.test_case "obligation holds" `Quick test_taint_obligation_holds;
            Alcotest.test_case "seeded defect fails" `Quick test_taint_seeded_defect_fails;
            Alcotest.test_case "bad specs rejected" `Quick test_taint_bad_specs_rejected;
            Alcotest.test_case "checks catalogued" `Quick test_taint_checks_catalogued ] ) ])
