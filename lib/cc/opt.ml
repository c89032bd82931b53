open Ir

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let eval_binop op a b =
  let open Int64 in
  let bool_ c = if c then 1L else 0L in
  match op with
  | Add -> Some (add a b)
  | Sub -> Some (sub a b)
  | Mul -> Some (mul a b)
  | Div -> if b = 0L then None else Some (div a b)
  | Rem -> if b = 0L then None else Some (rem a b)
  | And -> Some (logand a b)
  | Or -> Some (logor a b)
  | Xor -> Some (logxor a b)
  | Shl -> Some (shift_left a (to_int (logand b 63L)))
  | Shr -> Some (shift_right a (to_int (logand b 63L)))
  | Slt -> Some (bool_ (compare a b < 0))
  | Sle -> Some (bool_ (compare a b <= 0))
  | Sgt -> Some (bool_ (compare a b > 0))
  | Sge -> Some (bool_ (compare a b >= 0))
  | Seq -> Some (bool_ (equal a b))
  | Sne -> Some (bool_ (not (equal a b)))

(* Algebraic identities that rewrite a Bin into a Move. *)
let identity op x y =
  match (op, x, y) with
  | Add, v, Imm 0L | Add, Imm 0L, v -> Some v
  | Sub, v, Imm 0L -> Some v
  | Mul, v, Imm 1L | Mul, Imm 1L, v -> Some v
  | Mul, _, Imm 0L | Mul, Imm 0L, _ -> Some (Imm 0L)
  | Div, v, Imm 1L -> Some v
  | And, v, Imm -1L | And, Imm -1L, v -> Some v
  | And, _, Imm 0L | And, Imm 0L, _ -> Some (Imm 0L)
  | Or, v, Imm 0L | Or, Imm 0L, v -> Some v
  | Xor, v, Imm 0L | Xor, Imm 0L, v -> Some v
  | (Shl | Shr), v, Imm 0L -> Some v
  | _ -> None

let power_of_two v =
  if Int64.compare v 1L > 0 && Int64.logand v (Int64.sub v 1L) = 0L then begin
    let rec log2 v acc = if v = 1L then acc else log2 (Int64.shift_right_logical v 1) (acc + 1) in
    Some (log2 v 0)
  end
  else None

(* Strength reduction: multiplication by a power of two becomes a shift
   (the in-order core's shifter is single-cycle; its multiplier is not). *)
let strength_reduce instr =
  match instr with
  | Bin (Mul, d, v, Imm c) | Bin (Mul, d, Imm c, v) -> (
    match power_of_two c with
    | Some k -> Some (Bin (Shl, d, v, Imm (Int64.of_int k)))
    | None -> None)
  | _ -> None

let const_fold (f : func) =
  let changed = ref false in
  List.iter
    (fun b ->
      b.body <-
        List.map
          (fun i ->
            match i with
            | Bin (op, d, Imm a, Imm bv) -> (
              match eval_binop op a bv with
              | Some r ->
                changed := true;
                Move (d, Imm r)
              | None -> i)
            | Bin (op, d, x, y) -> (
              match identity op x y with
              | Some v ->
                changed := true;
                Move (d, v)
              | None -> (
                match strength_reduce i with
                | Some i' ->
                  changed := true;
                  i'
                | None -> i))
            | _ -> i)
          b.body)
    f.f_blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Per-temp tables                                                     *)
(* ------------------------------------------------------------------ *)

(* The block-local passes index their facts by temp in arrays over
   [0, f_temp_count) (Ir_verify has checked every temp is in range).  A
   slot belongs to the block whose stamp it carries, so moving to the next
   block clears every table at once. *)
type 'a per_temp = { slots : 'a array; owner : int array; mutable stamp : int }

let per_temp n empty = { slots = Array.make n empty; owner = Array.make n (-1); stamp = 0 }
let next_block tbl = tbl.stamp <- tbl.stamp + 1
let live tbl t = tbl.owner.(t) = tbl.stamp
let find tbl t ~default = if live tbl t then tbl.slots.(t) else default

let put tbl t v =
  tbl.slots.(t) <- v;
  tbl.owner.(t) <- tbl.stamp

let drop tbl t = tbl.owner.(t) <- -1

let value_is t = function Temp u -> u = t | Imm _ -> false

let value_equal a b =
  match (a, b) with
  | Temp x, Temp y -> x = y
  | Imm x, Imm y -> Int64.equal x y
  | Temp _, Imm _ | Imm _, Temp _ -> false

(* ------------------------------------------------------------------ *)
(* Block-local copy propagation                                        *)
(* ------------------------------------------------------------------ *)

let copy_prop (f : func) =
  let changed = ref false in
  let n = f.f_temp_count in
  (* [copy]: the value a temp was copied from; [readers]: temps that may
     hold a copy of a temp (an entry is stale once its temp is remapped). *)
  let copy = per_temp n (Imm 0L) and readers = per_temp n [] in
  let resolve v =
    match v with
    | Temp t when live copy t ->
      changed := true;
      copy.slots.(t)
    | Temp _ | Imm _ -> v
  in
  let kill d =
    drop copy d;
    (* Any mapping whose value is the redefined temp is now stale. *)
    List.iter
      (fun k -> if live copy k && value_is d copy.slots.(k) then drop copy k)
      (find readers d ~default:[]);
    drop readers d
  in
  let prop_block b =
    next_block copy;
    next_block readers;
    b.body <-
      List.map
        (fun i ->
          let i' =
            match i with
            | Move (d, v) -> Move (d, resolve v)
            | Bin (op, d, a, bv) -> Bin (op, d, resolve a, resolve bv)
            | Load (w, d, a) -> Load (w, d, resolve a)
            | Store (w, a, s) -> Store (w, resolve a, resolve s)
            | Call (d, name, args) -> Call (d, name, List.map resolve args)
            | Write (a, n) -> Write (resolve a, resolve n)
            | Exit v -> Exit (resolve v)
            | Addr_global _ | Addr_local _ | Counter _ -> i
          in
          (match def_of i' with
          | Some d -> (
            kill d;
            match i' with
            | Move (d, v) when not (value_is d v) -> (
              put copy d v;
              match v with
              | Temp s -> put readers s (d :: find readers s ~default:[])
              | Imm _ -> ())
            | _ -> ())
          | None -> ());
          i')
        b.body;
    b.term <-
      (match b.term with
      | Ret (Some v) -> Ret (Some (resolve v))
      | Br (v, a, bl) -> Br (resolve v, a, bl)
      | (Ret None | Jmp _) as t -> t)
  in
  List.iter prop_block f.f_blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Block-local common-subexpression elimination                        *)
(* ------------------------------------------------------------------ *)

type cse_key =
  | K_bin of binop * value * value
  | K_addr_global of string
  | K_addr_local of int

let commutative = function
  | Add | Mul | And | Or | Xor | Seq | Sne -> true
  | Sub | Div | Rem | Shl | Shr | Slt | Sle | Sgt | Sge -> false

(* The order polymorphic [compare] gives values: every temp before every
   immediate. *)
let compare_value a b =
  match (a, b) with
  | Temp x, Temp y -> Int.compare x y
  | Imm x, Imm y -> Int64.compare x y
  | Temp _, Imm _ -> -1
  | Imm _, Temp _ -> 1

let cse_key_of = function
  | Bin (op, _, a, b) ->
    let a, b = if commutative op && compare_value a b > 0 then (b, a) else (a, b) in
    Some (K_bin (op, a, b))
  | Addr_global (_, sym) -> Some (K_addr_global sym)
  | Addr_local (_, slot) -> Some (K_addr_local slot)
  | Move _ | Load _ | Store _ | Call _ | Write _ | Exit _ | Counter _ -> None

let key_equal k1 k2 =
  match (k1, k2) with
  (* [binop] has only constant constructors, so [==] is equality. *)
  | K_bin (o1, a1, b1), K_bin (o2, a2, b2) -> o1 == o2 && value_equal a1 a2 && value_equal b1 b2
  | K_addr_global s1, K_addr_global s2 -> String.equal s1 s2
  | K_addr_local x, K_addr_local y -> x = y
  | (K_bin _ | K_addr_global _ | K_addr_local _), _ -> false

let key_mentions t = function
  | K_bin (_, a, b) -> value_is t a || value_is t b
  | K_addr_global _ | K_addr_local _ -> false

(* A computation available in the current block: [key] is held in
   [temp] until a redefinition of [temp] or of an operand kills it. *)
type available = { key : cse_key; temp : temp; mutable alive : bool }

let cse (f : func) =
  let changed = ref false in
  (* [by_temp.(t)]: the entries whose key or result mentions [t]; those
     mentioning no temp as an operand are also in [no_operand]. *)
  let by_temp = per_temp f.f_temp_count [] in
  let no_operand = ref [] in
  let lookup key =
    let candidates =
      match key with
      | K_bin (_, Temp t, _) | K_bin (_, _, Temp t) -> find by_temp t ~default:[]
      | K_bin _ | K_addr_global _ | K_addr_local _ -> !no_operand
    in
    List.find_opt (fun e -> e.alive && key_equal e.key key) candidates
  in
  let mention t e = put by_temp t (e :: find by_temp t ~default:[]) in
  let register key d =
    let e = { key; temp = d; alive = true } in
    mention d e;
    match key with
    | K_bin (_, Temp a, Temp b) ->
      mention a e;
      if b <> a then mention b e
    | K_bin (_, Temp t, Imm _) | K_bin (_, Imm _, Temp t) -> mention t e
    | K_bin (_, Imm _, Imm _) | K_addr_global _ | K_addr_local _ -> no_operand := e :: !no_operand
  in
  let kill d =
    List.iter (fun e -> e.alive <- false) (find by_temp d ~default:[]);
    drop by_temp d
  in
  let run_block b =
    next_block by_temp;
    no_operand := [];
    b.body <-
      List.map
        (fun i ->
          let i' =
            match cse_key_of i with
            | Some key -> (
              match (lookup key, def_of i) with
              | Some prev, Some d ->
                changed := true;
                Move (d, Temp prev.temp)
              | _ -> i)
            | None -> i
          in
          (match def_of i' with
          | Some d -> (
            kill d;
            (* Register the original computation (not the rewritten Move) —
               unless it reads its own destination (d = d + 1): that key
               names the *old* d and must not satisfy later lookups. *)
            match (i', cse_key_of i) with
            | Move _, _ -> ()
            | _, Some key when not (key_mentions d key) -> register key d
            | _, Some _ | _, None -> ())
          | None -> ());
          i')
        b.body
  in
  List.iter run_block f.f_blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)
(* ------------------------------------------------------------------ *)

let dce (f : func) =
  let changed = ref false in
  let rec sweep () =
    let used = Eric_util.Bitvec.create f.f_temp_count in
    let mark t = Eric_util.Bitvec.add used t in
    List.iter
      (fun b ->
        List.iter (iter_uses mark) b.body;
        iter_term_uses mark b.term)
      f.f_blocks;
    let dead i =
      (not (has_side_effect i))
      && match def_of i with Some d -> not (Eric_util.Bitvec.mem used d) | None -> false
    in
    let removed = ref false in
    List.iter
      (fun b ->
        if List.exists dead b.body then begin
          removed := true;
          b.body <- List.filter (fun i -> not (dead i)) b.body
        end)
      f.f_blocks;
    if !removed then begin
      changed := true;
      sweep ()
    end
  in
  sweep ();
  !changed

(* ------------------------------------------------------------------ *)
(* CFG simplification                                                  *)
(* ------------------------------------------------------------------ *)

let simplify_cfg (f : func) =
  let changed = ref false in
  (* Fold constant branches. *)
  List.iter
    (fun b ->
      match b.term with
      | Br (Imm v, l1, l2) ->
        changed := true;
        b.term <- Jmp (if v <> 0L then l1 else l2)
      | Br (_, l1, l2) when l1 = l2 ->
        changed := true;
        b.term <- Jmp l1
      | _ -> ())
    f.f_blocks;
  (* Thread jumps through empty forwarding blocks (never the entry). *)
  let entry_label = match f.f_blocks with b :: _ -> b.b_label | [] -> -1 in
  let forward = Hashtbl.create 8 in
  List.iter
    (fun b ->
      match (b.body, b.term) with
      | [], Jmp target when b.b_label <> entry_label && target <> b.b_label ->
        Hashtbl.replace forward b.b_label target
      | _ -> ())
    f.f_blocks;
  let rec chase seen l =
    match Hashtbl.find_opt forward l with
    | Some next when not (List.mem next seen) -> chase (l :: seen) next
    | _ -> l
  in
  let redirect l =
    let l' = chase [] l in
    if l' <> l then changed := true;
    l'
  in
  List.iter
    (fun b ->
      b.term <-
        (match b.term with
        | Jmp l -> Jmp (redirect l)
        | Br (v, a, bl) -> Br (v, redirect a, redirect bl)
        | Ret _ as t -> t))
    f.f_blocks;
  (* Drop unreachable blocks. *)
  let by_label = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace by_label b.b_label b) f.f_blocks;
  let reachable = Hashtbl.create 16 in
  let rec visit l =
    if not (Hashtbl.mem reachable l) then begin
      Hashtbl.replace reachable l ();
      match Hashtbl.find_opt by_label l with
      | Some b -> List.iter visit (successors b.term)
      | None -> ()
    end
  in
  visit entry_label;
  let before = List.length f.f_blocks in
  f.f_blocks <- List.filter (fun b -> Hashtbl.mem reachable b.b_label) f.f_blocks;
  if List.length f.f_blocks <> before then changed := true;
  !changed

let reachable_functions (p : program) ~entry =
  let by_name = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace by_name f.f_name f) p.p_funcs;
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Hashtbl.find_opt by_name name with
      | None -> () (* intrinsic *)
      | Some f ->
        List.iter
          (fun b ->
            List.iter (function Call (_, callee, _) -> visit callee | _ -> ()) b.body)
          f.f_blocks
    end
  in
  visit entry;
  List.filter (fun f -> Hashtbl.mem seen f.f_name) p.p_funcs

let run ?(check = fun (_ : func) -> ()) (p : program) =
  let timed name pass f = Eric_telemetry.Span.with_ ~cat:"cc" ~name (fun () -> pass f) in
  let pass_pipeline f =
    let c1 = timed "cc.opt.const_fold" const_fold f in
    let c2 = timed "cc.opt.copy_prop" copy_prop f in
    let c3 = timed "cc.opt.cse" cse f in
    let c4 = timed "cc.opt.dce" dce f in
    let c5 = timed "cc.opt.simplify_cfg" simplify_cfg f in
    c1 || c2 || c3 || c4 || c5
  in
  List.iter
    (fun f ->
      let budget = ref 10 in
      let continue_ = ref true in
      while !continue_ && !budget > 0 do
        continue_ := pass_pipeline f;
        (* An iteration that changed nothing leaves [f] as last checked. *)
        if !continue_ then check f;
        decr budget
      done)
    p.p_funcs
