(** The compiler's intermediate representation: functions of basic blocks
    over an unbounded set of 64-bit temporaries, in the role LLVM IR plays
    in the paper's toolchain.  Optimisation passes rewrite this form;
    {!Codegen} maps it onto RV64. *)

type temp = int
type label = int

type value = Temp of temp | Imm of int64

(* Comparison operators produce 0/1.  Shr is arithmetic (C's [>>] on signed
   int); byte loads are unsigned (MiniC's char). *)
type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Slt | Sle | Sgt | Sge | Seq | Sne

type width = W8 | W64

type counter = C_cycles | C_instret

type instr =
  | Move of temp * value
  | Bin of binop * temp * value * value
  | Load of width * temp * value  (** dest, address *)
  | Store of width * value * value  (** address, source *)
  | Addr_global of temp * string
  | Addr_local of temp * int  (** frame slot id *)
  | Call of temp option * string * value list
  | Write of value * value  (** buffer address, length (the __write intrinsic) *)
  | Exit of value  (** the __exit intrinsic; does not return *)
  | Counter of temp * counter
      (** read a hardware performance counter (the __cycles/__instret
          intrinsics -> rdcycle/rdinstret); non-deterministic, so never
          merged by CSE *)

type term =
  | Ret of value option
  | Jmp of label
  | Br of value * label * label  (** non-zero -> first label *)

type block = { b_label : label; mutable body : instr list; mutable term : term }

type func = {
  f_name : string;
  f_params : temp list;
  mutable f_blocks : block list;  (** head is the entry block *)
  f_slots : (int * int) list;  (** frame slot id -> size in bytes *)
  mutable f_temp_count : int;
}

type program = {
  p_funcs : func list;
  p_data : (string * bytes) list;  (** initialised globals, in layout order *)
  p_bss : (string * int) list;  (** zero-initialised globals: name, byte size *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let has_side_effect = function
  | Store _ | Call _ | Write _ | Exit _ -> true
  (* Counter reads are droppable when unused, but each read observes a
     different value, so they are handled as uncacheable in CSE. *)
  | Move _ | Bin _ | Load _ | Addr_global _ | Addr_local _ | Counter _ -> false

let def_of = function
  | Move (d, _) | Bin (_, d, _, _) | Load (_, d, _) | Addr_global (d, _) | Addr_local (d, _) ->
    Some d
  | Call (d, _, _) -> d
  | Counter (d, _) -> Some d
  | Store _ | Write _ | Exit _ -> None

(* The temps an instruction or terminator reads, in operand order (a
   Store's address before its source). *)
let iter_value f = function Temp t -> f t | Imm _ -> ()

let iter_uses f = function
  | Move (_, v) | Load (_, _, v) | Exit v -> iter_value f v
  | Bin (_, _, a, b) | Store (_, a, b) | Write (a, b) ->
    iter_value f a;
    iter_value f b
  | Call (_, _, args) -> List.iter (iter_value f) args
  | Addr_global _ | Addr_local _ | Counter _ -> ()

let iter_term_uses f = function
  | Ret (Some v) | Br (v, _, _) -> iter_value f v
  | Ret None | Jmp _ -> ()

let collect iter x =
  let acc = ref [] in
  iter (fun t -> acc := t :: !acc) x;
  List.rev !acc

let uses_of i = collect iter_uses i
let term_uses t = collect iter_term_uses t

let successors = function Ret _ -> [] | Jmp l -> [ l ] | Br (_, a, b) -> [ a; b ]

(* A copy that shares nothing mutable with [f]: new function and block
   records (instruction lists are immutable, so they are shared). *)
let copy_func f = { f with f_blocks = List.map (fun b -> { b with body = b.body }) f.f_blocks }

(* ------------------------------------------------------------------ *)
(* Pretty printing (for tests and debugging)                           *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt" | Sge -> "sge" | Seq -> "seq" | Sne -> "sne"

let pp_value fmt = function
  | Temp t -> Format.fprintf fmt "t%d" t
  | Imm v -> Format.fprintf fmt "%Ld" v

let width_name = function W8 -> "b" | W64 -> "d"

let pp_instr fmt = function
  | Move (d, v) -> Format.fprintf fmt "t%d = %a" d pp_value v
  | Bin (op, d, a, b) -> Format.fprintf fmt "t%d = %s %a, %a" d (binop_name op) pp_value a pp_value b
  | Load (w, d, a) -> Format.fprintf fmt "t%d = load.%s [%a]" d (width_name w) pp_value a
  | Store (w, a, s) -> Format.fprintf fmt "store.%s [%a], %a" (width_name w) pp_value a pp_value s
  | Addr_global (d, g) -> Format.fprintf fmt "t%d = &%s" d g
  | Addr_local (d, s) -> Format.fprintf fmt "t%d = &slot%d" d s
  | Call (None, f, args) ->
    Format.fprintf fmt "call %s(%a)" f (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_value) args
  | Call (Some d, f, args) ->
    Format.fprintf fmt "t%d = call %s(%a)" d f
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_value)
      args
  | Write (a, n) -> Format.fprintf fmt "write [%a], %a" pp_value a pp_value n
  | Exit v -> Format.fprintf fmt "exit %a" pp_value v
  | Counter (d, C_cycles) -> Format.fprintf fmt "t%d = rdcycle" d
  | Counter (d, C_instret) -> Format.fprintf fmt "t%d = rdinstret" d

let pp_term fmt = function
  | Ret None -> Format.fprintf fmt "ret"
  | Ret (Some v) -> Format.fprintf fmt "ret %a" pp_value v
  | Jmp l -> Format.fprintf fmt "jmp L%d" l
  | Br (v, a, b) -> Format.fprintf fmt "br %a, L%d, L%d" pp_value v a b

let pp_func fmt f =
  Format.fprintf fmt "func %s(%a):@." f.f_name
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") (fun f t ->
         Format.fprintf f "t%d" t))
    f.f_params;
  List.iter
    (fun b ->
      Format.fprintf fmt "L%d:@." b.b_label;
      List.iter (fun i -> Format.fprintf fmt "  %a@." pp_instr i) b.body;
      Format.fprintf fmt "  %a@." pp_term b.term)
    f.f_blocks

let instruction_count f = List.fold_left (fun acc b -> acc + List.length b.body + 1) 0 f.f_blocks
