module Memory = Eric_util.Memory

type outcome = { output : string; exit_code : int }

exception Runtime_error of string
exception Program_exit of int

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type state = {
  memory : Memory.t;  (** the address space *)
  word : Bytes.t;  (** 8 bytes through which a 64-bit value is loaded or stored *)
  globals : (string, int) Hashtbl.t;  (** symbol -> address *)
  funcs : (string, Ir.func) Hashtbl.t;
  out : Buffer.t;
  mutable stack_pointer : int;  (** bump-down frame allocator *)
  mutable steps : int;
  max_steps : int;
}

let memory_size = 4 * 1024 * 1024
let data_base = 0x1000

(* Frames grow down from the top of memory to here; globals lie below. *)
let stack_floor = memory_size / 2
let globals_too_large = "globals do not fit below the interpreter stack"

let read st w addr =
  match w with
  | Ir.W8 -> Int64.of_int (Memory.read_u8 st.memory addr)
  | Ir.W64 ->
    Memory.read_u64 st.memory addr st.word 0;
    Bytes.get_int64_ne st.word 0

let write st w addr v =
  match w with
  | Ir.W8 -> Memory.write_u8 st.memory addr (Int64.to_int v)
  | Ir.W64 ->
    Bytes.set_int64_ne st.word 0 v;
    Memory.write_u64 st.memory addr st.word 0

let eval_binop (op : Ir.binop) a b =
  let open Int64 in
  let bool_ c = if c then 1L else 0L in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if b = 0L then -1L else if a = min_int && b = -1L then min_int else div a b
  | Rem -> if b = 0L then a else if a = min_int && b = -1L then 0L else rem a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (to_int (logand b 63L))
  | Shr -> shift_right a (to_int (logand b 63L))
  | Slt -> bool_ (compare a b < 0)
  | Sle -> bool_ (compare a b <= 0)
  | Sgt -> bool_ (compare a b > 0)
  | Sge -> bool_ (compare a b >= 0)
  | Seq -> bool_ (equal a b)
  | Sne -> bool_ (not (equal a b))

let rec exec_func st (f : Ir.func) (args : int64 list) : int64 =
  let temps = Array.make (max f.Ir.f_temp_count 1) 0L in
  List.iteri
    (fun i p -> if i < List.length args then temps.(p) <- List.nth args i)
    f.Ir.f_params;
  (* Frame slots: bump the interpreter's stack downwards. *)
  let frame_size = List.fold_left (fun acc (_, size) -> acc + size) 0 f.Ir.f_slots in
  let saved_sp = st.stack_pointer in
  st.stack_pointer <- st.stack_pointer - ((frame_size + 15) / 16 * 16);
  if st.stack_pointer < stack_floor then err "interpreter stack overflow in %s" f.Ir.f_name;
  let slot_addr = Hashtbl.create 8 in
  let off = ref st.stack_pointer in
  List.iter
    (fun (slot, size) ->
      Hashtbl.replace slot_addr slot !off;
      off := !off + size)
    f.Ir.f_slots;
  let blocks = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace blocks b.Ir.b_label b) f.Ir.f_blocks;
  let value = function Ir.Temp t -> temps.(t) | Ir.Imm v -> v in
  let result = ref 0L in
  let rec run_block label =
    let block =
      match Hashtbl.find_opt blocks label with
      | Some b -> b
      | None -> err "%s: no block L%d" f.Ir.f_name label
    in
    List.iter
      (fun instr ->
        st.steps <- st.steps + 1;
        if st.steps > st.max_steps then err "interpreter out of fuel";
        match instr with
        | Ir.Move (d, v) -> temps.(d) <- value v
        | Ir.Bin (op, d, a, b) -> temps.(d) <- eval_binop op (value a) (value b)
        | Ir.Load (w, d, addr) -> temps.(d) <- read st w (Int64.to_int (value addr))
        | Ir.Store (w, addr, src) -> write st w (Int64.to_int (value addr)) (value src)
        | Ir.Addr_global (d, sym) -> (
          match Hashtbl.find_opt st.globals sym with
          | Some addr -> temps.(d) <- Int64.of_int addr
          | None -> err "undefined global %s" sym)
        | Ir.Addr_local (d, slot) -> (
          match Hashtbl.find_opt slot_addr slot with
          | Some addr -> temps.(d) <- Int64.of_int addr
          | None -> err "%s: unknown slot %d" f.Ir.f_name slot)
        | Ir.Call (dest, callee, call_args) -> (
          match Hashtbl.find_opt st.funcs callee with
          | None -> err "call to undefined function %s" callee
          | Some g ->
            let r = exec_func st g (List.map value call_args) in
            (match dest with Some d -> temps.(d) <- r | None -> ()))
        | Ir.Write (buf, len) ->
          Buffer.add_bytes st.out
            (Memory.read_bytes st.memory ~addr:(Int64.to_int (value buf))
               ~len:(Int64.to_int (value len)))
        | Ir.Exit v -> raise (Program_exit (Int64.to_int (value v)))
        | Ir.Counter (d, _) ->
          (* the interpreter's only monotonic clock is its step count *)
          temps.(d) <- Int64.of_int st.steps)
      block.Ir.body;
    st.steps <- st.steps + 1;
    match block.Ir.term with
    | Ir.Ret None -> ()
    | Ir.Ret (Some v) -> result := value v
    | Ir.Jmp l -> run_block l
    | Ir.Br (v, l1, l2) -> if value v <> 0L then run_block l1 else run_block l2
  in
  run_block (match f.Ir.f_blocks with b :: _ -> b.Ir.b_label | [] -> err "%s has no blocks" f.Ir.f_name);
  st.stack_pointer <- saved_sp;
  !result

let run ?(max_steps = 100_000_000) (p : Ir.program) =
  let st =
    {
      memory = Memory.create ~size:memory_size;
      word = Bytes.create 8;
      globals = Hashtbl.create 64;
      funcs = Hashtbl.create 64;
      out = Buffer.create 256;
      stack_pointer = memory_size - 16;
      steps = 0;
      max_steps;
    }
  in
  List.iter (fun f -> Hashtbl.replace st.funcs f.Ir.f_name f) p.Ir.p_funcs;
  (* Lay out initialised data then BSS, 8-byte aligned like the linker. *)
  let cursor = ref data_base in
  let align8 v = (v + 7) / 8 * 8 in
  try
    List.iter
      (fun (name, bytes) ->
        cursor := align8 !cursor;
        Hashtbl.replace st.globals name !cursor;
        Memory.blit_bytes st.memory ~addr:!cursor bytes;
        cursor := !cursor + Bytes.length bytes)
      p.Ir.p_data;
    List.iter
      (fun (name, size) ->
        cursor := align8 !cursor;
        Hashtbl.replace st.globals name !cursor;
        cursor := !cursor + size)
      p.Ir.p_bss;
    if !cursor > stack_floor then raise (Runtime_error globals_too_large);
    match Hashtbl.find_opt st.funcs "main" with
    | None -> raise (Runtime_error "program has no main function")
    | Some main -> (
      match exec_func st main [] with
      | code -> { output = Buffer.contents st.out; exit_code = Int64.to_int code }
      | exception Program_exit code -> { output = Buffer.contents st.out; exit_code = code })
  with Memory.Trap msg -> raise (Runtime_error msg)
