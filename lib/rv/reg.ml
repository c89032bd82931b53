type t = int

let of_int n = if n < 0 || n > 31 then invalid_arg "Reg.of_int: register out of range" else n
let to_int n = n
let equal = Int.equal
let compare = Int.compare

let x0 = 0
let ra = 1
let sp = 2
let tp = 4

let t_ n =
  if n < 0 || n > 6 then invalid_arg "Reg.t_: t0..t6 only"
  else if n < 3 then 5 + n (* t0-t2 = x5-x7 *)
  else 28 + (n - 3) (* t3-t6 = x28-x31 *)

let s n =
  if n < 0 || n > 11 then invalid_arg "Reg.s: s0..s11 only"
  else if n < 2 then 8 + n (* s0-s1 = x8-x9 *)
  else 18 + (n - 2) (* s2-s11 = x18-x27 *)

let a n = if n < 0 || n > 7 then invalid_arg "Reg.a: a0..a7 only" else 10 + n

let abi_names =
  [| "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2"; "s0"; "s1"; "a0"; "a1"; "a2"; "a3";
     "a4"; "a5"; "a6"; "a7"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7"; "s8"; "s9"; "s10"; "s11";
     "t3"; "t4"; "t5"; "t6" |]

let abi_name n = abi_names.(n)

let of_name name =
  let by_abi = ref None in
  Array.iteri (fun i s -> if s = name then by_abi := Some i) abi_names;
  match !by_abi with
  | Some i -> Some i
  | None ->
    if String.length name >= 2 && name.[0] = 'x' then
      match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
      | Some n when n >= 0 && n <= 31 -> Some n
      | Some _ | None -> None
    else if name = "fp" then Some 8 (* frame-pointer alias of s0 *)
    else None

let is_compressible n = n >= 8 && n <= 15
let pp fmt n = Format.pp_print_string fmt (abi_name n)
