type direction = Forward | Backward

module type LATTICE = sig
  type t

  val bottom : t
  val join : t -> t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

type graph = {
  node_count : int;
  succs : int -> int list;
  preds : int -> int list;
}

let graph_of_edges ~node_count edges =
  let succs = Array.make node_count [] and preds = Array.make node_count [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= node_count || b < 0 || b >= node_count then
        invalid_arg
          (Printf.sprintf "Dataflow.graph_of_edges: edge (%d,%d) outside [0,%d)" a b node_count);
      succs.(a) <- b :: succs.(a);
      preds.(b) <- a :: preds.(b))
    edges;
  (* Reversed once here, not on every solver visit, to list edges in the
     order given. *)
  let succs = Array.map List.rev succs and preds = Array.map List.rev preds in
  { node_count; succs = Array.get succs; preds = Array.get preds }

module Bitset = struct
  type t = int

  let bottom = 0
  let join = ( lor )
  let equal = Int.equal
  let pp fmt m = Format.fprintf fmt "0x%x" m
end

module Flat (V : sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end) =
struct
  type t = Bot | Known of V.t | Top

  let bottom = Bot

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Top, _ | _, Top -> Top
    | Known u, Known v -> if V.equal u v then a else Top

  let equal a b =
    match (a, b) with
    | Bot, Bot | Top, Top -> true
    | Known u, Known v -> V.equal u v
    | _ -> false

  let pp fmt = function
    | Bot -> Format.pp_print_string fmt "⊥"
    | Top -> Format.pp_print_string fmt "⊤"
    | Known v -> V.pp fmt v

  let known v = Known v
  let get = function Known v -> Some v | Bot | Top -> None
end

module Make (L : LATTICE) = struct
  type result = {
    input : L.t array;
    output : L.t array;
    iterations : int;
  }

  let solve ?(direction = Forward) ?(boundary = []) ~graph ~transfer () =
    let n = graph.node_count in
    let into, from =
      (* Edges feeding a node's input, and the nodes its output feeds. *)
      match direction with
      | Forward -> (graph.preds, graph.succs)
      | Backward -> (graph.succs, graph.preds)
    in
    let boundary_of = Array.make n L.bottom in
    List.iter
      (fun (i, v) ->
        if i < 0 || i >= n then invalid_arg "Dataflow.solve: boundary node out of range";
        boundary_of.(i) <- L.join boundary_of.(i) v)
      boundary;
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    let on_queue = Array.make n false in
    let queue = Queue.create () in
    let push i =
      if not on_queue.(i) then begin
        on_queue.(i) <- true;
        Queue.add i queue
      end
    in
    (* Seed every node once; reverse order in a backward analysis so the
       first sweep already visits most nodes after their inputs. *)
    (match direction with
    | Forward -> for i = 0 to n - 1 do push i done
    | Backward -> for i = n - 1 downto 0 do push i done);
    let iterations = ref 0 in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      on_queue.(i) <- false;
      incr iterations;
      let in_ =
        List.fold_left (fun acc p -> L.join acc output.(p)) boundary_of.(i) (into i)
      in
      input.(i) <- in_;
      let out = transfer i in_ in
      if not (L.equal out output.(i)) then begin
        output.(i) <- out;
        List.iter push (from i)
      end
    done;
    Eric_telemetry.Registry.inc "lint.dataflow.solves";
    Eric_telemetry.Registry.inc ~by:(Int64.of_int n) "lint.dataflow.blocks_solved";
    Eric_telemetry.Registry.inc ~by:(Int64.of_int !iterations) "lint.dataflow.iterations";
    { input; output; iterations = !iterations }
end
