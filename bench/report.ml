(* Plain-text table rendering for the benchmark harness. *)

let rule width = print_endline (String.make width '-')

let heading title =
  print_newline ();
  rule 78;
  Printf.printf "%s\n" title;
  rule 78

let subheading title = Printf.printf "\n-- %s --\n" title

(* Render rows of columns with right-aligned numeric columns. *)
let table ~header rows =
  let all = header :: rows in
  let columns = List.length header in
  let width c = List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all in
  let widths = List.init columns width in
  let print_row row =
    List.iteri
      (fun c cell ->
        let w = List.nth widths c in
        if c = 0 then Printf.printf "%-*s" w cell else Printf.printf "  %*s" w cell)
      row;
    print_newline ()
  in
  print_row header;
  rule (List.fold_left (fun acc w -> acc + w + 2) (-2) widths);
  List.iter print_row rows

let pct delta base = 100.0 *. (float_of_int delta /. float_of_int base)
let pct64 delta base = 100.0 *. (Int64.to_float delta /. Int64.to_float base)
let f1 v = Printf.sprintf "%.2f" v
let fpct v = Printf.sprintf "%+.2f%%" v
let i v = string_of_int v
let i64 v = Int64.to_string v
