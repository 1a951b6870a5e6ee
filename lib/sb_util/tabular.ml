type row = Cells of string list | Rule

type t = { title : string; columns : string list; mutable rows : row list }

let create ~title ~columns = { title; columns; rows = [] }
let add_row t cells = t.rows <- Cells cells :: t.rows
let add_rule t = t.rows <- Rule :: t.rows

let pad_to n cells =
  let len = List.length cells in
  if len >= n then cells else cells @ List.init (n - len) (fun _ -> "")

let render t =
  let ncols = List.length t.columns in
  let rows = List.rev t.rows in
  let all_cell_rows =
    t.columns :: List.filter_map (function Cells c -> Some (pad_to ncols c) | Rule -> None) rows
  in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) cells
  in
  List.iter measure all_cell_rows;
  let buf = Buffer.create 256 in
  let line cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf c;
        if i < ncols - 1 then Buffer.add_string buf (String.make (widths.(i) - String.length c) ' '))
      cells;
    Buffer.add_char buf '\n'
  in
  let total_width = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  let rule () = Buffer.add_string buf (String.make total_width '-' ^ "\n") in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  line t.columns;
  rule ();
  List.iter (function Cells c -> line (pad_to ncols c) | Rule -> rule ()) rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let csv_cell c =
  if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
  else c

let to_csv t =
  let ncols = List.length t.columns in
  let buf = Buffer.create 256 in
  let line cells =
    Buffer.add_string buf (String.concat "," (List.map csv_cell (pad_to ncols cells)));
    Buffer.add_char buf '\n'
  in
  line t.columns;
  List.iter (function Cells c -> line c | Rule -> ()) (List.rev t.rows);
  Buffer.contents buf

let cell_bool b = if b then "yes" else "no"

let cell_float ?(digits = 4) x = Printf.sprintf "%.*f" digits x
