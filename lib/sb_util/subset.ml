type t = int list

let complement n s = List.filter (fun i -> not (List.mem i s)) (List.init n Fun.id)
let mem = List.mem

let is_valid n s =
  let rec check prev = function
    | [] -> true
    | i :: rest -> i > prev && i < n && check i rest
  in
  check (-1) s

let of_list l = List.sort_uniq Int.compare l

let all_of_size n k =
  (* Standard k-combination enumeration, smallest index first. An
     impossible size (k < 0 or k > n) has no combinations, not an
     error: the model checker asks for every size up to its fault
     budget t, which may exceed n - 1. *)
  if k < 0 || k > n then []
  else
    let rec go start k =
      if k = 0 then [ [] ]
      else
        List.concat_map
          (fun i -> List.map (fun rest -> i :: rest) (go (i + 1) (k - 1)))
          (List.init (n - start - k + 1) (fun d -> start + d))
    in
    go 0 k

let all_up_to n k =
  List.concat_map (fun s -> all_of_size n s) (List.init (max 0 (k + 1)) Fun.id)

let pp fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       Format.pp_print_int)
    s
