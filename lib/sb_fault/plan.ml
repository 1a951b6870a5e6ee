type link = { l_src : int option; l_dst : int option }

type spec =
  | Crash of { party : int; round : int }
  | Drop of { link : link; p : float; at : int option }
  | Delay of { link : link; by : int; at : int option }
  | Partition of { groups : int list list; first : int; last : int }

type t = spec list

let any_link = { l_src = None; l_dst = None }
let link ?src ?dst () = { l_src = src; l_dst = dst }
let crash ~party ~round = Crash { party; round }
let drop ?src ?dst ?at p = Drop { link = link ?src ?dst (); p; at }
let delay ?src ?dst ?at by = Delay { link = link ?src ?dst (); by; at }
let partition ~groups ~first ~last = Partition { groups; first; last }

let link_matches l ~src ~dst =
  (match l.l_src with None -> true | Some i -> i = src)
  && (match l.l_dst with None -> true | Some i -> i = dst)

let crashed_parties plan =
  List.sort_uniq Int.compare
    (List.filter_map (function Crash { party; _ } -> Some party | _ -> None) plan)

let validate ~n plan =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let party_ok i = i >= 0 && i < n in
  let endp_ok = function None -> true | Some i -> party_ok i in
  let rec go = function
    | [] -> Ok ()
    | Crash { party; round } :: rest ->
        if not (party_ok party) then err "crash: party %d out of range [0, %d)" party n
        else if round < 0 then err "crash: negative round %d" round
        else go rest
    | Drop { link; p; at } :: rest ->
        if not (endp_ok link.l_src && endp_ok link.l_dst) then
          err "drop: link endpoint out of range [0, %d)" n
        else if not (p >= 0.0 && p <= 1.0) then err "drop: probability %g outside [0, 1]" p
        else if (match at with Some r -> r < 0 | None -> false) then
          err "drop: negative round scope"
        else go rest
    | Delay { link; by; at } :: rest ->
        if not (endp_ok link.l_src && endp_ok link.l_dst) then
          err "delay: link endpoint out of range [0, %d)" n
        else if by < 1 then err "delay: must hold at least 1 round, got %d" by
        else if (match at with Some r -> r < 0 | None -> false) then
          err "delay: negative round scope"
        else go rest
    | Partition { groups; first; last } :: rest ->
        let members = List.concat groups in
        if List.exists (fun i -> not (party_ok i)) members then
          err "part: party out of range [0, %d)" n
        else if List.length (List.sort_uniq Int.compare members) <> List.length members
        then err "part: groups must be disjoint"
        else if first < 0 || last < first then
          err "part: bad round window %d-%d" first last
        else go rest
  in
  go plan

(* --- printing ------------------------------------------------------- *)

let endp_to_string = function None -> "*" | Some i -> string_of_int i

let link_suffix l =
  if l = any_link then ""
  else Printf.sprintf ":%s->%s" (endp_to_string l.l_src) (endp_to_string l.l_dst)

let at_suffix = function None -> "" | Some r -> Printf.sprintf "@%d" r

let spec_to_string = function
  | Crash { party; round } -> Printf.sprintf "crash:%d@%d" party round
  | Drop { link; p; at } -> Printf.sprintf "drop:%g%s%s" p (link_suffix link) (at_suffix at)
  | Delay { link; by; at } ->
      Printf.sprintf "delay:%d%s%s" by (link_suffix link) (at_suffix at)
  | Partition { groups; first; last } ->
      Printf.sprintf "part:%s@%d-%d"
        (String.concat "|"
           (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups))
        first last

let to_string plan = String.concat ";" (List.map spec_to_string plan)

(* --- parsing -------------------------------------------------------- *)

exception Bad of string

let int_exn what s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> raise (Bad (Printf.sprintf "%s: expected an integer, got %S" what s))

let endp_exn s =
  match String.trim s with "*" -> None | s -> Some (int_exn "link endpoint" s)

let link_exn s =
  match String.split_on_char '>' s with
  | [ pre; dst ] when String.length pre > 0 && pre.[String.length pre - 1] = '-' ->
      { l_src = endp_exn (String.sub pre 0 (String.length pre - 1)); l_dst = endp_exn dst }
  | _ -> raise (Bad (Printf.sprintf "bad link %S (want SRC->DST, '*' for any)" s))

let split2 what c s =
  match String.index_opt s c with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> raise (Bad (Printf.sprintf "%s: missing %C in %S" what c s))

(* Optional trailing round scope "@R" on drop/delay specs; crash and
   part use '@' with their own meaning and never reach here. *)
let split_at_suffix rest =
  match String.index_opt rest '@' with
  | None -> (rest, None)
  | Some i ->
      ( String.sub rest 0 i,
        Some (int_exn "round scope" (String.sub rest (i + 1) (String.length rest - i - 1)))
      )

let spec_exn s =
  let kind, rest = split2 "fault" ':' s in
  match String.trim kind with
  | "crash" ->
      let party, round = split2 "crash" '@' rest in
      crash ~party:(int_exn "crash party" party) ~round:(int_exn "crash round" round)
  | "drop" -> (
      let rest, at = split_at_suffix rest in
      match String.index_opt rest ':' with
      | None ->
          let p = try float_of_string (String.trim rest) with _ -> raise (Bad ("bad drop rate " ^ rest)) in
          Drop { link = any_link; p; at }
      | Some i ->
          let p_str = String.sub rest 0 i in
          let p = try float_of_string (String.trim p_str) with _ -> raise (Bad ("bad drop rate " ^ p_str)) in
          Drop { link = link_exn (String.sub rest (i + 1) (String.length rest - i - 1)); p; at })
  | "delay" -> (
      let rest, at = split_at_suffix rest in
      match String.index_opt rest ':' with
      | None -> Delay { link = any_link; by = int_exn "delay" rest; at }
      | Some i ->
          Delay
            {
              link = link_exn (String.sub rest (i + 1) (String.length rest - i - 1));
              by = int_exn "delay" (String.sub rest 0 i);
              at;
            })
  | "part" ->
      let groups_str, window = split2 "part" '@' rest in
      let first, last = split2 "part window" '-' window in
      let groups =
        List.map
          (fun g -> List.map (int_exn "part member") (String.split_on_char ',' g))
          (String.split_on_char '|' groups_str)
      in
      if List.length groups < 2 then raise (Bad "part: need at least two groups");
      partition ~groups ~first:(int_exn "part first" first) ~last:(int_exn "part last" last)
  | other -> raise (Bad (Printf.sprintf "unknown fault kind %S (crash, drop, delay, part)" other))

let of_string s =
  let s = String.trim s in
  if s = "" then Ok []
  else
    try
      Ok (List.map (fun f -> spec_exn (String.trim f)) (String.split_on_char ';' s))
    with Bad msg -> Error msg
