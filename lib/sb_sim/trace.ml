type round_record = {
  round : int;
  honest_sent : Envelope.t list;
  adv_sent : Envelope.t list;
  func_sent : Envelope.t list;
}

type t = round_record list

let p2p envs =
  List.filter (fun e -> not (Envelope.is_func_bound e || Envelope.is_broadcast e)) envs

let p2p_message_count trace =
  List.fold_left
    (fun acc r -> acc + List.length (p2p r.honest_sent) + List.length (p2p r.adv_sent))
    0 trace

let bcasts envs = List.filter Envelope.is_broadcast envs

let broadcast_count trace =
  List.fold_left
    (fun acc r -> acc + List.length (bcasts r.honest_sent) + List.length (bcasts r.adv_sent))
    0 trace


let wire_bytes trace =
  let add acc envs =
    List.fold_left
      (fun (b, p) e ->
        if Envelope.is_func_bound e then (b, p)
        else if Envelope.is_broadcast e then (b + Envelope.wire_size e, p)
        else (b, p + Envelope.wire_size e))
      acc envs
  in
  List.fold_left (fun acc r -> add (add acc r.honest_sent) r.adv_sent) (0, 0) trace

let messages_from trace src =
  let count_from =
    List.fold_left (fun acc e -> if Envelope.src_party e = Some src then acc + 1 else acc)
  in
  List.fold_left (fun acc r -> count_from (count_from acc r.honest_sent) r.adv_sent) 0 trace

let per_round_counts trace =
  List.map
    (fun r -> (List.length r.honest_sent, List.length r.adv_sent, List.length r.func_sent))
    trace

let pp fmt trace =
  List.iter
    (fun r ->
      Format.fprintf fmt "round %d:@." r.round;
      let each e = Format.fprintf fmt "  %a@." Envelope.pp e in
      List.iter each r.honest_sent;
      List.iter each r.adv_sent;
      List.iter each r.func_sent)
    trace
