type round_record = {
  round : int;
  honest_sent : Envelope.t list;
  adv_sent : Envelope.t list;
  func_sent : Envelope.t list;
}

type t = round_record list

let pp fmt trace =
  List.iter
    (fun r ->
      Format.fprintf fmt "round %d:@." r.round;
      let each e = Format.fprintf fmt "  %a@." Envelope.pp e in
      List.iter each r.honest_sent;
      List.iter each r.adv_sent;
      List.iter each r.func_sent)
    trace
