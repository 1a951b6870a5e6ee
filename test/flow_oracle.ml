(* Flow edges a traced round records: one per distinct sending span of
   the envelopes it routes — each honest party that sent past the ideal
   channel, the adversary's rush if a corrupted party did, and the route
   phase if the functionality replied. The tracing engine records one
   edge per such span and round, however many envelopes it sent. *)
let senders ~corrupted routed func_sent =
  let span e =
    match Sb_sim.Envelope.src_party e with
    | Some i when List.mem i corrupted -> -1
    | Some i -> i
    | None -> -2
  in
  let spans =
    List.filter_map
      (fun e -> if Sb_sim.Envelope.is_func_bound e then None else Some (span e))
      routed
  in
  List.length (List.sort_uniq compare (if func_sent = [] then spans else -2 :: spans))
