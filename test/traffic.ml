(* How a trace splits into broadcast and point-to-point traffic: an
   envelope addressed [All] rides the broadcast channel, as the comm
   tallies count it. *)
let is_broadcast (e : Sb_sim.Envelope.t) = e.Sb_sim.Envelope.dst = Sb_sim.Envelope.All
