(* Comm totals of the whole bench run (the report's schema-v2 comm
   block, read off the sim.* counters), printed and saved as
   comm.csv. *)

let totals () =
  let c name = Sb_obs.Metrics.counter_value (Sb_obs.Metrics.counter name) in
  (c "sim.broadcasts", c "sim.p2p", c "sim.bytes.broadcast", c "sim.bytes.p2p")

let print () =
  let bc, p2p, bc_b, p2p_b = totals () in
  Format.printf "== comm totals: %d broadcasts (%d B), %d p2p msgs (%d B) ==@." bc bc_b p2p p2p_b

let csv () =
  let bc, p2p, bc_b, p2p_b = totals () in
  Printf.sprintf "broadcasts,p2p_messages,broadcast_bytes,p2p_bytes\n%d,%d,%d,%d\n" bc p2p bc_b
    p2p_b
