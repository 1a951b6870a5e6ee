open Sb_util
open Sb_sim

type run = {
  x : Bitvec.t;
  w : Bitvec.t;
  corrupted : int list;
  consistent : bool;
  adv_output : Msg.t;
  outputs : (int * Msg.t) list;
}

let to_vector n m =
  match m with
  | Msg.List l when List.length l = n ->
      Some (Bitvec.init n (fun i ->
                match List.nth l i with Msg.Bit b -> b | _ -> false))
  | _ -> None

let announce n outputs =
  match List.map (fun (_, m) -> to_vector n m) outputs with
  | Some first :: rest ->
      (first, List.for_all (function Some v -> Bitvec.equal v first | None -> false) rest)
  | [] | None :: _ -> (Bitvec.zero n, false)

(* One Monte-Carlo execution = one sample; testers and experiments all
   funnel through here, so this counter is the run's sample budget as
   actually spent. *)
let m_samples = Sb_obs.Metrics.counter "exp.samples_drawn"

let run_once setup ~protocol ~adversary ~x ?(aux = Msg.Unit) ?faults rng =
  Sb_obs.Metrics.incr m_samples;
  let ctx = Setup.fresh_ctx setup (Rng.split rng) in
  let inputs = Array.init setup.Setup.n (fun i -> Msg.Bit (Bitvec.get x i)) in
  (* Samplers never read the trace; not recording it removes the
     dominant allocation of a simulated run. *)
  let r =
    Network.run ctx ~rng ~protocol ~adversary ~inputs ~aux ~record_trace:false
      ?faults ()
  in
  let w, consistent = announce setup.Setup.n r.Network.outputs in
  {
    x;
    w;
    corrupted = r.Network.corrupted;
    consistent;
    adv_output = r.Network.adv_output;
    outputs = r.Network.outputs;
  }

let sample setup ~protocol ~adversary ~dist ?(aux = Msg.Unit) ?faults rng f =
  for _ = 1 to setup.Setup.samples do
    let x = Sb_dist.Dist.sample dist (Rng.split rng) in
    f (run_once setup ~protocol ~adversary ~x ~aux ?faults (Rng.split rng))
  done

(* Fixed fan-out width: results do not depend on it (the merge is a
   pure fold in chunk order over pre-split streams), so it is chosen
   for load balance alone — several chunks per worker at every
   realistic pool size. *)
let fan_out_width = 32

(* Per-domain share of the sample budget, surfaced in run reports. *)
let note_domain_samples len =
  Sb_obs.Metrics.incr ~by:len
    (Sb_obs.Metrics.counter
       (Printf.sprintf "par.domain%d.samples" (Sb_par.Pool.worker_index ())))

let fan_out ~total ~draws_per_item ~init ~f ~merge rng =
  let pool = Sb_par.Pool.default () in
  let streams = Sb_par.Partition.streams rng ~total ~draws_per_item in
  let chunks = Sb_par.Partition.chunks ~total ~jobs:fan_out_width in
  let accs =
    Sb_par.Pool.map_chunks pool chunks ~f:(fun { Sb_par.Partition.lo; len } ->
        let acc = init () in
        for i = lo to lo + len - 1 do
          f acc i (fun k -> streams.((draws_per_item * i) + k))
        done;
        note_domain_samples len;
        acc)
  in
  if Array.length accs = 0 then init ()
  else begin
    for k = 1 to Array.length accs - 1 do
      merge ~into:accs.(0) accs.(k)
    done;
    accs.(0)
  end

(* The sequential loop above performs exactly two master splits per
   sample (input draw, execution); an item's streams 0 and 1 are those
   same children, so every chunking — including one chunk — replays
   the sequential per-sample randomness byte for byte. *)
let psample setup ~protocol ~adversary ~dist ?(aux = Msg.Unit) ?faults ~init ~f ~merge rng =
  fan_out ~total:setup.Setup.samples ~draws_per_item:2 ~init ~merge rng
    ~f:(fun acc i stream ->
      let x = Sb_dist.Dist.sample dist (stream 0) in
      f acc i (run_once setup ~protocol ~adversary ~x ~aux ?faults (stream 1)))

let corrupted_of setup ~protocol ~adversary =
  let rng = Rng.create setup.Setup.seed in
  let r = run_once setup ~protocol ~adversary ~x:(Bitvec.zero setup.Setup.n) rng in
  r.corrupted
