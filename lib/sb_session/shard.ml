let width = Core.Announced.fan_out_width
let steal_target = 8

type t = {
  index : int;
  spec : int;
  lo : int;
  len : int;
  rng : Sb_util.Rng.t;
}

(* Shards per spec: about [steal_target] sessions per shard, but never
   fewer than [width] shards per spec (and never more than one per
   session), so a straggler spec decomposes into many small units the
   pool queue can spread across workers. A pure function of the
   per-spec session counts, never of the pool size, so the layout (and
   with it every shard-local RNG stream) is jobs-invariant. *)
let per_spec counts =
  Array.map (fun c -> min c (max width ((c + steal_target - 1) / steal_target))) counts

let layout ~counts ~rng =
  let shards_of = per_spec counts in
  let nshards = Array.fold_left ( + ) 0 shards_of in
  let streams = Sb_util.Rng.split_n rng nshards in
  let out = Array.make nshards { index = 0; spec = 0; lo = 0; len = 0; rng } in
  let k = ref 0 and base = ref 0 in
  Array.iteri
    (fun s count ->
      let chunks = Sb_par.Partition.chunks ~total:count ~jobs:shards_of.(s) in
      Array.iter
        (fun (c : Sb_par.Partition.chunk) ->
          out.(!k) <-
            {
              index = !k;
              spec = s;
              lo = !base + c.Sb_par.Partition.lo;
              len = c.Sb_par.Partition.len;
              rng = streams.(!k);
            };
          incr k)
        chunks;
      base := !base + count)
    counts;
  out

let context setup shard = Core.Setup.fresh_ctx setup (Sb_util.Rng.split shard.rng)
