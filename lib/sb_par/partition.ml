type chunk = { lo : int; len : int }

let chunks ~total ~jobs =
  if total < 0 then invalid_arg "Partition.chunks: negative total";
  if jobs <= 0 then invalid_arg "Partition.chunks: non-positive jobs";
  let pieces = min jobs total in
  if pieces = 0 then [||]
  else begin
    (* Balanced contiguous ranges: the first [total mod pieces] chunks
       get one extra element, so sizes differ by at most one and the
       layout is a pure function of (total, pieces). *)
    let base = total / pieces and extra = total mod pieces in
    Array.init pieces (fun k ->
        let len = base + if k < extra then 1 else 0 in
        let lo = (k * base) + min k extra in
        { lo; len })
  end

let streams rng ~total ~draws_per_item =
  if draws_per_item <= 0 then invalid_arg "Partition.streams: draws_per_item";
  Sb_util.Rng.split_n rng (total * draws_per_item)
