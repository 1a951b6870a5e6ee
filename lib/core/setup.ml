type t = {
  n : int;
  thresh : int;
  k : int;
  backend : Sb_crypto.Commit.backend;
  samples : int;
  seed : int;
}

let default =
  { n = 5; thresh = 2; k = 16; backend = Sb_crypto.Commit.Hash; samples = 6000; seed = 1 }

let with_samples samples t = { t with samples }
let with_n ~n ~thresh t = { t with n; thresh }
let with_seed seed t = { t with seed }

let fresh_ctx t rng =
  Sb_sim.Ctx.make ~backend:t.backend ~rng ~n:t.n ~thresh:t.thresh ~k:t.k ()
