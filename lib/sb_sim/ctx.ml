type t = {
  n : int;
  thresh : int;
  k : int;
  commit : Sb_crypto.Commit.scheme;
  sigs : Sb_crypto.Sig.scheme;
  crs : string;
  pool : Envelope.Arena.arena option;
}

let make ?(backend = Sb_crypto.Commit.Hash) ?pool ~rng ~n ~thresh ~k () =
  assert (n >= 1 && thresh >= 0 && thresh < n && k >= 1);
  {
    n;
    thresh;
    k;
    commit = Sb_crypto.Commit.create ~k backend;
    sigs = Sb_crypto.Sig.create rng ~n;
    crs = Sb_util.Rng.bytes rng k;
    pool;
  }
