(* Crypto hot-path microbench probe.

   Fixed-iteration timings for the operations that dominate the
   VSS-backed experiments (E4/E5): group exponentiation, the fused
   Pedersen double exponentiation, share verification (Pedersen at
   n in {4, 16, 64}, Feldman at n = 16), and Lagrange reconstruction
   at n in {4, 16, 64}. Every bench invocation runs this probe and
   records the numbers as "crypto/..." entries in the BENCH_*.json
   timings block; CI holds them to within 20% of the committed quick
   baseline, alongside gtester-smoke/20k.

   Which exponentiation path each probe reaches: [Modgroup.pow] sends
   the bases g and h to their fixed-base window tables, so
   "crypto/pow" (which times [pow g], and keeps its name because the
   committed baseline and CI key on it) measures that table dispatch,
   like "crypto/pow_g" minus the tracing check. Only a base that is
   neither g nor h runs the Montgomery ladder; "crypto/pow_ladder"
   times that. *)

open Sb_crypto

let sizes = [ 4; 16; 64 ]

(* Deterministic exponent stream: the probe always does the same
   work, only the wall clock varies. *)
let exponents =
  let rng = Sb_util.Rng.create 2718 in
  Array.init 1024 (fun _ -> Field.random rng)

let time_ns ~iters f =
  (* One untimed pass warms tables and caches. *)
  f 0 |> ignore;
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    f i |> ignore
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let entry name ns = { Sb_obs.Report.bench_name = name; ns_per_run = ns; r_square = 1.0 }

let dealt_for n =
  let rng = Sb_util.Rng.create (41 + n) in
  Pedersen.deal rng ~threshold:((n - 1) / 2) ~parties:n ~secret:Field.one

(* Any member other than g and h reaches the ladder. *)
let ladder_base = Modgroup.pow_g (Field.of_int 123_457)

let run () =
  let e i = exponents.(i land 1023) in
  let pow_ns = time_ns ~iters:300_000 (fun i -> Modgroup.pow Modgroup.g (e i)) in
  let pow_ladder_ns = time_ns ~iters:100_000 (fun i -> Modgroup.pow ladder_base (e i)) in
  let pow_g_ns = time_ns ~iters:1_000_000 (fun i -> Modgroup.pow_g (e i)) in
  let pow_gh_ns = time_ns ~iters:1_000_000 (fun i -> Modgroup.pow_gh (e i) (e (i + 1))) in
  let per_n =
    List.concat_map
      (fun n ->
        let d = dealt_for n in
        let shares = d.Pedersen.shares in
        let verify_ns =
          time_ns ~iters:(200_000 / n) (fun i ->
              Pedersen.verify_share d.Pedersen.commitment shares.(i mod n))
        in
        let subset = Array.to_list (Array.sub shares 0 (((n - 1) / 2) + 1)) in
        let reconstruct_ns = time_ns ~iters:100_000 (fun _ -> Pedersen.reconstruct subset) in
        [
          entry (Printf.sprintf "crypto/verify_share/n=%d" n) verify_ns;
          entry (Printf.sprintf "crypto/reconstruct/n=%d" n) reconstruct_ns;
        ])
      sizes
  in
  let feldman_shares, feldman_commit =
    Feldman.deal (Sb_util.Rng.create 57) ~threshold:7 ~parties:16 ~secret:Field.one
  in
  let feldman_ns =
    time_ns ~iters:(200_000 / 16) (fun i ->
        Feldman.verify_share feldman_commit feldman_shares.(i mod 16))
  in
  entry "crypto/pow" pow_ns
  :: entry "crypto/pow_ladder" pow_ladder_ns
  :: entry "crypto/pow_g" pow_g_ns
  :: entry "crypto/pow_gh" pow_gh_ns
  :: entry "crypto/feldman_verify/n=16" feldman_ns
  :: per_n

let find entries name =
  List.find_map
    (fun (t : Sb_obs.Report.timing_entry) ->
      if String.equal t.Sb_obs.Report.bench_name name then Some t.Sb_obs.Report.ns_per_run
      else None)
    entries
  |> Option.get

let print_summary entries =
  Format.printf
    "== crypto probe: pow at g (table dispatch) %.0fns, pow_ladder %.0fns, pow_g %.0fns, \
     pow_gh %.0fns, verify_share(n=16) %.0fns, feldman_verify(n=16) %.0fns, \
     reconstruct(n=16) %.0fns ==@."
    (find entries "crypto/pow") (find entries "crypto/pow_ladder") (find entries "crypto/pow_g")
    (find entries "crypto/pow_gh")
    (find entries "crypto/verify_share/n=16")
    (find entries "crypto/feldman_verify/n=16")
    (find entries "crypto/reconstruct/n=16")

let write_csv dir entries =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "crypto.csv" in
  let oc = open_out path in
  output_string oc "benchmark,ns_per_op,ops_per_s\n";
  List.iter
    (fun (t : Sb_obs.Report.timing_entry) ->
      Printf.fprintf oc "%s,%.1f,%.0f\n" t.Sb_obs.Report.bench_name t.Sb_obs.Report.ns_per_run
        (1e9 /. t.Sb_obs.Report.ns_per_run))
    entries;
  close_out oc;
  Format.printf "wrote %s@." path
