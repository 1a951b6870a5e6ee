(* Unit-cost probes for the traced run: the per-call cost of the crypto
   operations behind the VSS protocols and of one model-checker replay.

   Every probe is a median over [reps] timed loops of the public call,
   with fixed inputs, so it reads the same layer cost whichever workload
   the traced run belongs to.

   [pow_g_ns] times the fixed-base window table. [pow_ladder_ns] times
   [Modgroup.pow] on a base that is neither g nor h, which is the only
   way to reach the Montgomery ladder: [pow g] is routed to the g table.

   The exponent stream, the dealt inputs and the warm-then-time loop
   repeat bench/crypto.ml's. The copy is deliberate for now: the
   benchmark must build and measure the same way on both sides of a
   comparison, and bench/crypto.ml is due to change (repeated samples,
   the pow_ladder and Feldman probes). Once bench/crypto.ml has those
   probes and a stable interface, this file should call it instead. *)

open Sb_crypto

type result = { name : string; per_call : float list }

let exponents =
  let rng = Sb_util.Rng.create 2718 in
  Array.init 1024 (fun _ -> Field.random rng)

let exp_at i = exponents.(i land 1023)

(* [reps] loops of [iters] calls each; the value is time per call in
   [scale] units (1e9 for ns, 1e6 for us). One untimed call first warms
   tables and caches. *)
let time ~name ~scale ~reps ~iters f =
  ignore (Sys.opaque_identity (f 0));
  let per_call =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        for i = 1 to iters do
          ignore (Sys.opaque_identity (f i))
        done;
        (Unix.gettimeofday () -. t0) *. scale /. float_of_int iters)
  in
  { name; per_call }

let crypto ~reps ~scale_iters =
  let ns name ~iters f = time ~name ~scale:1e9 ~reps ~iters:(max 1 (iters / scale_iters)) f in
  let ladder_base = Modgroup.pow_g (Field.of_int 123_457) in
  let pedersen5 =
    Pedersen.deal (Sb_util.Rng.create 46) ~threshold:2 ~parties:5 ~secret:Field.one
  in
  let p_shares = pedersen5.Pedersen.shares in
  let p_subset = Array.to_list (Array.sub p_shares 0 3) in
  let f_shares, f_commit =
    Feldman.deal (Sb_util.Rng.create 57) ~threshold:7 ~parties:16 ~secret:Field.one
  in
  [
    ns "sb_crypto.pow_g_ns" ~iters:200_000 (fun i -> Modgroup.pow_g (exp_at i));
    ns "sb_crypto.pow_ladder_ns" ~iters:20_000 (fun i -> Modgroup.pow ladder_base (exp_at i));
    ns "sb_crypto.pow_gh_ns" ~iters:100_000 (fun i -> Modgroup.pow_gh (exp_at i) (exp_at (i + 1)));
    ns "sb_crypto.verify_share_ns" ~iters:20_000 (fun i ->
        Pedersen.verify_share pedersen5.Pedersen.commitment p_shares.(i mod 5));
    ns "sb_crypto.feldman_verify_ns" ~iters:5_000 (fun i ->
        Feldman.verify_share f_commit f_shares.(i mod 16));
    ns "sb_crypto.reconstruct_ns" ~iters:20_000 (fun _ -> Pedersen.reconstruct p_subset);
  ]

(* One full healthy schedule (no faulty party, no deviation) at n = 5,
   t = 2 per substrate, as the checker's executor replays it. *)
let replay ~reps ~scale_iters =
  let setup = Core.Setup.{ default with n = 5; thresh = 2; seed = 1 } in
  let ctx = Core.Setup.fresh_ctx setup (Sb_util.Rng.split (Sb_util.Rng.create 1)) in
  List.map
    (fun (sname, scheme) ->
      let config =
        { Sb_check.Exec.ctx; scheme; sender = 0; value = Sb_sim.Msg.Bit true; faulty = [] }
      in
      let decisions = List.init (Sb_check.Exec.total_rounds config) (fun _ -> []) in
      time ~name:("sb_check.replay_us." ^ sname) ~scale:1e6 ~reps
        ~iters:(max 1 (40 / scale_iters))
        (fun _ -> Sb_check.Exec.replay config decisions))
    Sb_check.Checker.schemes
