(* Tests for sb_par: partitioner coverage, pool exception/shutdown
   semantics, and the determinism contract of the parallel sampling
   engine (identical results at every --jobs setting, equal to the
   sequential path). *)

open Sb_util

(* --- Partition ----------------------------------------------------- *)

let check_cover ~total ~jobs =
  let chunks = Sb_par.Partition.chunks ~total ~jobs in
  let hit = Array.make total 0 in
  Array.iter
    (fun { Sb_par.Partition.lo; len } ->
      Alcotest.(check bool) "chunk non-empty" true (len > 0);
      for i = lo to lo + len - 1 do
        hit.(i) <- hit.(i) + 1
      done)
    chunks;
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "index %d covered once (total=%d, jobs=%d)" i total jobs)
        1 c)
    hit

let test_partition_cover () =
  List.iter
    (fun total -> List.iter (fun jobs -> check_cover ~total ~jobs) [ 1; 2; 3; 4; 7; 32 ])
    [ 0; 1; 2; 7; 13; 31; 97; 1000 ]

let test_partition_empty () =
  Alcotest.(check int) "total=0 gives no chunks" 0
    (Array.length (Sb_par.Partition.chunks ~total:0 ~jobs:4))

(* --- Pool ----------------------------------------------------------- *)

exception Boom of int

let test_pool_exception_propagates () =
  let pool = Sb_par.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () ->
      (match
         Sb_par.Pool.map_chunks pool
           ~f:(fun i -> if i mod 2 = 1 then raise (Boom i) else i)
           (Array.init 8 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest-index failure re-raised" 1 i);
      (* The pool must survive a failed barrier. *)
      let r = Sb_par.Pool.map_chunks pool ~f:(fun i -> i * i) (Array.init 5 Fun.id) in
      Alcotest.(check (array int)) "pool reusable after failure" [| 0; 1; 4; 9; 16 |] r)

let test_pool_shutdown () =
  let pool = Sb_par.Pool.create ~domains:2 () in
  Sb_par.Pool.shutdown pool;
  Sb_par.Pool.shutdown pool (* idempotent *);
  match Sb_par.Pool.map_chunks pool ~f:Fun.id [| 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let with_jobs j f =
  Sb_par.Pool.set_default_domains j;
  Fun.protect ~finally:(fun () -> Sb_par.Pool.set_default_domains 1) f

(* The samplers' shared loop over a 4-domain pool: 100 items in 32
   chunks, folded with a non-commutative merge that exposes any
   scheduling dependence. *)
let test_pool_reduce_order () =
  with_jobs 4 (fun () ->
      let s =
        Core.Announced.fan_out ~total:100 ~draws_per_item:1
          ~init:(fun () -> Buffer.create 16)
          ~f:(fun b i _ -> Buffer.add_string b (string_of_int i))
          ~merge:(fun ~into b -> Buffer.add_buffer into b)
          (Rng.create 1)
      in
      Alcotest.(check string) "merge folds in chunk order"
        (String.concat "" (List.init 100 string_of_int))
        (Buffer.contents s))

(* --- psample determinism ------------------------------------------- *)

let protocol = Sb_protocols.Gennaro.protocol
let setup = Core.Setup.with_samples 400 Core.Setup.default
let adversary = Core.Adversaries.semi_honest protocol ~corrupt:[ 3; 4 ]

(* Every sample's announced vector lands in its index slot, so a
   stream handed to the wrong sample shows, not only a wrong total. *)
let slots () = Array.make setup.Core.Setup.samples ""
let record ws i (r : Core.Announced.run) = ws.(i) <- Bitvec.to_string r.Core.Announced.w
let merge_slots ~into src = Array.iteri (fun i w -> if w <> "" then into.(i) <- w) src

let ws_sequential ~dist =
  let ws = slots () and i = ref 0 in
  Core.Announced.sample setup ~protocol ~adversary ~dist (Rng.create setup.Core.Setup.seed)
    (fun r ->
      record ws !i r;
      incr i);
  ws

let ws_parallel ~dist =
  Core.Announced.psample setup ~protocol ~adversary ~dist ~init:slots ~f:record
    ~merge:merge_slots (Rng.create setup.Core.Setup.seed)

(* One split per item, the shape of the G** and E6 samplers: the
   item's one stream draws the input from a child and then runs. *)
let one_draw ~dist s =
  let x = Sb_dist.Dist.sample dist (Rng.split s) in
  Core.Announced.run_once setup ~protocol ~adversary ~x s

let ws_sequential_one_draw ~dist =
  let ws = slots () in
  let rng = Rng.create setup.Core.Setup.seed in
  Array.iteri (fun i _ -> record ws i (one_draw ~dist (Rng.split rng))) ws;
  ws

let ws_fan_out_one_draw ~dist =
  Core.Announced.fan_out ~total:setup.Core.Setup.samples ~draws_per_item:1 ~init:slots
    ~f:(fun ws i stream -> record ws i (one_draw ~dist (stream 0)))
    ~merge:merge_slots (Rng.create setup.Core.Setup.seed)

let test_psample_matches_sequential () =
  let dist = Sb_dist.Dist.uniform setup.Core.Setup.n in
  let seq = ws_sequential ~dist and seq1 = ws_sequential_one_draw ~dist in
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          Alcotest.(check (array string))
            (Printf.sprintf "jobs=%d equals the sequential loop" j)
            seq (ws_parallel ~dist);
          Alcotest.(check (array string))
            (Printf.sprintf "jobs=%d, one draw per item, equals the sequential loop" j)
            seq1 (ws_fan_out_one_draw ~dist)))
    [ 1; 2; 4 ]

let test_pedersen_jobs_invariant () =
  (* The crypto hot path — fixed-base commitments, share verification,
     cached-Lagrange reconstruction — run across a worker pool: the
     Lagrange cache is domain-local, so every pool size must produce
     byte-identical results (and equal to the inline jobs=1 path). *)
  let task seed =
    let rng = Rng.create seed in
    let secret = Sb_crypto.Field.random rng in
    let d = Sb_crypto.Pedersen.deal rng ~threshold:2 ~parties:5 ~secret in
    let ok = Array.for_all (Sb_crypto.Pedersen.verify_share d.Sb_crypto.Pedersen.commitment)
        d.Sb_crypto.Pedersen.shares in
    (* Vary the reveal subset with the seed so several distinct
       abscissa sets hit each domain's cache. *)
    let subset =
      List.map
        (fun i -> d.Sb_crypto.Pedersen.shares.((i + seed) mod 5))
        [ 0; 1; 2; (seed * 3) mod 5 ]
      |> List.sort_uniq (fun a b ->
             Int.compare a.Sb_crypto.Pedersen.index b.Sb_crypto.Pedersen.index)
    in
    ( ok,
      Sb_crypto.Field.to_int (Sb_crypto.Pedersen.reconstruct subset),
      Sb_crypto.Field.to_int (Sb_crypto.Pedersen.reconstruct_blind subset),
      Sb_crypto.Field.to_int secret )
  in
  let run_with ~domains =
    let pool = Sb_par.Pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Sb_par.Pool.shutdown pool)
      (fun () -> Sb_par.Pool.map_chunks pool ~f:task (Array.init 64 (fun i -> 1000 + i)))
  in
  let base = run_with ~domains:1 in
  Array.iter
    (fun (ok, v, _, s) ->
      Alcotest.(check bool) "honest shares verify" true ok;
      Alcotest.(check int) "reconstructs the secret" s v)
    base;
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "pedersen path at jobs=%d identical to jobs=1" domains)
        true
        (run_with ~domains = base))
    [ 2; 4 ]

let test_testers_jobs_invariant () =
  let dist = Sb_dist.Dist.uniform setup.Core.Setup.n in
  let run_all () =
    let cr = Core.Cr_test.run setup ~protocol ~adversary ~dist in
    let g = Core.G_test.run setup ~protocol ~adversary ~dist () in
    let gss =
      Core.Gss_test.run (Core.Setup.with_samples 200 setup) ~protocol ~adversary ()
    in
    (cr.Core.Cr_test.findings, cr.Core.Cr_test.verdict, g.Core.G_test.findings,
     g.Core.G_test.verdict, gss.Core.Gss_test.findings, gss.Core.Gss_test.verdict)
  in
  let base = with_jobs 1 run_all in
  List.iter
    (fun j ->
      let r = with_jobs j run_all in
      Alcotest.(check bool)
        (Printf.sprintf "tester outputs at jobs=%d identical to jobs=1" j)
        true (r = base))
    [ 2; 4 ]

let () =
  Alcotest.run "sb_par"
    [
      ( "partition",
        [
          Alcotest.test_case "exact cover (0, 1, primes, large)" `Quick test_partition_cover;
          Alcotest.test_case "empty total" `Quick test_partition_empty;
        ] );
      ( "pool",
        [
          Alcotest.test_case "exception propagates, pool survives" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "shutdown idempotent, then rejects work" `Quick test_pool_shutdown;
          Alcotest.test_case "reduce merges in chunk order" `Quick test_pool_reduce_order;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pedersen path invariant in pool size" `Quick
            test_pedersen_jobs_invariant;
          Alcotest.test_case "psample = sequential sample" `Slow test_psample_matches_sequential;
          Alcotest.test_case "tester results invariant in --jobs" `Slow
            test_testers_jobs_invariant;
        ] );
    ]
