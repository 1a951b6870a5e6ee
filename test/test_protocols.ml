(* Tests for sb_protocols: the parallel-broadcast contract of every
   protocol under honest runs and the adversary battery, VSS-session
   behaviour under malicious dealers, the Theta function, Multi-bit
   wrapping, round formulas, and commit-open's deliberate weakness. *)

open Sb_sim

let seed = ref 100

let fresh_rng () =
  incr seed;
  Sb_util.Rng.create (90000 + !seed)

let make_ctx ?(backend = Sb_crypto.Commit.Hash) ?(n = 5) ?(thresh = 2) () =
  Ctx.make ~backend ~rng:(fresh_rng ()) ~n ~thresh ~k:16 ()

let all_protocols =
  [
    ("ideal-fsb", Sb_protocols.Ideal_sb.protocol);
    ("cgma-vss", Sb_protocols.Cgma.protocol);
    ("chor-rabin-log", Sb_protocols.Chor_rabin.protocol);
    ("gennaro-constant", Sb_protocols.Gennaro.protocol);
    ("pi-g", Sb_protocols.Pi_g.protocol);
    ("naive-sequential", Sb_protocols.Naive.sequential);
    ("naive-concurrent", Sb_protocols.Naive.concurrent);
    ("commit-open", Sb_protocols.Commit_open.protocol);
  ]

let announced (r : Network.result) =
  match r.Network.outputs with
  | (_, m) :: _ -> Msg.to_bitvec_exn m
  | [] -> Alcotest.fail "no honest outputs"

let check_consistent (r : Network.result) =
  match r.Network.outputs with
  | [] -> Alcotest.fail "no honest outputs"
  | (_, first) :: rest ->
      List.iter
        (fun (_, m) -> Alcotest.(check bool) "consistency" true (Msg.equal m first))
        rest

(* --- honest-run contract ------------------------------------------- *)

let test_honest_contract (p : Protocol.t) () =
  List.iter
    (fun v ->
      let ctx = make_ctx () in
      let x = Sb_util.Bitvec.of_int 5 v in
      let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs in
      check_consistent r;
      Alcotest.(check string)
        (Printf.sprintf "correctness on %s" (Sb_util.Bitvec.to_string x))
        (Sb_util.Bitvec.to_string x)
        (Sb_util.Bitvec.to_string (announced r)))
    [ 0; 1; 21; 30; 31 ]

let test_honest_contract_varied_sizes (p : Protocol.t) () =
  List.iter
    (fun (n, thresh) ->
      let ctx = make_ctx ~n ~thresh () in
      let x = Sb_util.Bitvec.init n (fun i -> i mod 3 = 0) in
      let inputs = Array.init n (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs in
      check_consistent r;
      Alcotest.(check string)
        (Printf.sprintf "n=%d" n)
        (Sb_util.Bitvec.to_string x)
        (Sb_util.Bitvec.to_string (announced r)))
    [ (2, 0); (3, 1); (4, 1); (7, 3); (9, 4) ]

let test_ideal_backend_matches_hash (p : Protocol.t) () =
  (* The two commitment backends must induce identical announced
     values on honest runs. *)
  let x = Sb_util.Bitvec.of_string "01101" in
  let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
  let run backend =
    let ctx = Ctx.make ~backend ~rng:(Sb_util.Rng.create 4321) ~n:5 ~thresh:2 ~k:16 () in
    announced (Network.honest_run ctx ~rng:(Sb_util.Rng.create 1234) ~protocol:p ~inputs)
  in
  Alcotest.(check string) "same announced vector"
    (Sb_util.Bitvec.to_string (run Sb_crypto.Commit.Hash))
    (Sb_util.Bitvec.to_string (run Sb_crypto.Commit.Ideal))

(* --- semi-honest corruption keeps the contract ---------------------- *)

let test_semi_honest_contract (p : Protocol.t) () =
  let ctx = make_ctx () in
  let x = Sb_util.Bitvec.of_string "11010" in
  let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
  let adv = Adversary.semi_honest p ~corrupt:[ 1; 3 ] in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  check_consistent r;
  Alcotest.(check string) "announced = inputs" (Sb_util.Bitvec.to_string x)
    (Sb_util.Bitvec.to_string (announced r))

(* --- silent corrupted parties announce the default ------------------ *)

let test_silent_defaults (p : Protocol.t) () =
  let ctx = make_ctx () in
  let x = Sb_util.Bitvec.of_string "11111" in
  let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
  let adv = Core.Adversaries.silent ~corrupt:[ 4 ] in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  check_consistent r;
  let w = announced r in
  Alcotest.(check bool) "silent party announces 0" false (Sb_util.Bitvec.get w 4);
  (* Honest coordinates are untouched. *)
  List.iter
    (fun i -> Alcotest.(check bool) "honest coordinate" true (Sb_util.Bitvec.get w i))
    [ 0; 1; 2; 3 ]

(* --- round formulas -------------------------------------------------- *)

let test_round_formulas () =
  let rounds p n = p.Protocol.rounds (make_ctx ~n ~thresh:((n - 1) / 2) ()) in
  (* Gennaro constant. *)
  Alcotest.(check int) "gennaro n=4" 4 (rounds Sb_protocols.Gennaro.protocol 4);
  Alcotest.(check int) "gennaro n=32" 4 (rounds Sb_protocols.Gennaro.protocol 32);
  (* CGMA linear: 3n + 1. *)
  Alcotest.(check int) "cgma n=4" 13 (rounds Sb_protocols.Cgma.protocol 4);
  Alcotest.(check int) "cgma n=8" 25 (rounds Sb_protocols.Cgma.protocol 8);
  (* Chor-Rabin logarithmic: floor(log2 n) + 6. *)
  Alcotest.(check int) "chor-rabin n=4" 8 (rounds Sb_protocols.Chor_rabin.protocol 4);
  Alcotest.(check int) "chor-rabin n=8" 9 (rounds Sb_protocols.Chor_rabin.protocol 8);
  Alcotest.(check int) "chor-rabin n=32" 11 (rounds Sb_protocols.Chor_rabin.protocol 32);
  (* Naive: n and 1. *)
  Alcotest.(check int) "naive-seq" 16 (rounds Sb_protocols.Naive.sequential 16);
  Alcotest.(check int) "naive-conc" 1 (rounds Sb_protocols.Naive.concurrent 16)

(* --- Theta / Pi_G ----------------------------------------------------- *)

let test_theta_g_no_flags () =
  let v = [| (true, false); (false, false); (true, false) |] in
  Alcotest.(check (array bool)) "identity" [| true; false; true |]
    (Sb_protocols.Theta.g ~r:true v)

let test_theta_g_two_flags () =
  (* l1 = 1, l2 = 3; y = x0 xor x2 xor x4. *)
  let v = [| (true, false); (false, true); (true, false); (false, true); (false, false) |] in
  let w_r b = Sb_protocols.Theta.g ~r:b v in
  List.iter
    (fun r ->
      let w = w_r r in
      Alcotest.(check bool) "w_l1 = r" r w.(1);
      Alcotest.(check bool) "w_l2 = r xor y" (r <> (true <> true <> false)) w.(3);
      (* Unflagged coordinates pass through. *)
      Alcotest.(check bool) "w0" true w.(0);
      Alcotest.(check bool) "w2" true w.(2);
      Alcotest.(check bool) "w4" false w.(4);
      (* The invariant of Claim 6.6: XOR of all outputs is 0. *)
      let parity = Array.fold_left (fun acc b -> if b then not acc else acc) false w in
      Alcotest.(check bool) "global parity zero" false parity)
    [ true; false ]

let test_theta_g_wrong_flag_count () =
  (* 1 or 3 flags: no leaking branch. *)
  let v1 = [| (true, true); (false, false); (true, false) |] in
  Alcotest.(check (array bool)) "one flag" [| true; false; true |]
    (Sb_protocols.Theta.g ~r:false v1);
  let v3 = [| (true, true); (false, true); (true, true) |] in
  Alcotest.(check (array bool)) "three flags" [| true; false; true |]
    (Sb_protocols.Theta.g ~r:false v3)

let test_pi_g_astar_forces_parity () =
  (* Claim 6.6 end-to-end: under A* the announced XOR is always 0. *)
  let astar = Core.Adversaries.a_star ~corrupt:(3, 4) in
  for trial = 1 to 20 do
    let ctx = make_ctx () in
    let rng = Sb_util.Rng.create (7000 + trial) in
    let inputs = Array.init 5 (fun _ -> Msg.Bit (Sb_util.Rng.bool rng)) in
    let r =
      Network.run ctx ~rng ~protocol:Sb_protocols.Pi_g.protocol ~adversary:astar ~inputs ()
    in
    Alcotest.(check bool) "xor = 0" false (Sb_util.Bitvec.parity (announced r))
  done

(* --- VSS session under a malicious dealer --------------------------- *)

(* Adversary: corrupted dealer 0 deals inconsistent shares (a wrong
   share to party 1) in Gennaro; party 1 complains; the dealer answers
   with a VALID share; sharing must succeed. Variant: dealer stays
   silent on complaints -> disqualified -> announced 0. *)
let bad_dealer ~answer_complaints =
  {
    Adversary.name = "bad-dealer";
    choose_corrupt = (fun _ ~rng:_ -> [ 0 ]);
    init =
      (fun ctx ~rng ~corrupted:_ ~inputs:_ ~aux:_ ->
        let n = ctx.Ctx.n in
        let dealt =
          Sb_crypto.Pedersen.deal rng ~threshold:ctx.Ctx.thresh ~parties:n
            ~secret:Sb_crypto.Field.one
        in
        let share_msg j =
          let s = dealt.Sb_crypto.Pedersen.shares.(j) in
          Msg.List [ Msg.Fe s.Sb_crypto.Pedersen.value; Msg.Fe s.Sb_crypto.Pedersen.blind ]
        in
        let act (view : Adversary.view) =
          match view.Adversary.round with
          | 0 ->
              (* Broadcast the true commitment, but hand party 1 a
                 corrupted share value. *)
              let comm =
                Msg.List
                  (Array.to_list
                     (Array.map (fun g -> Msg.Ge g) dealt.Sb_crypto.Pedersen.commitment))
              in
              Envelope.broadcast ~src:0 (Msg.Tag ("vss:0:comm", comm))
              :: List.filter_map
                   (fun j ->
                     if j = 0 then None
                     else
                       let body =
                         if j = 1 then
                           Msg.List [ Msg.Fe Sb_crypto.Field.zero; Msg.Fe Sb_crypto.Field.zero ]
                         else share_msg j
                       in
                       Some (Envelope.make ~src:0 ~dst:j (Msg.Tag ("vss:0:share", body))))
                   (List.init n Fun.id)
          | 2 when answer_complaints ->
              (* Answer party 1's complaint with its true share. *)
              [
                Envelope.broadcast ~src:0
                  (Msg.Tag
                     ( "vss:0:resp",
                       Msg.List
                         [
                           Msg.List
                             [
                               Msg.Int 1;
                               Msg.Fe dealt.Sb_crypto.Pedersen.shares.(1).Sb_crypto.Pedersen.value;
                               Msg.Fe dealt.Sb_crypto.Pedersen.shares.(1).Sb_crypto.Pedersen.blind;
                             ];
                         ] ));
              ]
          | _ -> []
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

let run_gennaro_with_dealer adv =
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r =
    Network.run ctx ~rng:(fresh_rng ()) ~protocol:Sb_protocols.Gennaro.protocol ~adversary:adv
      ~inputs ()
  in
  check_consistent r;
  announced r

let test_bad_dealer_recovers_with_response () =
  let w = run_gennaro_with_dealer (bad_dealer ~answer_complaints:true) in
  Alcotest.(check bool) "dealer 0 value recovered" true (Sb_util.Bitvec.get w 0)

let test_bad_dealer_disqualified_without_response () =
  let w = run_gennaro_with_dealer (bad_dealer ~answer_complaints:false) in
  Alcotest.(check bool) "dealer 0 disqualified -> 0" false (Sb_util.Bitvec.get w 0);
  List.iter
    (fun i -> Alcotest.(check bool) "honest values intact" true (Sb_util.Bitvec.get w i))
    [ 1; 2; 3; 4 ]

let test_copycat_disqualified () =
  (* Copying an honest dealer's commitment without knowing the shares
     gets the copycat disqualified, in every VSS-based protocol. *)
  List.iter
    (fun p ->
      let ctx = make_ctx () in
      let inputs = Array.make 5 (Msg.Bit true) in
      let adv = Core.Adversaries.copycat_dealer ~copier:4 ~target:0 in
      let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
      check_consistent r;
      let w = announced r in
      Alcotest.(check bool) "copycat announces 0" false (Sb_util.Bitvec.get w 4);
      Alcotest.(check bool) "target unaffected" true (Sb_util.Bitvec.get w 0))
    [ Sb_protocols.Gennaro.protocol; Sb_protocols.Chor_rabin.protocol ]

let test_reveal_withhold_ineffective_on_vss () =
  (* Withholding reveals cannot change a VSS-shared announced value. *)
  let p = Sb_protocols.Gennaro.protocol in
  let adv =
    Core.Adversaries.reveal_withhold p ~corrupt:[ 4 ]
      ~reveal_round:(fun _ -> Sb_protocols.Gennaro.reveal_round)
      ~reveal_tag_prefix:"vss:"
      ~honest_probe:(fun _ _ -> true) (* always withhold *)
  in
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  let w = announced r in
  Alcotest.(check string) "all values recovered" "11111" (Sb_util.Bitvec.to_string w)

let test_reveal_withhold_effective_on_commit_open () =
  (* The same attack works against bare commit-open: the corrupted
     party's value is silently defaulted. *)
  let p = Sb_protocols.Commit_open.protocol in
  let adv =
    Core.Adversaries.reveal_withhold p ~corrupt:[ 4 ]
      ~reveal_round:(fun _ -> 1)
      ~reveal_tag_prefix:"co-open"
      ~honest_probe:(fun _ _ -> true)
  in
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  let w = announced r in
  Alcotest.(check bool) "withheld value defaults to 0" false (Sb_util.Bitvec.get w 4)

let test_chor_rabin_bad_knowledge_tag () =
  (* A corrupted dealer that runs the whole protocol honestly EXCEPT
     for broadcasting a wrong knowledge tag is assigned 0 — the
     proof-of-knowledge step is load-bearing. *)
  let p = Sb_protocols.Chor_rabin.protocol in
  let base = Adversary.semi_honest p ~corrupt:[ 4 ] in
  let adv =
    {
      base with
      Adversary.init =
        (fun ctx ~rng ~corrupted ~inputs ~aux ->
          let s = base.Adversary.init ctx ~rng ~corrupted ~inputs ~aux in
          {
            s with
            Adversary.act =
              (fun view ->
                List.map
                  (fun (e : Envelope.t) ->
                    match e.Envelope.body with
                    | Msg.Tag ("cr-conf", Msg.Str _) ->
                        { e with Envelope.body = Msg.Tag ("cr-conf", Msg.Str "garbage") }
                    | _ -> e)
                  (s.Adversary.act view));
          });
    }
  in
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Bit true) in
  let r = Network.run ctx ~rng:(fresh_rng ()) ~protocol:p ~adversary:adv ~inputs () in
  check_consistent r;
  let w = announced r in
  Alcotest.(check bool) "bad tag -> 0" false (Sb_util.Bitvec.get w 4);
  List.iter
    (fun i -> Alcotest.(check bool) "others intact" true (Sb_util.Bitvec.get w i))
    [ 0; 1; 2; 3 ]

(* --- Multi wrapper ---------------------------------------------------- *)

let test_multi_roundtrip () =
  let p = Sb_protocols.Multi.wrap ~bits:4 Sb_protocols.Gennaro.protocol in
  let ctx = make_ctx () in
  let values = [| 9; 4; 12; 7; 3 |] in
  let inputs = Array.map (fun v -> Msg.Int v) values in
  let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs in
  check_consistent r;
  match r.Network.outputs with
  | (_, Msg.List vals) :: _ ->
      List.iteri
        (fun i m -> Alcotest.(check int) (Printf.sprintf "value %d" i) values.(i) (Msg.to_int_exn m))
        vals
  | _ -> Alcotest.fail "bad output shape"

let test_multi_rejects_out_of_range () =
  let p = Sb_protocols.Multi.wrap ~bits:3 Sb_protocols.Naive.concurrent in
  let ctx = make_ctx () in
  let inputs = Array.make 5 (Msg.Int 9) in
  Alcotest.check_raises "out of range" (Invalid_argument "Multi.wrap: input out of range")
    (fun () -> ignore (Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs))

let test_multi_rejects_functionality () =
  Alcotest.check_raises "functionality"
    (Invalid_argument "Multi.wrap: base protocol uses a functionality") (fun () ->
      ignore (Sb_protocols.Multi.wrap ~bits:2 Sb_protocols.Pi_g.protocol))

let test_multi_same_rounds () =
  let base = Sb_protocols.Gennaro.protocol in
  let p = Sb_protocols.Multi.wrap ~bits:8 base in
  let ctx = make_ctx () in
  Alcotest.(check int) "concurrent instances, same rounds" (base.Protocol.rounds ctx)
    (p.Protocol.rounds ctx)

(* --- property tests: the contract under random inputs and seeds ------ *)

let qcheck_honest_contract (name, (p : Protocol.t)) =
  QCheck.Test.make
    ~name:(name ^ ": honest contract on random inputs/seeds")
    ~count:40
    QCheck.(pair (int_bound 31) (int_bound 1_000_000))
    (fun (v, seed) ->
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create (seed + 1)) ~n:5 ~thresh:2 ~k:16 () in
      let x = Sb_util.Bitvec.of_int 5 v in
      let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r = Network.honest_run ctx ~rng:(Sb_util.Rng.create (seed + 2)) ~protocol:p ~inputs in
      match r.Network.outputs with
      | [] -> false
      | (_, first) :: rest ->
          List.for_all (fun (_, m) -> Msg.equal m first) rest
          && Sb_util.Bitvec.equal x (Msg.to_bitvec_exn first))

let qcheck_semi_honest_contract (name, (p : Protocol.t)) =
  QCheck.Test.make
    ~name:(name ^ ": semi-honest contract on random corruption")
    ~count:25
    QCheck.(triple (int_bound 31) (int_bound 1_000_000) (int_bound 9))
    (fun (v, seed, cpick) ->
      let corrupt = Sb_util.Subset.of_list [ cpick mod 5; (cpick / 2) mod 5 ] in
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create (seed + 3)) ~n:5 ~thresh:2 ~k:16 () in
      let x = Sb_util.Bitvec.of_int 5 v in
      let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let adv = Adversary.semi_honest p ~corrupt in
      let r = Network.run ctx ~rng:(Sb_util.Rng.create (seed + 4)) ~protocol:p ~adversary:adv ~inputs () in
      match r.Network.outputs with
      | [] -> false
      | (_, first) :: rest ->
          List.for_all (fun (_, m) -> Msg.equal m first) rest
          && Sb_util.Bitvec.equal x (Msg.to_bitvec_exn first))

(* A* on Pi_G forces zero parity for EVERY input and seed (Claim 6.6). *)
let qcheck_astar_parity =
  QCheck.Test.make ~name:"pi-g + A*: xor of announced always 0" ~count:60
    QCheck.(pair (int_bound 31) (int_bound 1_000_000))
    (fun (v, seed) ->
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create (seed + 5)) ~n:5 ~thresh:2 ~k:16 () in
      let x = Sb_util.Bitvec.of_int 5 v in
      let inputs = Array.init 5 (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r =
        Network.run ctx
          ~rng:(Sb_util.Rng.create (seed + 6))
          ~protocol:Sb_protocols.Pi_g.protocol
          ~adversary:(Core.Adversaries.a_star ~corrupt:(3, 4))
          ~inputs ()
      in
      match r.Network.outputs with
      | (_, m) :: _ -> not (Sb_util.Bitvec.parity (Msg.to_bitvec_exn m))
      | [] -> false)

(* Multi-bit wrapping commutes with the bit decomposition. *)
let qcheck_multi_roundtrip =
  QCheck.Test.make ~name:"multi wrapper roundtrip" ~count:20
    QCheck.(pair (list_of_size (QCheck.Gen.return 5) (int_bound 15)) (int_bound 1_000_000))
    (fun (vals, seed) ->
      let p = Sb_protocols.Multi.wrap ~bits:4 Sb_protocols.Naive.concurrent in
      let ctx = Ctx.make ~rng:(Sb_util.Rng.create (seed + 7)) ~n:5 ~thresh:2 ~k:16 () in
      let inputs = Array.of_list (List.map (fun v -> Msg.Int v) vals) in
      let r = Network.honest_run ctx ~rng:(Sb_util.Rng.create (seed + 8)) ~protocol:p ~inputs in
      match r.Network.outputs with
      | (_, Msg.List out) :: _ ->
          List.for_all2 (fun v m -> Msg.to_int_exn m = v) vals out
      | _ -> false)

(* --- the CGMA compiler -------------------------------------------------- *)

let run_compiled base ~epochs ~inputs ~seed =
  let program = Sb_protocols.Compiler.xor_coin_program ~rounds:epochs in
  let p = Sb_protocols.Compiler.compile program ~using:base in
  let ctx = Ctx.make ~rng:(Sb_util.Rng.create seed) ~n:5 ~thresh:2 ~k:16 () in
  let r = Network.honest_run ctx ~rng:(Sb_util.Rng.create (seed + 1)) ~protocol:p ~inputs in
  check_consistent r;
  match r.Network.outputs with (_, m) :: _ -> m | [] -> Alcotest.fail "no outputs"

let test_compiler_hybrid_equivalence () =
  (* The compiler theorem, on honest runs: the program's outputs are
     identical whether the epochs run over the ideal SB functionality
     or over a real simultaneous broadcast protocol. *)
  let inputs = Array.init 5 (fun i -> Msg.Bit (i mod 2 = 0)) in
  let hybrid = run_compiled Sb_protocols.Ideal_sb.protocol ~epochs:3 ~inputs ~seed:50 in
  List.iter
    (fun base ->
      let compiled = run_compiled base ~epochs:3 ~inputs ~seed:60 in
      Alcotest.(check bool)
        ("hybrid = compiled over " ^ base.Protocol.name)
        true (Msg.equal hybrid compiled))
    [ Sb_protocols.Gennaro.protocol; Sb_protocols.Naive.sequential ]

let test_compiler_epoch_count () =
  let program = Sb_protocols.Compiler.xor_coin_program ~rounds:4 in
  let p = Sb_protocols.Compiler.compile program ~using:Sb_protocols.Gennaro.protocol in
  let ctx = make_ctx () in
  (* 4 epochs of (4 base rounds + 1 window step) - 1. *)
  Alcotest.(check int) "rounds" 19 (p.Protocol.rounds ctx);
  let inputs = Array.make 5 (Msg.Bit true) in
  match
    (Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs).Network.outputs
  with
  | (_, Msg.List coins) :: _ -> Alcotest.(check int) "4 coins" 4 (List.length coins)
  | _ -> Alcotest.fail "bad output"

let test_compiler_window () =
  Alcotest.(check (pair int int)) "epoch 2 over 4-round base" (10, 14)
    (Sb_protocols.Compiler.epoch_window ~base_rounds:4 ~epoch:2)

let test_compiler_semi_honest_matches () =
  (* Semi-honest corruption must not change the coins either. *)
  let program = Sb_protocols.Compiler.xor_coin_program ~rounds:2 in
  let p = Sb_protocols.Compiler.compile program ~using:Sb_protocols.Gennaro.protocol in
  let ctx = make_ctx () in
  let inputs = Array.init 5 (fun i -> Msg.Bit (i < 2)) in
  let honest = Network.honest_run ctx ~rng:(Sb_util.Rng.create 70) ~protocol:p ~inputs in
  let ctx2 = make_ctx () in
  let semi =
    Network.run ctx2 ~rng:(Sb_util.Rng.create 70) ~protocol:p
      ~adversary:(Adversary.semi_honest p ~corrupt:[ 4 ])
      ~inputs ()
  in
  match (honest.Network.outputs, semi.Network.outputs) with
  | (_, a) :: _, (_, b) :: _ -> Alcotest.(check bool) "same coins" true (Msg.equal a b)
  | _ -> Alcotest.fail "missing outputs"

(* --- memoized knowledge tags ------------------------------------------ *)

let tag_cases seed =
  let module Cr = Sb_protocols.Chor_rabin in
  let rng = Sb_util.Rng.create seed in
  let fe () = Sb_crypto.Field.random rng in
  let long = Sb_util.Rng.bytes rng 16 in
  let salts =
    [ ""; "x"; long; Sb_util.Rng.bytes rng 16; Sb_util.Rng.bytes rng 7 ]
    (* Same first 8 bytes as [long], so the same slot for equal
       dealer/secret/blind: only the full salt comparison tells them
       apart. *)
    @ [ String.sub long 0 8 ^ Sb_util.Rng.bytes rng 8 ]
  in
  let secret = fe () and blind = fe () in
  assert (
    Sb_protocols.Check_memo.tag_slot ~salt:long ~dealer:3 ~secret ~blind
    = Sb_protocols.Check_memo.tag_slot ~salt:(List.nth salts 5) ~dealer:3 ~secret ~blind);
  List.concat_map
    (fun salt ->
      List.concat_map
        (fun dealer ->
          let secret, blind = if dealer = 3 then (secret, blind) else (fe (), fe ()) in
          (* Twice, so the second lookup is a hit. *)
          List.init 2 (fun pass ->
              ( Printf.sprintf "seed %d salt %S dealer %d pass %d" seed salt dealer pass,
                Cr.knowledge_tag ~salt ~dealer ~secret ~blind,
                Cr.knowledge_tag_uncached ~salt ~dealer ~secret ~blind )))
        [ 0; 3; 4 ])
    (salts @ List.rev salts)

let test_memo_knowledge_tag domains () =
  let pool = Sb_par.Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Sb_par.Pool.shutdown pool)
    (fun () -> Sb_par.Pool.map_chunks pool ~f:tag_cases (Array.init 8 (fun i -> 40 + i)))
  |> Array.iter
       (List.iter (fun (label, memo, plain) -> Alcotest.(check string) label plain memo))

(* --- registry --------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check int) "7 registered" 7 (List.length Sb_protocols.Registry.all);
  Alcotest.(check bool) "find gennaro" true
    (Option.is_some (Sb_protocols.Registry.find "gennaro-constant"));
  Alcotest.(check bool) "find nonsense" true
    (Option.is_none (Sb_protocols.Registry.find "nonsense"));
  Alcotest.(check int) "simultaneous subset" 4 (List.length Sb_protocols.Registry.simultaneous)

(* --- Wire scans and VSS reveal bookkeeping ------------------------------ *)

let test_wire_iter_from_parties () =
  let env src body = { Envelope.src; dst = Envelope.All; body } in
  let inbox =
    [
      Envelope.broadcast ~src:3 (Msg.Tag ("vss:1:comm", Msg.Int 1));
      Envelope.make ~src:0 ~dst:1 (Msg.Tag ("vss:11:comm", Msg.Int 2));
      env Envelope.Func (Msg.Tag ("vss:1:comm", Msg.Int 3));
      env Envelope.All (Msg.Tag ("vss:1:comm", Msg.Int 4));
      Envelope.broadcast ~src:2 (Msg.Int 5);
      Envelope.make ~src:4 ~dst:0 (Msg.Tag ("vss:1:comm", Msg.Int 6));
      Envelope.broadcast ~src:1 (Msg.Tag ("vss:1:comm", Msg.Int 7));
    ]
  in
  let visits tag =
    let seen = ref [] in
    Envelope.iter_from_parties ~tag
      (fun src m -> seen := (src, Msg.to_int_exn m) :: !seen)
      inbox;
    List.rev !seen
  in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check pairs "vss:1:comm, inbox order, parties only" [ (3, 1); (4, 6); (1, 7) ]
    (visits "vss:1:comm");
  Alcotest.check pairs "vss:11:comm" [ (0, 2) ] (visits "vss:11:comm");
  Alcotest.check pairs "no match" [] (visits "vss:1")

(* One honest Pedersen sharing by dealer 0 at n = 5, t = 2, driven
   through its local rounds; returns party 1's session, the secret and
   every party's reveal envelope. *)
let honest_vss_sharing () =
  let n = 5 and secret = Sb_crypto.Field.of_int 12345 in
  let ctx = Ctx.make ~rng:(Sb_util.Rng.create 77) ~n ~thresh:2 ~k:16 () in
  let rng = Sb_util.Rng.create 78 in
  let sessions =
    Array.init n (fun me ->
        Sb_protocols.Vss_session.create ctx ~rng:(Sb_util.Rng.split rng) ~dealer:0 ~me
          ~secret:(if me = 0 then Some secret else None))
  in
  let sent = ref [] in
  for round = 0 to Sb_protocols.Vss_session.local_rounds do
    let out =
      List.concat
        (List.init n (fun me ->
             let inbox = List.filter (fun e -> Envelope.delivered_to e me) !sent in
             Sb_protocols.Vss_session.step sessions.(me) ~round ~inbox))
    in
    sent := out
  done;
  let reveals = Array.map (fun s -> List.hd (Sb_protocols.Vss_session.reveal_msgs s)) sessions in
  (sessions.(1), secret, reveals)

let test_collect_reveals () =
  let fe = Alcotest.testable Sb_crypto.Field.pp Sb_crypto.Field.equal in
  let check what expected inbox =
    (* A fresh sharing per case: reveals accumulate across calls. *)
    let session, secret, _ = honest_vss_sharing () in
    Sb_protocols.Vss_session.collect_reveals session inbox;
    Alcotest.(check (option fe)) what
      (if expected then Some secret else None)
      (Sb_protocols.Vss_session.secret session)
  in
  let _, _, v = honest_vss_sharing () in
  let invalid src =
    Envelope.broadcast ~src
      (match v.(src).Envelope.body with
      | Msg.Tag (tag, _) ->
          Msg.Tag (tag, Msg.List [ Msg.Fe Sb_crypto.Field.one; Msg.Fe Sb_crypto.Field.one ])
      | _ -> Alcotest.fail "reveal is not tagged")
  in
  let from src e = { e with Envelope.src } in
  check "three valid reveals reconstruct" true [ v.(2); v.(3); v.(4) ];
  check "invalid reveal does not count" false [ invalid 2; v.(3); v.(4) ];
  check "invalid then valid from one sender: the valid one counts" true
    [ invalid 2; v.(2); v.(3); v.(4) ];
  check "two valid reveals from one sender count once" false [ v.(2); v.(2); v.(3) ];
  check "duplicate plus two other senders reconstruct" true [ v.(2); v.(2); v.(3); v.(4) ];
  check "Func and All senders are ignored" false
    [ v.(2); from Envelope.Func v.(3); from Envelope.All v.(4); v.(3) ];
  check "another party's share under my name is rejected" false
    [ from (Envelope.Party 2) v.(4); v.(3); v.(1) ]

(* --- driver ----------------------------------------------------------- *)

let () =
  let per_protocol (name, p) =
    ( name,
      [
        Alcotest.test_case "honest contract" `Quick (test_honest_contract p);
        Alcotest.test_case "varied sizes" `Quick (test_honest_contract_varied_sizes p);
        Alcotest.test_case "semi-honest contract" `Quick (test_semi_honest_contract p);
        Alcotest.test_case "silent defaults" `Quick (test_silent_defaults p);
        Alcotest.test_case "backend equivalence" `Quick (test_ideal_backend_matches_hash p);
      ] )
  in
  Alcotest.run "sb_protocols"
    (List.map per_protocol all_protocols
    @ [
        ("rounds", [ Alcotest.test_case "formulas" `Quick test_round_formulas ]);
        ( "theta",
          [
            Alcotest.test_case "g identity" `Quick test_theta_g_no_flags;
            Alcotest.test_case "g leaking branch" `Quick test_theta_g_two_flags;
            Alcotest.test_case "g wrong flag counts" `Quick test_theta_g_wrong_flag_count;
            Alcotest.test_case "A* forces parity 0" `Quick test_pi_g_astar_forces_parity;
          ] );
        ( "vss-robustness",
          [
            Alcotest.test_case "bad dealer, valid response" `Quick
              test_bad_dealer_recovers_with_response;
            Alcotest.test_case "bad dealer, no response" `Quick
              test_bad_dealer_disqualified_without_response;
            Alcotest.test_case "copycat disqualified" `Quick test_copycat_disqualified;
            Alcotest.test_case "withhold vs VSS" `Quick test_reveal_withhold_ineffective_on_vss;
            Alcotest.test_case "withhold vs commit-open" `Quick
              test_reveal_withhold_effective_on_commit_open;
            Alcotest.test_case "chor-rabin bad knowledge tag" `Quick
              test_chor_rabin_bad_knowledge_tag;
            Alcotest.test_case "memoized knowledge tag, 1 domain" `Quick
              (test_memo_knowledge_tag 1);
            Alcotest.test_case "memoized knowledge tag, 2 domains" `Quick
              (test_memo_knowledge_tag 2);
          ] );
        ( "vss-reveals",
          [
            Alcotest.test_case "wire iter_from_parties" `Quick test_wire_iter_from_parties;
            Alcotest.test_case "collect_reveals on crafted inboxes" `Quick test_collect_reveals;
          ] );
        ( "multi",
          [
            Alcotest.test_case "roundtrip" `Quick test_multi_roundtrip;
            Alcotest.test_case "out of range" `Quick test_multi_rejects_out_of_range;
            Alcotest.test_case "no functionality" `Quick test_multi_rejects_functionality;
            Alcotest.test_case "same rounds" `Quick test_multi_same_rounds;
          ] );
        ( "compiler",
          [
            Alcotest.test_case "hybrid equivalence" `Quick test_compiler_hybrid_equivalence;
            Alcotest.test_case "epoch count" `Quick test_compiler_epoch_count;
            Alcotest.test_case "window" `Quick test_compiler_window;
            Alcotest.test_case "semi-honest equivalence" `Quick test_compiler_semi_honest_matches;
          ] );
        ("registry", [ Alcotest.test_case "lookup" `Quick test_registry ]);
        ( "properties",
          List.map QCheck_alcotest.to_alcotest
            (List.map qcheck_honest_contract all_protocols
            @ List.map qcheck_semi_honest_contract
                (List.filter (fun (n, _) -> n <> "ideal-fsb") all_protocols)
            @ [ qcheck_astar_parity; qcheck_multi_roundtrip ]) );
      ])
