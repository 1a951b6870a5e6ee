(* Tests for sb_mpc: circuit construction and plain evaluation, the
   BGW engine against the plain reference, and the real-Θ instantiation
   of Π_G (Theta_real) against the ideal function g. *)

open Sb_sim
open Sb_crypto
open Sb_mpc

let seed = ref 0

let fresh_rng () =
  incr seed;
  Sb_util.Rng.create (77000 + !seed)

let make_ctx ?(n = 5) ?(thresh = 2) () = Ctx.make ~rng:(fresh_rng ()) ~n ~thresh ~k:8 ()

let fe = Alcotest.testable (fun fmt x -> Field.pp fmt x) Field.equal
let fe_of_bool b = Field.of_int (Bool.to_int b)

(* --- circuits ------------------------------------------------------- *)

let test_circuit_plain_eval () =
  (* (x0 + 3) * x1 - x2, two parties: P0 owns x0, x1; P1 owns x2. *)
  let c = Circuit.create ~n_parties:2 in
  let x0 = Circuit.input c ~party:0 in
  let x1 = Circuit.input c ~party:0 in
  let x2 = Circuit.input c ~party:1 in
  let e = Circuit.sub c (Circuit.mul c (Circuit.add c x0 (Circuit.const c (Field.of_int 3))) x1) x2 in
  Circuit.output c e;
  let out =
    Circuit.eval_plain c
      ~inputs:[| [ Field.of_int 4; Field.of_int 5 ]; [ Field.of_int 6 ] |]
  in
  Alcotest.(check (list fe)) "(4+3)*5-6" [ Field.of_int 29 ] out

let test_circuit_bit_algebra () =
  let c = Circuit.create ~n_parties:1 in
  let a = Circuit.input c ~party:0 in
  let b = Circuit.input c ~party:0 in
  Circuit.output c (Circuit.bit_xor c a b);
  Circuit.output c (Circuit.mul c a b);
  Circuit.output c (Circuit.bit_not c a);
  List.iter
    (fun (x, y) ->
      let out =
        Circuit.eval_plain c ~inputs:[| [ fe_of_bool x; fe_of_bool y ] |]
      in
      Alcotest.(check (list fe))
        (Printf.sprintf "bits %b %b" x y)
        [ fe_of_bool (x <> y); fe_of_bool (x && y); fe_of_bool (not x) ]
        out)
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_circuit_xor_fold () =
  let c = Circuit.create ~n_parties:1 in
  let ws = List.init 5 (fun _ -> Circuit.input c ~party:0) in
  Circuit.output c (Circuit.xor_fold c ws);
  for v = 0 to 31 do
    let bits = List.init 5 (fun i -> (v lsr i) land 1 = 1) in
    let out = Circuit.eval_plain c ~inputs:[| List.map fe_of_bool bits |] in
    let expected = List.fold_left ( <> ) false bits in
    Alcotest.(check (list fe)) (string_of_int v) [ fe_of_bool expected ] out
  done

let test_circuit_layers () =
  let c = Circuit.create ~n_parties:1 in
  let a = Circuit.input c ~party:0 in
  let b = Circuit.input c ~party:0 in
  let ab = Circuit.mul c a b in
  let abb = Circuit.mul c ab b in
  Circuit.output c abb;
  Alcotest.(check int) "two layers" 2 (Circuit.layers c)

let test_circuit_arity_checks () =
  let c = Circuit.create ~n_parties:2 in
  let _ = Circuit.input c ~party:0 in
  Alcotest.check_raises "wrong count" (Invalid_argument "Circuit.eval_plain: wrong input count")
    (fun () -> ignore (Circuit.eval_plain c ~inputs:[| []; [] |]))

(* --- BGW engine ------------------------------------------------------ *)

(* A small but representative circuit: per party one input bit;
   output0 = XOR of all, output1 = AND of first two, output2 =
   x0 + 2*x1. Exercises layered mults, linear gates, multiple outputs. *)
let demo_circuit n =
  let c = Circuit.create ~n_parties:n in
  let xs = List.init n (fun i -> Circuit.input c ~party:i) in
  Circuit.output c (Circuit.xor_fold c xs);
  (match xs with
  | a :: b :: _ ->
      Circuit.output c (Circuit.mul c a b);
      Circuit.output c (Circuit.add c a (Circuit.scale c (Field.of_int 2) b))
  | _ -> assert false);
  c

let run_bgw ?(n = 5) ?(thresh = 2) circuit inputs_bits =
  let protocol =
    Bgw.protocol ~name:"bgw-test" ~circuit
      ~encode:(fun ~rng:_ ~id:_ input ->
        [ (match input with Msg.Bit b -> fe_of_bool b | _ -> Field.zero) ])
      ~decode:(fun outs -> Msg.List (List.map (fun v -> Msg.Fe v) outs))
  in
  let ctx = make_ctx ~n ~thresh () in
  let inputs = Array.of_list (List.map (fun b -> Msg.Bit b) inputs_bits) in
  let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol ~inputs in
  match r.Network.outputs with
  | (_, Msg.List l) :: rest ->
      List.iter
        (fun (_, m) -> Alcotest.(check bool) "bgw consistency" true (Msg.equal m (Msg.List l)))
        rest;
      List.map (function Msg.Fe v -> v | _ -> Field.zero) l
  | _ -> Alcotest.fail "bad bgw output"

let test_bgw_matches_plain () =
  let c = demo_circuit 5 in
  List.iter
    (fun v ->
      let bits = List.init 5 (fun i -> (v lsr i) land 1 = 1) in
      let got = run_bgw c bits in
      let expected =
        Circuit.eval_plain c
          ~inputs:(Array.of_list (List.map (fun b -> [ fe_of_bool b ]) bits))
      in
      Alcotest.(check (list fe)) (Printf.sprintf "input %d" v) expected got)
    [ 0; 1; 7; 21; 30; 31 ]

let test_bgw_thresholds () =
  (* Works at t = 1 and t = 2 with n = 5, and at t = 1, n = 3. *)
  let c5 = demo_circuit 5 in
  let expected =
    Circuit.eval_plain c5
      ~inputs:(Array.of_list (List.map (fun b -> [ fe_of_bool b ]) [ true; true; false; true; false ]))
  in
  Alcotest.(check (list fe)) "t=1" expected (run_bgw ~thresh:1 c5 [ true; true; false; true; false ]);
  Alcotest.(check (list fe)) "t=2" expected (run_bgw ~thresh:2 c5 [ true; true; false; true; false ]);
  let c3 = demo_circuit 3 in
  let expected3 =
    Circuit.eval_plain c3
      ~inputs:(Array.of_list (List.map (fun b -> [ fe_of_bool b ]) [ true; false; true ]))
  in
  Alcotest.(check (list fe)) "n=3 t=1" expected3
    (run_bgw ~n:3 ~thresh:1 c3 [ true; false; true ])

let test_bgw_round_count () =
  let c = demo_circuit 5 in
  let p =
    Bgw.protocol ~name:"round-count" ~circuit:c
      ~encode:(fun ~rng:_ ~id:_ _ -> [])
      ~decode:(fun _ -> Msg.Unit)
  in
  Alcotest.(check int) "rounds = 2 + layers" (2 + Circuit.layers c)
    (p.Protocol.rounds (make_ctx ()))

let qcheck_bgw_random_circuits =
  (* Random linear+mult circuits over 3 parties, compared to plain
     evaluation. *)
  QCheck.Test.make ~name:"bgw random circuits match plain eval" ~count:15
    QCheck.(pair (list_of_size Gen.(2 -- 10) (int_bound 5)) (int_bound 7))
    (fun (ops, v) ->
      let n = 3 in
      let c = Circuit.create ~n_parties:n in
      let xs = Array.init n (fun i -> Circuit.input c ~party:i) in
      let wires = ref (Array.to_list xs) in
      let pick k = List.nth !wires (k mod List.length !wires) in
      List.iteri
        (fun idx op ->
          let a = pick (op + idx) and b = pick (op * 2) in
          let w =
            match op mod 4 with
            | 0 -> Circuit.add c a b
            | 1 -> Circuit.sub c a b
            | 2 -> Circuit.mul c a b
            | _ -> Circuit.scale c (Field.of_int (op + 1)) a
          in
          wires := w :: !wires)
        ops;
      Circuit.output c (List.hd !wires);
      let bits = List.init n (fun i -> (v lsr i) land 1 = 1) in
      let expected =
        Circuit.eval_plain c
          ~inputs:(Array.of_list (List.map (fun b -> [ fe_of_bool b ]) bits))
      in
      let got = run_bgw ~n ~thresh:1 c bits in
      List.for_all2 Field.equal expected got)

(* --- the real Theta --------------------------------------------------- *)

let test_theta_circuit_matches_g () =
  (* The g-circuit, evaluated in the clear, agrees with the reference
     Theta.g for every input, flag pattern and coin at n = 4. *)
  let n = 4 in
  let c = Sb_protocols.Theta_real.circuit ~n in
  List.iter
    (fun xv ->
      List.iter
        (fun bv ->
          List.iter
            (fun coin ->
              (* encode rho so that xor rho_i = coin: rho_0 = coin. *)
              let inputs =
                Array.init n (fun i ->
                    [
                      fe_of_bool ((xv lsr i) land 1 = 1);
                      fe_of_bool ((bv lsr i) land 1 = 1);
                      fe_of_bool (i = 0 && coin);
                    ])
              in
              let got = Circuit.eval_plain c ~inputs in
              let v = Array.init n (fun i -> ((xv lsr i) land 1 = 1, (bv lsr i) land 1 = 1)) in
              let expected = Sb_protocols.Theta.g ~r:coin v in
              Alcotest.(check (list fe))
                (Printf.sprintf "x=%d b=%d r=%b" xv bv coin)
                (Array.to_list (Array.map fe_of_bool expected))
                got)
            [ false; true ])
        [ 0; 1; 3; 5; 9; 15 ])
    [ 0; 6; 10; 15 ]

let test_pi_g_real_honest () =
  let n = 5 in
  let p = Sb_protocols.Theta_real.protocol ~n in
  List.iter
    (fun v ->
      let ctx = make_ctx ~n ~thresh:2 () in
      let x = Sb_util.Bitvec.of_int n v in
      let inputs = Array.init n (fun i -> Msg.Bit (Sb_util.Bitvec.get x i)) in
      let r = Network.honest_run ctx ~rng:(fresh_rng ()) ~protocol:p ~inputs in
      match r.Network.outputs with
      | (_, m) :: _ ->
          Alcotest.(check string) "honest pi-g-bgw is parallel broadcast"
            (Sb_util.Bitvec.to_string x)
            (Sb_util.Bitvec.to_string (Msg.to_bitvec_exn m))
      | [] -> Alcotest.fail "no outputs")
    [ 0; 13; 31 ]

let test_pi_g_real_astar_forces_parity () =
  (* Claim 6.6 end-to-end over the REAL MPC substrate. *)
  let n = 5 in
  let p = Sb_protocols.Theta_real.protocol ~n in
  let astar = Sb_protocols.Theta_real.a_star_real ~n ~corrupt:(3, 4) in
  for trial = 1 to 10 do
    let ctx = make_ctx ~n ~thresh:2 () in
    let rng = Sb_util.Rng.create (6000 + trial) in
    let inputs = Array.init n (fun _ -> Msg.Bit (Sb_util.Rng.bool rng)) in
    let r = Network.run ctx ~rng ~protocol:p ~adversary:astar ~inputs () in
    match r.Network.outputs with
    | (_, m) :: _ ->
        Alcotest.(check bool) "xor of announced = 0" false
          (Sb_util.Bitvec.parity (Msg.to_bitvec_exn m))
    | [] -> Alcotest.fail "no outputs"
  done

let () =
  Alcotest.run "sb_mpc"
    [
      ( "circuit",
        [
          Alcotest.test_case "plain eval" `Quick test_circuit_plain_eval;
          Alcotest.test_case "bit algebra" `Quick test_circuit_bit_algebra;
          Alcotest.test_case "xor fold" `Quick test_circuit_xor_fold;
          Alcotest.test_case "layers" `Quick test_circuit_layers;
          Alcotest.test_case "arity checks" `Quick test_circuit_arity_checks;
        ] );
      ( "bgw",
        [
          Alcotest.test_case "matches plain eval" `Quick test_bgw_matches_plain;
          Alcotest.test_case "thresholds" `Quick test_bgw_thresholds;
          Alcotest.test_case "round count" `Quick test_bgw_round_count;
          QCheck_alcotest.to_alcotest qcheck_bgw_random_circuits;
        ] );
      ( "theta-real",
        [
          Alcotest.test_case "circuit = g" `Quick test_theta_circuit_matches_g;
          Alcotest.test_case "honest parallel broadcast" `Quick test_pi_g_real_honest;
          Alcotest.test_case "A* forces parity over BGW" `Quick
            test_pi_g_real_astar_forces_parity;
        ] );
    ]
