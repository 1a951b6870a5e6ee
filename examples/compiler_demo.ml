(* The CGMA compiler, demonstrated — the original framing of [7]:
   protocols are WRITTEN against a simultaneous-broadcast network and
   COMPILED onto a network with only regular broadcast.

   The program below is a 3-epoch collective coin protocol in the
   SB-hybrid model. We run it three ways:

   1. in the hybrid model itself (epochs = calls to Ideal(f_SB));
   2. compiled with Gennaro's simultaneous broadcast;
   3. compiled with the NAIVE sequential broadcast.

   On honest runs all three agree bit-for-bit (the compiler preserves
   functionality). Under a rushing adversary, the naive compilation
   lets the last party fix every epoch coin, while the Gennaro
   compilation behaves like the hybrid — the compiler preserves
   SECURITY only when the epoch substrate is simultaneous, which is
   the whole point of the paper's lineage.

   Run with:  dune exec examples/compiler_demo.exe *)

open Sb_sim

let n = 5
let epochs = 3
let program = Sb_protocols.Compiler.xor_coin_program ~rounds:epochs

let coins_of m =
  match m with
  | Msg.List l -> List.map (function Msg.Bit b -> b | _ -> false) l
  | _ -> []

let show coins = String.concat "" (List.map (fun b -> if b then "1" else "0") coins)

let run_once ?inputs base adversary seed =
  let p = Sb_protocols.Compiler.compile program ~using:base in
  let ctx = Ctx.make ~rng:(Sb_util.Rng.create seed) ~n ~thresh:2 ~k:16 () in
  let inputs =
    match inputs with Some i -> i | None -> Array.init n (fun i -> Msg.Bit (i mod 2 = 0))
  in
  let r =
    Network.run ctx ~rng:(Sb_util.Rng.create (seed + 1)) ~protocol:p ~adversary:(adversary p)
      ~inputs ()
  in
  match r.Network.outputs with
  | (_, m) :: _ -> coins_of m
  | [] -> []

let passive p = Sb_sim.Adversary.passive p

(* An epoch-coin fixer for the naive compilation: in each epoch's
   window, party 4 watches the naive broadcasts of the others (rushing)
   and broadcasts the XOR of what it heard, pinning the epoch coin to
   0. The SAME adversary pointed at the Gennaro compilation only ever
   sees hiding commitments. *)
let fixer (compiled : Protocol.t) =
  ignore compiled;
  {
    Adversary.name = "epoch-coin-fixer";
    choose_corrupt = (fun _ ~rng:_ -> [ n - 1 ]);
    init =
      (fun ctx ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let base_rounds = ctx.Ctx.n (* naive-sequential: n rounds *) in
        let acc = ref false in
        let seen = Hashtbl.create 8 in
        let act (view : Adversary.view) =
          let span = base_rounds + 1 in
          let epoch = view.Adversary.round / span in
          let local = view.Adversary.round - (epoch * span) in
          if local = 0 then begin
            acc := false;
            Hashtbl.reset seen
          end;
          List.iter
            (fun (e : Envelope.t) ->
              match (e.Envelope.src, e.Envelope.body) with
              | ( Envelope.Party p,
                  Msg.Tag (etag, Msg.Tag ("naive-value", Msg.Bit b)) )
                when p <> n - 1
                     && String.equal etag ("epoch:" ^ string_of_int epoch)
                     && not (Hashtbl.mem seen p) ->
                  Hashtbl.replace seen p ();
                  if b then acc := not !acc
              | _ -> ())
            (Lazy.force view.Adversary.delivered @ Lazy.force view.Adversary.rushed);
          if local = n - 1 then
            [
              Envelope.broadcast ~src:(n - 1)
                (Msg.Tag
                   ( "epoch:" ^ string_of_int epoch,
                     Msg.Tag ("naive-value", Msg.Bit !acc) ));
            ]
          else []
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

let () =
  Format.printf "3-epoch coin program, one source text, three executions:@.@.";
  let hybrid = run_once Sb_protocols.Ideal_sb.protocol passive 100 in
  let gennaro = run_once Sb_protocols.Gennaro.protocol passive 200 in
  let naive = run_once Sb_protocols.Naive.sequential passive 300 in
  Format.printf "  hybrid (Ideal(f_SB) epochs)   : coins = %s@." (show hybrid);
  Format.printf "  compiled over gennaro         : coins = %s@." (show gennaro);
  Format.printf "  compiled over naive broadcast : coins = %s@." (show naive);
  Format.printf "  -> identical on honest runs: %b@.@."
    (hybrid = gennaro && gennaro = naive);

  (* Now under attack: many random executions, count zero coins. *)
  let trials = 300 in
  let zero_rate base =
    (* Random inputs per trial: the coin program is deterministic given
       inputs, so fairness must come from input entropy — exactly the
       coin-flipping setting of [8, 12]. *)
    let input_rng = Sb_util.Rng.create 31415 in
    let zeros = ref 0 and total = ref 0 in
    for s = 1 to trials do
      let inputs = Array.init n (fun _ -> Msg.Bit (Sb_util.Rng.bool input_rng)) in
      List.iter
        (fun c ->
          incr total;
          if not c then incr zeros)
        (run_once ~inputs base fixer (1000 + (7 * s)))
    done;
    float_of_int !zeros /. float_of_int !total
  in
  Format.printf "under the epoch-coin-fixer adversary (Pr[epoch coin = 0]):@.";
  Format.printf "  compiled over naive broadcast : %.3f  <- every coin forced@."
    (zero_rate Sb_protocols.Naive.sequential);
  Format.printf "  compiled over gennaro         : %.3f  <- still fair@."
    (zero_rate Sb_protocols.Gennaro.protocol);
  Format.printf
    "@.The compiler preserves functionality over any parallel broadcast, but@.\
     preserves INDEPENDENCE only over a simultaneous one -- [7]'s theorem,@.\
     exercised.@."
