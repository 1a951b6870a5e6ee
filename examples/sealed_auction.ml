(* Sealed-bid (contract bidding) auction — one of the paper's stock
   applications of simultaneous broadcast.

   Five bidders submit 4-bit bids. With a naive parallel broadcast the
   last bidder snipes: rushing shows it everyone else's bid before it
   has to speak, so it bids (max + 1). With the Gennaro protocol lifted
   to 4-bit values ({!Sb_protocols.Multi}), all bids are committed —
   every bit of every bid — before anything is revealed, and the snipe
   collapses to an input-independent guess.

   Run with:  dune exec examples/sealed_auction.exe *)

open Sb_sim

let n = 5
let bits = 4
let sniper = n - 1

(* The sniper for the multi-bit naive sequential protocol: collect
   everyone's bits from the instance-tagged traffic, then broadcast
   max+1, bit by bit, in its own round. *)
let snipe_adversary =
  {
    Adversary.name = "sniper";
    choose_corrupt = (fun _ ~rng:_ -> [ sniper ]);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let bids = Array.make n 0 in
        let act (view : Adversary.view) =
          List.iter
            (fun (e : Envelope.t) ->
              match (e.Envelope.src, e.Envelope.body) with
              | Envelope.Party p, Msg.Tag (inst, Msg.Tag ("naive-value", Msg.Bit b)) when b -> (
                  match String.split_on_char ':' inst with
                  | [ "inst"; j ] -> (
                      match int_of_string_opt j with
                      | Some j -> bids.(p) <- bids.(p) lor (1 lsl j)
                      | None -> ())
                  | _ -> ())
              | _ -> ())
            (Lazy.force view.Adversary.delivered @ Lazy.force view.Adversary.rushed);
          if view.Adversary.round = sniper then begin
            let best = Array.fold_left max 0 (Array.sub bids 0 sniper) in
            let my_bid = min ((1 lsl bits) - 1) (best + 1) in
            List.init bits (fun j ->
                Envelope.broadcast ~src:sniper
                  (Msg.Tag
                     ( Sb_protocols.Multi.instance_tag j,
                       Msg.Tag ("naive-value", Msg.Bit ((my_bid lsr j) land 1 = 1)) )))
          end
          else []
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

let run_auction protocol adversary honest_bids =
  let rng = Sb_util.Rng.create 4242 in
  let ctx = Ctx.make ~rng ~n ~thresh:2 ~k:16 () in
  let inputs = Array.map (fun b -> Msg.Int b) honest_bids in
  let r = Network.run ctx ~rng ~protocol ~adversary ~inputs () in
  match r.Network.outputs with
  | (_, Msg.List vals) :: _ ->
      Array.of_list (List.map (function Msg.Int v -> v | _ -> 0) vals)
  | _ -> Array.make n 0

let winner bids =
  let best = ref 0 in
  Array.iteri (fun i b -> if b > bids.(!best) then best := i) bids;
  !best

let () =
  let honest_bids = [| 9; 4; 12; 7; 3 |] in
  Format.printf "sealed bids: %s  (P%d holds the honest maximum)@."
    (String.concat " " (Array.to_list (Array.map string_of_int honest_bids)))
    2;

  let naive = Sb_protocols.Multi.wrap ~bits Sb_protocols.Naive.sequential in
  let announced = run_auction naive snipe_adversary honest_bids in
  Format.printf "@.naive sequential broadcast + sniper:@.";
  Format.printf "  announced bids: %s -> winner P%d (the sniper, bidding max+1)@."
    (String.concat " " (Array.to_list (Array.map string_of_int announced)))
    (winner announced);

  let gennaro = Sb_protocols.Multi.wrap ~bits Sb_protocols.Gennaro.protocol in
  (* The same sniping idea against Gennaro: all the rushing exposes is
     hiding commitments, so the best a corrupted bidder can do is an
     input-independent bid; here it runs the protocol honestly on its
     own (losing) bid. *)
  let semi = Core.Adversaries.semi_honest gennaro ~corrupt:[ sniper ] in
  let announced' = run_auction gennaro semi honest_bids in
  Format.printf "@.gennaro (4-bit, all bits committed before any reveal):@.";
  Format.printf "  announced bids: %s -> winner P%d (the honest maximum)@."
    (String.concat " " (Array.to_list (Array.map string_of_int announced')))
    (winner announced');

  (* Aggregate: how often does the last bidder win? *)
  let trials = 300 in
  let wins protocol adversary =
    let rng = Sb_util.Rng.create 5 in
    let w = ref 0 in
    for _ = 1 to trials do
      let bids = Array.init n (fun _ -> Sb_util.Rng.int rng ((1 lsl bits) - 1)) in
      let announced = run_auction protocol adversary bids in
      ignore (Sb_util.Rng.int rng 2);
      if winner announced = sniper then incr w
    done;
    float_of_int !w /. float_of_int trials
  in
  Format.printf "@.Pr[last bidder wins] over %d random auctions:@." trials;
  Format.printf "  naive + sniper   : %.2f@." (wins naive snipe_adversary);
  Format.printf "  gennaro + sniper code (commitments only to copy): %.2f (fair share is %.2f)@."
    (wins gennaro semi)
    (1.0 /. float_of_int n)
