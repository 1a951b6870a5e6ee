(* Distributed coin flipping — the application that motivated the
   original definitions ([8] and [12] both implicitly assume uniform
   inputs because of it).

   The collective coin is the XOR of all announced bits. If broadcast
   is merely parallel, the last (rushing) sender fixes the coin: it
   announces the XOR of everything it heard, forcing the total to 0.
   Under a simultaneous broadcast protocol the same adversary has no
   leverage and the coin stays fair.

   This is also a nice view of Lemma 6.4: Π_G under the adversary A*
   produces a coin that is ALWAYS 0 even though the protocol is
   G-independent — per-party uniformity of announced bits is simply
   too weak a guarantee for coin flipping.

   Run with:  dune exec examples/coin_flipping.exe *)

open Sb_sim

let n = 5
let trials = 4000

(* The coin-fixing adversary for the naive sequential protocol: the
   last sender announces the XOR of the n-1 values it heard, making
   the global XOR 0. *)
let coin_fixer =
  {
    Adversary.name = "coin-fixer";
    choose_corrupt = (fun _ ~rng:_ -> [ n - 1 ]);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let acc = ref false in
        (* Rushing shows each broadcast twice (same-round and on
           delivery); XOR each sender's value exactly once. *)
        let seen = Hashtbl.create 8 in
        let act (view : Adversary.view) =
          List.iter
            (fun (e : Envelope.t) ->
              match (e.Envelope.src, e.Envelope.body) with
              | Envelope.Party p, Msg.Tag ("naive-value", Msg.Bit b)
                when p <> n - 1 && not (Hashtbl.mem seen p) ->
                  Hashtbl.replace seen p ();
                  if b then acc := not !acc
              | _ -> ())
            (Lazy.force view.Adversary.delivered @ Lazy.force view.Adversary.rushed);
          if view.Adversary.round = n - 1 then
            [ Envelope.broadcast ~src:(n - 1) (Msg.Tag ("naive-value", Msg.Bit !acc)) ]
          else []
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

let coin_stats protocol adversary =
  let setup = Core.Setup.{ default with samples = trials; n; thresh = 2 } in
  let zeros = ref 0 and total = ref 0 in
  let rng = Sb_util.Rng.create 99 in
  Core.Announced.sample setup ~protocol ~adversary ~dist:(Sb_dist.Dist.uniform n) rng (fun r ->
      incr total;
      if not (Sb_util.Bitvec.parity r.Core.Announced.w) then incr zeros);
  float_of_int !zeros /. float_of_int !total

let () =
  let table =
    Sb_util.Tabular.create ~title:"coin flipping: Pr[coin = 0] over uniform inputs"
      ~columns:[ "protocol"; "adversary"; "Pr[coin = 0]"; "fair?" ]
  in
  let row name p adv =
    let p0 = coin_stats p adv in
    Sb_util.Tabular.add_row table
      [
        name;
        adv.Adversary.name;
        Printf.sprintf "%.3f" p0;
        (if Float.abs (p0 -. 0.5) < 0.05 then "fair" else "BIASED");
      ]
  in
  row "naive-sequential" Sb_protocols.Naive.sequential (Adversary.passive Sb_protocols.Naive.sequential);
  row "naive-sequential" Sb_protocols.Naive.sequential coin_fixer;
  row "pi-g (Lemma 6.4)" Sb_protocols.Pi_g.protocol (Core.Adversaries.a_star ~corrupt:(n - 2, n - 1));
  row "gennaro-constant" Sb_protocols.Gennaro.protocol
    (Core.Adversaries.semi_honest Sb_protocols.Gennaro.protocol ~corrupt:[ n - 2; n - 1 ]);
  row "cgma-vss" Sb_protocols.Cgma.protocol
    (Core.Adversaries.semi_honest Sb_protocols.Cgma.protocol ~corrupt:[ n - 2; n - 1 ]);
  Sb_util.Tabular.print table;
  print_endline
    "The pi-g row is Lemma 6.4 in action: a protocol deemed secure by the\n\
     G definition yields a coin an adversary fixes with certainty.";
  print_endline
    "(A fair coin from simultaneous broadcast needs honest inputs to be\n\
     uniform; the VSS-based rows keep it fair against rushing corruption.)"
