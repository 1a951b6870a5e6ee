open Sb_sim
open Sb_crypto

let rec flog v = if v <= 1 then 0 else 1 + flog (v / 2)

let heap_depth i = flog (i + 1)
let tree_depth n = heap_depth (n - 1)

let tree_base = Vss_session.local_rounds (* = 3: after deal/complain/respond *)
let salt_round ~n = tree_base + tree_depth n
let confirm_round ~n = salt_round ~n + 1
let reveal_round ~n = confirm_round ~n + 1

let knowledge_tag_uncached ~salt ~dealer ~secret ~blind =
  Sha256.digest
    (Printf.sprintf "cr-pok:%s:%d:%d:%d" salt dealer (Field.to_int secret)
       (Field.to_int blind))

(* Every party recomputes every dealer's tag from the same public
   salt and reconstructed opening. *)
let knowledge_tag ~salt ~dealer ~secret ~blind =
  Check_memo.knowledge_tag knowledge_tag_uncached ~salt ~dealer ~secret ~blind

let protocol =
  {
    Protocol.name = "chor-rabin-log";
    rounds = (fun ctx -> reveal_round ~n:ctx.Ctx.n + 1);
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input ->
        let n = ctx.Ctx.n in
        let depth = heap_depth id in
        let max_depth = tree_depth n in
        let sessions =
          Array.init n (fun dealer ->
              let secret =
                if dealer = id then Some (Wire.field_of_bit (Msg.to_bit_exn input)) else None
              in
              Vss_session.create ctx ~rng:(Sb_util.Rng.split rng) ~dealer ~me:id ~secret)
        in
        (* Tree aggregation state: my accumulated XOR of contributions. *)
        let acc = ref (Sb_util.Rng.bytes rng ctx.Ctx.k) in
        let salt = ref "" in
        let confs : (int, string) Hashtbl.t = Hashtbl.create 8 in
        let fold_child src m =
          (* Accept contributions only from my heap children. *)
          if src = (2 * id) + 1 || src = (2 * id) + 2 then
            match m with
            | Msg.Str s when String.length s = String.length !acc ->
                acc := Sha256.xor_strings !acc s
            | _ -> ()
        in
        let record_conf src = function
          | Msg.Str c when not (Hashtbl.mem confs src) -> Hashtbl.replace confs src c
          | _ -> ()
        in
        let vss_step ~round ~inbox =
          if round <= Vss_session.local_rounds then
            List.concat (List.init n (fun d -> Vss_session.step sessions.(d) ~round ~inbox))
          else []
        in
        let step ~round ~inbox =
          let msgs = vss_step ~round ~inbox in
          let tree_round = round - tree_base in
          let extra =
            if tree_round >= 0 && tree_round <= max_depth then begin
              Envelope.iter_from_parties ~tag:"cr-tree" fold_child inbox;
              if tree_round = max_depth - depth && id <> 0 then
                (* My slot: pass the accumulated value to my parent. *)
                [ Envelope.make ~src:id ~dst:((id - 1) / 2) (Msg.Tag ("cr-tree", Msg.Str !acc)) ]
              else if tree_round = max_depth && id = 0 then begin
                salt := !acc;
                [ Envelope.broadcast ~src:0 (Msg.Tag ("cr-salt", Msg.Str !salt)) ]
              end
              else []
            end
            else if round = confirm_round ~n then begin
              (match Envelope.first_from ~tag:"cr-salt" ~src:0 inbox with
              | Some (Msg.Str s) -> salt := s
              | Some _ | None -> if id <> 0 then salt := "");
              match Vss_session.dealer_opening sessions.(id) with
              | Some (secret, blind) ->
                  [
                    Envelope.broadcast ~src:id
                      (Msg.Tag
                         ("cr-conf", Msg.Str (knowledge_tag ~salt:!salt ~dealer:id ~secret ~blind)));
                  ]
              | None -> []
            end
            else if round = reveal_round ~n then begin
              Envelope.iter_from_parties ~tag:"cr-conf" record_conf inbox;
              List.concat (List.init n (fun d -> Vss_session.reveal_msgs sessions.(d)))
            end
            else if round = reveal_round ~n + 1 then begin
              Array.iter (fun s -> Vss_session.collect_reveals s inbox) sessions;
              []
            end
            else []
          in
          msgs @ extra
        in
        let output () =
          Msg.bits
            (List.init n (fun d ->
                 match (Vss_session.secret sessions.(d), Vss_session.blind sessions.(d)) with
                 | Some s, Some b ->
                     let expected = knowledge_tag ~salt:!salt ~dealer:d ~secret:s ~blind:b in
                     let confirmed =
                       match Hashtbl.find_opt confs d with
                       | Some c -> String.equal c expected
                       | None -> false
                     in
                     confirmed && Wire.bit_of_field s
                 | _ -> false))
        in
        { Party.step; output });
  }
