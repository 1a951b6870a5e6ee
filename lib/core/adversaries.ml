open Sb_sim
open Sb_util

let passive =
  {
    Adversary.name = "passive";
    choose_corrupt = (fun _ ~rng:_ -> []);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        { Adversary.act = (fun _ -> []); adv_output = (fun () -> Msg.Unit) });
  }

let semi_honest = Adversary.semi_honest

let substitute_constant p ~corrupt ~value =
  Adversary.substitute_inputs p ~corrupt
    ~choose:(fun _ inputs -> List.map (fun (i, _) -> (i, Msg.Bit value)) inputs)

let substitute_random p ~corrupt =
  Adversary.substitute_inputs p ~corrupt
    ~choose:(fun rng inputs -> List.map (fun (i, _) -> (i, Msg.Bit (Rng.bool rng))) inputs)

let a_star ~corrupt:(i, j) =
  assert (i <> j);
  {
    Adversary.name = "a-star";
    choose_corrupt = (fun _ ~rng:_ -> Subset.of_list [ i; j ]);
    init =
      (fun _ ~rng:_ ~corrupted ~inputs ~aux:_ ->
        let act (view : Adversary.view) =
          if view.Adversary.round <> 0 then []
          else
            List.map
              (fun id ->
                let x = match List.assoc_opt id inputs with Some m -> m | None -> Msg.Bit false in
                (* The real input, but with the auxiliary flag raised. *)
                Envelope.to_func ~src:id
                  (Msg.Tag (Sb_protocols.Theta.input_tag, Msg.List [ x; Msg.Bit true ])))
              corrupted
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

let echo ~mode ~copier ~target =
  let name = Printf.sprintf "echo(%d<-%d)" copier target in
  (match mode with `Sequential -> assert (copier > target) | `Concurrent -> ());
  let value_tag = "naive-value" in
  let payload_of (e : Envelope.t) =
    match e.Envelope.body with
    | Msg.Tag (t, Msg.Bit b) when String.equal t value_tag && e.Envelope.src = Envelope.Party target
      ->
        Some b
    | _ -> None
  in
  {
    Adversary.name = name;
    choose_corrupt = (fun _ ~rng:_ -> [ copier ]);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let heard = ref None in
        let act (view : Adversary.view) =
          (* Record the target's broadcast whether it arrives by normal
             delivery (sequential: an earlier round) or by rushing
             (concurrent: the same round). *)
          List.iter
            (fun e -> match payload_of e with Some b -> heard := Some b | None -> ())
            (Lazy.force view.Adversary.delivered @ Lazy.force view.Adversary.rushed);
          let my_round = match mode with `Sequential -> copier | `Concurrent -> 0 in
          if view.Adversary.round = my_round then
            let b = Option.value !heard ~default:false in
            [ Envelope.broadcast ~src:copier (Msg.Tag (value_tag, Msg.Bit b)) ]
          else []
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

(* Wrap a semi-honest strategy with a post-filter on its outgoing
   envelopes. *)
let filtered base ~name ~filter =
  {
    Adversary.name = name;
    choose_corrupt = base.Adversary.choose_corrupt;
    init =
      (fun ctx ~rng ~corrupted ~inputs ~aux ->
        let s = base.Adversary.init ctx ~rng ~corrupted ~inputs ~aux in
        {
          Adversary.act = (fun view -> filter ctx view (s.Adversary.act view));
          adv_output = s.Adversary.adv_output;
        });
  }

let tag_starts_with prefix (e : Envelope.t) =
  match e.Envelope.body with
  | Msg.Tag (t, _) ->
      String.length t >= String.length prefix
      && String.equal (String.sub t 0 (String.length prefix)) prefix
  | _ -> false

let reveal_withhold p ~corrupt ~reveal_round ~reveal_tag_prefix ~honest_probe =
  let base = Adversary.semi_honest p ~corrupt in
  filtered base ~name:"reveal-withhold"
    ~filter:(fun ctx view out ->
      if view.Adversary.round = reveal_round ctx && honest_probe ctx (Lazy.force view.Adversary.rushed) then
        List.filter (fun e -> not (tag_starts_with reveal_tag_prefix e)) out
      else out)

let probe_commit_open_parity _ctx rushed =
  (* Parse honest "co-open" payloads; XOR the revealed bits. *)
  List.fold_left
    (fun acc (e : Envelope.t) ->
      match e.Envelope.body with
      | Msg.Tag (t, Msg.List [ Msg.Str value; Msg.Str _ ])
        when String.equal t Sb_protocols.Commit_open.open_tag -> (
          match String.split_on_char ':' value with
          | [ "co"; _; "1" ] -> not acc
          | _ -> acc)
      | _ -> acc)
    false rushed

let probe_vss_secret ~dealer _ctx rushed =
  let tag = Printf.sprintf "vss:%d:reveal" dealer in
  let shares =
    List.filter_map
      (fun (e : Envelope.t) ->
        match (Envelope.src_party e, e.Envelope.body) with
        | Some src, Msg.Tag (t, Msg.List [ Msg.Fe value; Msg.Fe blind ]) when String.equal t tag
          ->
            Some { Sb_crypto.Pedersen.index = src; value; blind }
        | _ -> None)
      rushed
  in
  match shares with
  | [] -> false
  | _ ->
      let secret = Sb_crypto.Pedersen.reconstruct shares in
      Sb_crypto.Field.equal secret Sb_crypto.Field.one

let copycat_dealer ~copier ~target =
  {
    Adversary.name = Printf.sprintf "copycat(%d copies %d)" copier target;
    choose_corrupt = (fun _ ~rng:_ -> [ copier ]);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        let comm_tag = Printf.sprintf "vss:%d:comm" target in
        let my_tag = Printf.sprintf "vss:%d:comm" copier in
        let act (view : Adversary.view) =
          if view.Adversary.round <> 0 then []
          else
            List.filter_map
              (fun (e : Envelope.t) ->
                match e.Envelope.body with
                | Msg.Tag (t, payload)
                  when String.equal t comm_tag && e.Envelope.src = Envelope.Party target ->
                    Some (Envelope.broadcast ~src:copier (Msg.Tag (my_tag, payload)))
                | _ -> None)
              (Lazy.force view.Adversary.rushed)
        in
        { Adversary.act; adv_output = (fun () -> Msg.Unit) });
  }

let silent ~corrupt =
  {
    Adversary.name = "silent";
    choose_corrupt = (fun _ ~rng:_ -> Subset.of_list corrupt);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        { Adversary.act = (fun _ -> []); adv_output = (fun () -> Msg.Unit) });
  }
