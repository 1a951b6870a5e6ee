open Sb_sim

let input_tag = "fsb-input"
let output_tag = "fsb-output"

let protocol =
  {
    Protocol.name = "ideal-fsb";
    rounds = (fun _ -> 1);
    make_functionality =
      Some
        (fun ctx ~rng:_ ->
          Functionality.one_shot ~at_round:0 (fun inbox ->
              let n = ctx.Ctx.n in
              let w = Array.make n false in
              List.iter
                (fun (e : Envelope.t) ->
                  match (Envelope.src_party e, e.Envelope.body) with
                  | Some i, Msg.Tag (t, Msg.Bit b) when String.equal t input_tag -> w.(i) <- b
                  | _ -> () (* malformed or missing input: default 0 *))
                inbox;
              let out = Msg.Tag (output_tag, Msg.bits (Array.to_list w)) in
              List.init n (fun i -> Envelope.from_func ~dst:i out)));
    make_party =
      (fun _ ~rng:_ ~id ~input ->
        let result = ref Msg.Unit in
        let step ~round ~inbox ~out =
          Inbox.iter
            (fun (e : Envelope.t) ->
              match e.Envelope.body with
              | Msg.Tag (t, m) when String.equal t output_tag -> result := m
              | _ -> ())
            inbox;
          if round = 0 then Outbox.push out (Envelope.to_func ~src:id (Msg.Tag (input_tag, input)))
        in
        { Party.step; output = (fun () -> !result) });
  }
