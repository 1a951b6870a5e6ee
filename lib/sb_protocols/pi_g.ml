open Sb_sim

let protocol =
  {
    Protocol.name = "pi-g";
    rounds = (fun _ -> 1);
    make_functionality = Some Theta.make;
    make_party =
      (fun _ ~rng:_ ~id ~input ->
        let result = ref Msg.Unit in
        let step ~round ~inbox ~out =
          Inbox.iter
            (fun (e : Envelope.t) ->
              match e.Envelope.body with
              | Msg.Tag (t, m) when String.equal t Theta.output_tag -> result := m
              | _ -> ())
            inbox;
          if round = 0 then
            (* Honest parties always set the auxiliary bit to 0. *)
            Outbox.push out
              (Envelope.to_func ~src:id (Msg.Tag (Theta.input_tag, Msg.List [ input; Msg.Bit false ])))
        in
        { Party.step; output = (fun () -> !result) });
  }
