open Sb_sim

let reveal_round = Vss_session.local_rounds (* judgment step doubles as reveal *)

let protocol =
  {
    Protocol.name = "gennaro-constant";
    rounds = (fun _ -> reveal_round + 1);
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input ->
        let n = ctx.Ctx.n in
        let sessions =
          Array.init n (fun dealer ->
              let secret =
                if dealer = id then Some (Wire.field_of_bit (Msg.to_bit_exn input)) else None
              in
              Vss_session.create ctx ~rng:(Sb_util.Rng.split rng) ~dealer ~me:id ~secret)
        in
        let step ~round ~inbox ~out =
          Array.iter (fun s -> Vss_session.step s ~round ~inbox ~out) sessions;
          if round = reveal_round then
            (* Judgments just ran (local round 3); open everything. *)
            Array.iter (fun s -> Vss_session.reveal_msgs s ~out) sessions
          else if round = reveal_round + 1 then
            Array.iter (fun s -> Vss_session.collect_reveals s inbox) sessions
        in
        let output () =
          Msg.bits
            (List.init n (fun d ->
                 match Vss_session.secret sessions.(d) with
                 | Some s -> Wire.bit_of_field s
                 | None -> false))
        in
        { Party.step; output });
  }
