open Sb_sim

let phase_len = Vss_session.local_rounds (* deal, complain, respond *)
let phase_base d = d * phase_len
let reveal_round ~n = n * phase_len

let protocol =
  {
    Protocol.name = "cgma-vss";
    (* n dealing phases, the reveal broadcast, and the final delivery
       step the network adds. *)
    rounds = (fun ctx -> reveal_round ~n:ctx.Ctx.n + 1);
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
          let reveal_at = reveal_round ~n in
          (* Feed every session whose phase window covers this round.
             A session's local round r happens at phase_base + r, and
             its judgment step (local 3) coincides with the next
             phase's local 0. *)
          Array.iteri
            (fun dealer s ->
              let local = round - phase_base dealer in
              if local >= 0 && local <= Vss_session.local_rounds then
                Vss_session.step s ~round:local ~inbox ~out)
            sessions;
          if round = reveal_at then Array.iter (fun s -> Vss_session.reveal_msgs s ~out) sessions
          else if round = reveal_at + 1 then
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
