open Sb_sim

let value_tag = "naive-value"

(* Shared party logic: broadcast my bit at [my_round id]; record every
   first broadcast from each party; announce with default 0. *)
let make ~name ~rounds ~my_round =
  {
    Protocol.name;
    rounds;
    make_functionality = None;
    make_party =
      (fun ctx ~rng:_ ~id ~input ->
        let n = ctx.Ctx.n in
        let heard : Msg.t option array = Array.make n None in
        let hear src m = if heard.(src) = None then heard.(src) <- Some m in
        let step ~round ~inbox ~out =
          Inbox.iter_from_parties ~tag:value_tag hear inbox;
          if round = my_round ctx id then
            Outbox.push out (Envelope.broadcast ~src:id (Msg.Tag (value_tag, input)))
        in
        let output () =
          Msg.bits
            (List.init n (fun j ->
                 match heard.(j) with Some (Msg.Bit b) -> b | Some _ | None -> false))
        in
        { Party.step; output });
  }

let sequential =
  make ~name:"naive-sequential" ~rounds:(fun ctx -> ctx.Ctx.n) ~my_round:(fun _ id -> id)

let concurrent = make ~name:"naive-concurrent" ~rounds:(fun _ -> 1) ~my_round:(fun _ _ -> 0)
