open Sb_sim

let instance_tag j = "inst:" ^ string_of_int j

let wrap ~bits (base : Protocol.t) =
  if bits < 1 || bits > 30 then invalid_arg "Multi.wrap: bits out of range";
  if base.Protocol.make_functionality <> None then
    invalid_arg "Multi.wrap: base protocol uses a functionality";
  let unwrap_inbox j inbox =
    Inbox.of_list
      (List.filter_map
         (fun (e : Envelope.t) ->
           match e.Envelope.body with
           | Msg.Tag (t, body) when String.equal t (instance_tag j) ->
               Some { e with Envelope.body = body }
           | _ -> None)
         (Inbox.to_list inbox))
  in
  {
    Protocol.name = Printf.sprintf "%s-x%d" base.Protocol.name bits;
    rounds = base.Protocol.rounds;
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input ->
        let value = Msg.to_int_exn input in
        if value < 0 || value >= 1 lsl bits then
          invalid_arg "Multi.wrap: input out of range";
        let instances =
          Array.init bits (fun j ->
              base.Protocol.make_party ctx ~rng:(Sb_util.Rng.split rng) ~id
                ~input:(Msg.Bit ((value lsr j) land 1 = 1)))
        in
        (* Each instance appends, then its sends get its tag. *)
        let step ~round ~inbox ~out =
          Array.iteri
            (fun j (inst : Party.t) ->
              let from = Outbox.length out in
              inst.Party.step ~round ~inbox:(unwrap_inbox j inbox) ~out;
              Outbox.retag out ~from (instance_tag j))
            instances
        in
        let output () =
          (* Reassemble per-party integers from the per-bit announced
             vectors; a malformed instance output contributes 0s. *)
          let vectors =
            Array.map
              (fun (inst : Party.t) ->
                match inst.Party.output () with
                | Msg.List l when List.length l = ctx.Ctx.n ->
                    Array.of_list
                      (List.map (function Msg.Bit b -> b | _ -> false) l)
                | _ -> Array.make ctx.Ctx.n false)
              instances
          in
          Msg.List
            (List.init ctx.Ctx.n (fun p ->
                 let v = ref 0 in
                 for j = bits - 1 downto 0 do
                   v := (!v lsl 1) lor (if vectors.(j).(p) then 1 else 0)
                 done;
                 Msg.Int !v))
        in
        { Party.step; output });
  }
