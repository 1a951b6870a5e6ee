open Sb_sim

let default = Msg.Bit false

let scheme =
  {
    Session.scheme_name = "send-echo";
    rounds = (fun _ -> 2);
    create =
      (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
        assert ((me = sender) = Option.is_some value);
        let n = ctx.Ctx.n in
        let received = ref None in
        (* Echo slots: the seed kept a per-source hashtable with
           Hashtbl.replace last-write-wins semantics. Here a membership
           Bitvec marks who echoed, [first] holds the first echo value
           recorded, and [others] holds only the sources whose last echo
           differs from it, so the state grows with the number of
           distinct echoes, not with n. Absentees fall back to the
           default in [result]. test_broadcast.ml pins this
           differentially against the seed. *)
        let echo_seen = Sb_util.Bitvec.Mut.create n in
        let first = ref None in
        let others = Hashtbl.create 1 in
        let tag = Session.tag sid in
        let send_all out m = Outbox.to_all out ~n ~src:me (Msg.Tag (tag, m)) in
        let record_echo src = function
          | Msg.Tag ("echo", v) ->
              Sb_util.Bitvec.Mut.set echo_seen src true;
              begin
                match !first with
                | None -> first := Some v
                | Some f when Msg.equal v f ->
                    if Hashtbl.length others > 0 then Hashtbl.remove others src
                | Some _ -> Hashtbl.replace others src v
              end
          | _ -> ()
        in
        let step ~round ~inbox ~out =
          match round with
          | 0 -> (
              match value with
              | Some v ->
                  received := Some v;
                  send_all out v
              | None -> ())
          | 1 ->
              (* Echo what the sender said (or the default if silent). *)
              if me <> sender then
                received :=
                  Some
                    (match Inbox.first_from ~tag ~src:sender inbox with
                    | Some m -> m
                    | None -> default);
              let v = Option.value !received ~default in
              send_all out (Msg.Tag ("echo", v))
          | 2 -> Inbox.iter_from_parties ~tag record_echo inbox
          | _ -> ()
        in
        let slot src =
          match !first with
          | Some f when Sb_util.Bitvec.Mut.get echo_seen src ->
              if Hashtbl.length others = 0 then f
              else Option.value (Hashtbl.find_opt others src) ~default:f
          | _ -> default
        in
        (* Majority over all n echo slots, absentees counted as default.
           When every slot holds one value (the honest case) that value
           wins, which the table below would also return as its last
           write; only contested slots pay for serializing and hashing. *)
        let result () =
          let last = slot (n - 1) in
          let rec uniform src = src = n - 1 || (Msg.equal (slot src) last && uniform (src + 1)) in
          if uniform 0 then last
          else begin
            let counts = Hashtbl.create 8 in
            for src = 0 to n - 1 do
              let v = slot src in
              let key = Msg.serialize v in
              let c = match Hashtbl.find_opt counts key with Some (c, _) -> c | None -> 0 in
              Hashtbl.replace counts key (c + 1, v)
            done;
            let best = ref (0, default) in
            Hashtbl.iter (fun _ (c, v) -> if c > fst !best then best := (c, v)) counts;
            snd !best
          end
        in
        { Session.step; result });
  }
