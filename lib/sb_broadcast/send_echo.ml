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
        (* Echo slots, array-backed: the seed kept a per-source
           hashtable with Hashtbl.replace last-write-wins semantics;
           a membership Bitvec plus a value array preserves exactly
           that (last write to a slot wins, absentees fall back to the
           default in [result]) without per-lookup hashing.
           test_broadcast.ml pins this differentially against the
           seed. *)
        let echo_seen = Sb_util.Bitvec.Mut.create n in
        let echo_val = Array.make n default in
        let tag = Session.tag sid in
        let send_all m = Ctx.to_all ctx ~src:me (Msg.Tag (tag, m)) in
        let record_echo src = function
          | Msg.Tag ("echo", v) ->
              Sb_util.Bitvec.Mut.set echo_seen src true;
              echo_val.(src) <- v
          | _ -> ()
        in
        let step ~round ~inbox =
          match round with
          | 0 -> (
              match value with
              | Some v ->
                  received := Some v;
                  send_all v
              | None -> [])
          | 1 ->
              (* Echo what the sender said (or the default if silent). *)
              if me <> sender then
                received :=
                  Some
                    (match Envelope.first_from ~tag ~src:sender inbox with
                    | Some m -> m
                    | None -> default);
              let v = Option.value !received ~default in
              send_all (Msg.Tag ("echo", v))
          | 2 ->
              Envelope.iter_from_parties ~tag record_echo inbox;
              []
          | _ -> []
        in
        let result () =
          (* Majority over all n echo slots, absentees counted as default. *)
          let counts = Hashtbl.create 8 in
          for src = 0 to n - 1 do
            let v = if Sb_util.Bitvec.Mut.get echo_seen src then echo_val.(src) else default in
            let key = Msg.serialize v in
            let c = match Hashtbl.find_opt counts key with Some (c, _) -> c | None -> 0 in
            Hashtbl.replace counts key (c + 1, v)
          done;
          let best = ref (0, default) in
          Hashtbl.iter (fun _ (c, v) -> if c > fst !best then best := (c, v)) counts;
          snd !best
        in
        { Session.step; result });
  }
