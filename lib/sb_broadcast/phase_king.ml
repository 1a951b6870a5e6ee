open Sb_sim

let default = Msg.Bit false

(* Local schedule: round 0 the sender sends; round 1+2p all-to-all
   exchange of phase p; round 2+2p the king (party p) speaks; the
   king's value is processed on receipt, i.e. in the next step. Total
   send rounds: 2t + 2; the session is read after round 2t + 3. *)
let scheme =
  {
    Session.scheme_name = "phase-king";
    rounds = (fun ctx -> (2 * ctx.Ctx.thresh) + 3);
    create =
      (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
        assert ((me = sender) = Option.is_some value);
        let n = ctx.Ctx.n in
        let t = ctx.Ctx.thresh in
        let current = ref (Option.value value ~default) in
        let strong = ref false in
        let tag = Session.tag sid in
        let send_all m = Ctx.to_all ctx ~src:me (Msg.Tag (tag, m)) in
        (* One pass over an exchange round's pk-val payloads: their
           count, the last one, and whether each equals the one before
           (so all are equal). Built once per session, so the pass
           allocates nothing. *)
        let count = ref 0 and last = ref default and uniform = ref true in
        let scan_val _src = function
          | Msg.Tag ("pk-val", v) ->
              if !count > 0 && not (Msg.equal v !last) then uniform := false;
              last := v;
              incr count
          | _ -> ()
        in
        (* The exact tally: Hashtbl iteration order breaks ties between
           equally frequent values, so contested rounds keep it. *)
        let contested_majority inbox =
          let counts = Hashtbl.create 8 in
          Envelope.iter_from_parties ~tag
            (fun _ m ->
              match m with
              | Msg.Tag ("pk-val", v) ->
                  let key = Msg.serialize v in
                  let c = match Hashtbl.find_opt counts key with Some (c, _) -> c | None -> 0 in
                  Hashtbl.replace counts key (c + 1, v)
              | _ -> ())
            inbox;
          let best = ref (0, default) in
          Hashtbl.iter (fun _ (c, v) -> if c > fst !best then best := (c, v)) counts;
          !best
        in
        let step ~round ~inbox =
          (* 1. Process whatever this round delivered. *)
          if round = 1 && me <> sender then begin
            match Envelope.first_from ~tag ~src:sender inbox with
            | Some (Msg.Tag ("pk-send", v)) -> current := v
            | _ -> current := default
          end;
          if round >= 2 && round mod 2 = 0 then begin
            (* Deliveries of an all-to-all exchange: adopt majority.
               When every payload is one value, the table would hold a
               single key whose value is the last payload seen
               (Hashtbl.replace) with count [!count], or nothing, giving
               (0, default); that is read off the scan directly. *)
            count := 0;
            last := default;
            uniform := true;
            Envelope.iter_from_parties ~tag scan_val inbox;
            let c, v = if !uniform then (!count, !last) else contested_majority inbox in
            current := v;
            strong := 2 * c > n + (2 * t)
          end;
          if round >= 3 && round mod 2 = 1 then begin
            (* Delivery of phase ((round-3)/2)'s king value. *)
            let king = (round - 3) / 2 in
            match Envelope.first_from ~tag ~src:king inbox with
            | Some (Msg.Tag ("pk-king", v)) -> if not !strong then current := v
            | _ -> if not !strong then current := default
          end;
          (* 2. Send this round's traffic. *)
          if round = 0 then (
            match value with
            | Some v -> send_all (Msg.Tag ("pk-send", v))
            | None -> [])
          else if round >= 1 && round <= (2 * t) + 1 && round mod 2 = 1 then
            (* Phase (round-1)/2 all-to-all exchange. *)
            send_all (Msg.Tag ("pk-val", !current))
          else if round >= 2 && round <= (2 * t) + 2 && round mod 2 = 0 && me = (round - 2) / 2
          then
            (* I am this phase's king. *)
            send_all (Msg.Tag ("pk-king", !current))
          else []
        in
        let result () = !current in
        { Session.step; result });
  }
