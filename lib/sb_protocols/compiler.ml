open Sb_sim

type 'state program = {
  epochs : int;
  init : n:int -> id:int -> input:Msg.t -> 'state;
  contribute : 'state -> epoch:int -> bool;
  observe : 'state -> epoch:int -> Sb_util.Bitvec.t -> 'state;
  finish : 'state -> Msg.t;
}

let epoch_tag j = "epoch:" ^ string_of_int j

let wrap_env j (e : Envelope.t) =
  { e with Envelope.body = Msg.Tag (epoch_tag j, e.Envelope.body) }

let unwrap_inbox j inbox =
  List.filter_map
    (fun (e : Envelope.t) ->
      match e.Envelope.body with
      | Msg.Tag (t, body) when String.equal t (epoch_tag j) ->
          Some { e with Envelope.body = body }
      | _ -> None)
    inbox

let compile program ~using:(base : Protocol.t) =
  let rounds ctx =
    let r = base.Protocol.rounds ctx in
    (program.epochs * (r + 1)) - 1
  in
  let make_functionality =
    match base.Protocol.make_functionality with
    | None -> None
    | Some make ->
        Some
          (fun ctx ~rng ->
            let base_rounds = base.Protocol.rounds ctx in
            let instances =
              Array.init program.epochs (fun _ -> make ctx ~rng:(Sb_util.Rng.split rng))
            in
            {
              Functionality.f_step =
                (fun ~round ~inbox ->
                  let span = base_rounds + 1 in
                  let epoch = round / span in
                  if epoch >= program.epochs then []
                  else
                    let local = round - (epoch * span) in
                    List.map (wrap_env epoch)
                      (instances.(epoch).Functionality.f_step ~round:local
                         ~inbox:(unwrap_inbox epoch inbox)));
            })
  in
  let make_party ctx ~rng ~id ~input =
    let n = ctx.Ctx.n in
    let base_rounds = base.Protocol.rounds ctx in
    let state = ref (program.init ~n ~id ~input) in
    let current : Party.t option ref = ref None in
    let step ~round ~inbox ~out =
      let span = base_rounds + 1 in
      let epoch = round / span in
      if epoch < program.epochs then begin
        let local = round - (epoch * span) in
        if local = 0 then begin
          (* New epoch: instantiate the base protocol on this epoch's
             contributed bit. *)
          let bit = program.contribute !state ~epoch in
          current :=
            Some
              (base.Protocol.make_party ctx ~rng:(Sb_util.Rng.split rng) ~id
                 ~input:(Msg.Bit bit))
        end;
        match !current with
        | None -> ()
        | Some party ->
            let sp =
              if Sb_obs.Trace_ctx.enabled () then
                Sb_obs.Trace_ctx.begin_span ~agg:"epoch" ~cat:"phase"
                  ~args:[ ("epoch", string_of_int epoch) ]
                  (Printf.sprintf "epoch %d" epoch)
              else Sb_obs.Trace_ctx.none
            in
            (* The epoch's party appends, then its sends get the epoch
               tag. *)
            let from = Outbox.length out in
            party.Party.step ~round:local
              ~inbox:(Inbox.of_list (unwrap_inbox epoch (Inbox.to_list inbox)))
              ~out;
            Outbox.retag out ~from (epoch_tag epoch);
            Sb_obs.Trace_ctx.end_span sp;
            if local = base_rounds then begin
              (* Epoch complete: read the announced vector. *)
              (match party.Party.output () with
              | Msg.List l when List.length l = n ->
                  let w =
                    Sb_util.Bitvec.init n (fun i ->
                        match List.nth l i with Msg.Bit b -> b | _ -> false)
                  in
                  state := program.observe !state ~epoch w
              | _ -> ());
              current := None
            end
      end
    in
    { Party.step; output = (fun () -> program.finish !state) }
  in
  {
    Protocol.name = Printf.sprintf "compiled-%d-epochs-over-%s" program.epochs base.Protocol.name;
    rounds;
    make_functionality;
    make_party;
  }

let xor_coin_program ~rounds =
  {
    epochs = rounds;
    (* State: my input bit (as seed material) and the coins so far,
       encoded as a bitvector [input; coin_0; ...; coin_{e-1}]. *)
    init =
      (fun ~n:_ ~id:_ ~input ->
        let bit = match input with Msg.Bit b -> b | _ -> false in
        Sb_util.Bitvec.of_bools [| bit |]);
    contribute =
      (fun state ~epoch ->
        (* A deterministic "pseudorandom" contribution: my input bit
           XOR the parity of the coins so far XOR the epoch parity.
           (Real coin-flipping would use a local random tape; for the
           compiler-equivalence tests determinism is the point.) *)
        let coins_parity =
          let acc = ref false in
          for i = 1 to Sb_util.Bitvec.length state - 1 do
            if Sb_util.Bitvec.get state i then acc := not !acc
          done;
          !acc
        in
        Sb_util.Bitvec.get state 0 <> coins_parity <> (epoch mod 2 = 1));
    observe =
      (fun state ~epoch:_ w ->
        let coin = Sb_util.Bitvec.parity w in
        Sb_util.Bitvec.of_bools
          (Array.append (Sb_util.Bitvec.to_bools state) [| coin |]));
    finish =
      (fun state ->
        Msg.List
          (List.init
             (Sb_util.Bitvec.length state - 1)
             (fun i -> Msg.Bit (Sb_util.Bitvec.get state (i + 1)))));
  }
