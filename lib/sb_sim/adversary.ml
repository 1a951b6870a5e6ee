type view = {
  round : int;
  delivered : Envelope.t list Lazy.t;
  rushed : Envelope.t list Lazy.t;
}

type strategy = {
  act : view -> Envelope.t list;
  adv_output : unit -> Msg.t;
}

type t = {
  name : string;
  choose_corrupt : Ctx.t -> rng:Sb_util.Rng.t -> int list;
  init :
    Ctx.t ->
    rng:Sb_util.Rng.t ->
    corrupted:int list ->
    inputs:(int * Msg.t) list ->
    aux:Msg.t ->
    strategy;
}

let passive (_p : Protocol.t) =
  {
    name = "passive";
    choose_corrupt = (fun _ ~rng:_ -> []);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        { act = (fun _ -> []); adv_output = (fun () -> Msg.Unit) });
  }

(* Run the real protocol code inside the adversary for each corrupted
   party, feeding each its own deliveries. Shared by [semi_honest] and
   [substitute_inputs]. *)
let honestly_running (p : Protocol.t) ~corrupt ~transform_inputs name =
  {
    name;
    choose_corrupt = (fun ctx ~rng:_ ->
        assert (List.length corrupt <= ctx.Ctx.thresh);
        Sb_util.Subset.of_list corrupt);
    init =
      (fun ctx ~rng ~corrupted ~inputs ~aux:_ ->
        let inputs = transform_inputs rng inputs in
        let parties =
          List.map
            (fun id ->
              let input =
                match List.assoc_opt id inputs with
                | Some m -> m
                | None -> invalid_arg "Adversary: missing corrupted input"
              in
              (id, p.Protocol.make_party ctx ~rng:(Sb_util.Rng.split rng) ~id ~input))
            corrupted
        in
        let out = Outbox.create ?pool:ctx.Ctx.pool () in
        let act view =
          List.iter
            (fun (id, party) ->
              let inbox = List.filter (fun e -> Envelope.delivered_to e id) (Lazy.force view.delivered) in
              party.Party.step ~round:view.round ~inbox:(Inbox.of_list inbox) ~out)
            parties;
          Outbox.drain out
        in
        let adv_output () =
          (* The honest-looking adversary's "output" is its corrupted
             parties' protocol outputs; enough for the Sb tester. *)
          Msg.List (List.map (fun (_, party) -> party.Party.output ()) parties)
        in
        { act; adv_output })
  }

let semi_honest p ~corrupt =
  honestly_running p ~corrupt ~transform_inputs:(fun _ inputs -> inputs) "semi-honest"

let substitute_inputs p ~corrupt ~choose =
  honestly_running p ~corrupt ~transform_inputs:choose "substitute-inputs"
