open Sb_sim
open Sb_crypto

let rounds circuit = 2 + Circuit.layers circuit

(* Lagrange coefficients at 0 for the point set {1, …, n}: the public
   recombination vector of GRR degree reduction (valid for any shared
   polynomial of degree < n, in particular the degree-2t products).
   Served by the shared coefficient cache — one O(n²) computation per
   domain instead of one per party per run. *)
let lambdas n = Lagrange.at_zero n

let encode_pairs tag pairs =
  Msg.Tag (tag, Msg.List (List.map (fun (w, v) -> Msg.List [ Msg.Int w; Msg.Fe v ]) pairs))

let decode_pairs tag inbox =
  List.concat_map
    (fun (e : Envelope.t) ->
      match (Envelope.src_party e, e.Envelope.body) with
      | Some src, Msg.Tag (t, Msg.List l) when String.equal t tag ->
          List.filter_map
            (function Msg.List [ Msg.Int w; Msg.Fe v ] -> Some (src, w, v) | _ -> None)
            l
      | _ -> [])
    (Inbox.to_list inbox)

let protocol ~name ~circuit ~encode ~decode =
  let total_rounds = rounds circuit in
  (* The circuit is immutable once the protocol is built, so every
     derived view is computed here rather than per party step: the
     gates array ([Circuit.gates] reverses a list per call), the mult
     depth, the per-wire reshare layer, the output wires, and the
     per-layer wire tags (identical strings to the old per-envelope
     sprintf, so wire bytes are unchanged). The samplers run one
     [make_party] per party per Monte-Carlo run; these views used to
     be recomputed twice per step. *)
  let n_layers = Circuit.layers circuit in
  let gates = Circuit.gates circuit in
  let nwires = Array.length gates in
  let output_wires = Circuit.outputs circuit in
  let mul_layer_of = Array.init nwires (fun w -> Circuit.mul_layer circuit w) in
  let mul_tag = Array.init (max 1 n_layers) (fun l -> "bgw:mul:" ^ string_of_int l) in
  let make_party (ctx : Ctx.t) ~rng ~id ~input =
    assert (Circuit.n_parties circuit = ctx.Ctx.n);
    assert (2 * ctx.Ctx.thresh < ctx.Ctx.n);
    let n = ctx.Ctx.n in
    let t = ctx.Ctx.thresh in
    let lam = lambdas n in
    (* My circuit inputs, in declaration order. *)
    let my_inputs = encode ~rng ~id input in
    if List.length my_inputs <> Circuit.input_count circuit ~party:id then
      invalid_arg "Bgw.protocol: encode arity mismatch";
    let my_inputs = Array.of_list my_inputs in
    (* Shares I hold: input-wire shares arrive in round 1; mult wires
       resolve as their layer's reshares arrive. *)
    let input_share : Field.t option array = Array.make nwires None in
    let mul_share : Field.t option array = Array.make nwires None in
    (* Collected degree-reduction subshares per mult wire. *)
    let pending : (int, (int * Field.t) list ref) Hashtbl.t = Hashtbl.create 16 in
    (* Output shares received per output wire, per source party. *)
    let out_shares : (int, (int * Field.t) list ref) Hashtbl.t = Hashtbl.create 8 in
    let result = ref Msg.Unit in
    let bucket table w =
      match Hashtbl.find_opt table w with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.replace table w r;
          r
    in
    (* Evaluate every wire whose dependencies are available; returns my
       current share per wire (None where blocked on a mult). *)
    let evaluate () =
      let values : Field.t option array = Array.make nwires None in
      Array.iteri
        (fun w g ->
          let v =
            match g with
            | Circuit.Input _ -> input_share.(w)
            | Circuit.Const v -> Some v (* shared as the constant polynomial *)
            | Circuit.Add (a, b) -> (
                match (values.((a :> int)), values.((b :> int))) with
                | Some x, Some y -> Some (Field.add x y)
                | _ -> None)
            | Circuit.Sub (a, b) -> (
                match (values.((a :> int)), values.((b :> int))) with
                | Some x, Some y -> Some (Field.sub x y)
                | _ -> None)
            | Circuit.Scale (k, a) -> Option.map (Field.mul k) values.((a :> int))
            | Circuit.Mul _ -> mul_share.(w)
          in
          values.(w) <- v)
        gates;
      values
    in
    (* Emit degree-reduction subshares for every layer-[layer] mult
       whose operands are ready. *)
    let reshare_layer ~out layer values =
      let payload_for = Array.make n [] in
      Array.iteri
        (fun w g ->
          match g with
          | Circuit.Mul (a, b) when mul_layer_of.(w) = layer -> (
              match (values.((a :> int)), values.((b :> int))) with
              | Some x, Some y ->
                  let d = Field.mul x y in
                  let shares, _ = Shamir.share rng ~threshold:t ~parties:n ~secret:d in
                  Array.iteri
                    (fun j s ->
                      payload_for.(j) <- (w, s.Shamir.value) :: payload_for.(j))
                    shares
              | _ -> ())
          | _ -> ())
        gates;
      for j = 0 to n - 1 do
        if payload_for.(j) <> [] then
          Outbox.push out (Envelope.make ~src:id ~dst:j (encode_pairs mul_tag.(layer) payload_for.(j)))
      done
    in
    let step ~round ~inbox ~out =
      (* 1. Absorb whatever arrived. *)
      if round = 1 then
        List.iter
          (fun (_, w, v) -> if w < nwires then input_share.(w) <- Some v)
          (decode_pairs "bgw:in" inbox);
      if round >= 2 && round <= n_layers + 1 then begin
        let layer = round - 2 in
        List.iter
          (fun (src, w, v) ->
            let b = bucket pending w in
            if not (List.mem_assoc src !b) then b := (src, v) :: !b)
          (decode_pairs mul_tag.(layer) inbox);
        (* Resolve this layer's mult wires: c = Σ λ_i · subshare_i. *)
        Hashtbl.iter
          (fun w b ->
            if mul_share.(w) = None && List.length !b = n then
              mul_share.(w) <-
                Some
                  (List.fold_left
                     (fun acc (src, v) -> Field.add acc (Field.mul lam.(src) v))
                     Field.zero !b))
          pending
      end;
      if round = total_rounds then begin
        List.iter
          (fun (src, w, v) ->
            let b = bucket out_shares w in
            if not (List.mem_assoc src !b) then b := (src, v) :: !b)
          (decode_pairs "bgw:out" inbox);
        (* Interpolate every output wire. *)
        let outs =
          List.map
            (fun w ->
              let b = bucket out_shares (Circuit.wire_index w) in
              let points =
                List.map (fun (src, v) -> { Shamir.index = src; value = v }) !b
              in
              if List.length points >= t + 1 then Shamir.reconstruct points else Field.zero)
            output_wires
        in
        result := decode outs
      end;
      (* 2. Send this round's traffic. *)
      if round = 0 then begin
        (* Deal shares of my inputs. *)
        let payload_for = Array.make n [] in
        let input_idx = ref 0 in
        Array.iteri
          (fun w g ->
            match g with
            | Circuit.Input (p, _) when p = id ->
                let v = my_inputs.(!input_idx) in
                incr input_idx;
                let shares, _ = Shamir.share rng ~threshold:t ~parties:n ~secret:v in
                Array.iteri
                  (fun j s -> payload_for.(j) <- (w, s.Shamir.value) :: payload_for.(j))
                  shares
            | _ -> ())
          gates;
        for j = 0 to n - 1 do
          if payload_for.(j) <> [] then
            Outbox.push out (Envelope.make ~src:id ~dst:j (encode_pairs "bgw:in" payload_for.(j)))
        done
      end
      else if round >= 1 && round <= n_layers then reshare_layer ~out (round - 1) (evaluate ())
      else if round = total_rounds - 1 then begin
        (* Broadcast my output shares. *)
        let values = evaluate () in
        let pairs =
          List.filter_map
            (fun w ->
              match values.(Circuit.wire_index w) with
              | Some v -> Some (Circuit.wire_index w, v)
              | None -> None)
            output_wires
        in
        if pairs <> [] then Outbox.push out (Envelope.broadcast ~src:id (encode_pairs "bgw:out" pairs))
      end
    in
    { Party.step; output = (fun () -> !result) }
  in
  {
    Protocol.name;
    rounds = (fun _ -> total_rounds);
    make_functionality = None;
    make_party;
  }
