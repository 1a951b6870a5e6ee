open Sb_sim

let default = Msg.Bit false

let encode_pair (path, v) =
  Msg.List [ Msg.List (List.map (fun i -> Msg.Int i) path); v ]

let decode_pair = function
  | Msg.List [ Msg.List path; v ] ->
      let ints =
        List.filter_map (function Msg.Int i -> Some i | _ -> None) path
      in
      if List.length ints = List.length path then Some (ints, v) else None
  | _ -> None

let distinct_slow l = List.length (List.sort_uniq Int.compare l) = List.length l

(* Distinctness of a path's party indices, via the session's scratch
   membership vector (marked bits are cleared again before returning,
   so a check costs O(path), not O(n)). Any out-of-range index
   (adversary-supplied paths are unconstrained) falls back to the
   seed's sort_uniq check over the whole list, so acceptance decisions
   are bit-for-bit those of the seed (pinned differentially in
   test_broadcast.ml). *)
let distinct scratch ~n l =
  let rec go = function
    | [] -> Some true
    | i :: rest ->
        if i < 0 || i >= n then None
        else if Sb_util.Bitvec.Mut.get scratch i then Some false
        else begin
          Sb_util.Bitvec.Mut.set scratch i true;
          go rest
        end
  in
  let r = go l in
  List.iter (fun i -> if i >= 0 && i < n then Sb_util.Bitvec.Mut.set scratch i false) l;
  match r with Some b -> b | None -> distinct_slow l

let scheme =
  {
    Session.scheme_name = "eig";
    rounds = (fun ctx -> ctx.Ctx.thresh + 1);
    create =
      (fun ctx ~rng:_ ~sid ~sender ~me ~value ->
        assert ((me = sender) = Option.is_some value);
        let n = ctx.Ctx.n in
        let t = ctx.Ctx.thresh in
        let tree : (int list, Msg.t) Hashtbl.t = Hashtbl.create 64 in
        let last_level : (int list * Msg.t) list ref = ref [] in
        let scratch = Sb_util.Bitvec.Mut.create n in
        let tag = Session.tag sid in
        (* Only a party-sent envelope can pass the last-hop check
           below, so the scan's party-only filter drops nothing the
           check would accept. *)
        let store ~round inbox =
          Envelope.iter_from_parties ~tag
            (fun src m ->
              match Msg.to_list_exn m with
              | pairs ->
                  List.iter
                    (fun pair ->
                      match decode_pair pair with
                      | Some (path, v)
                        when List.length path = round
                             && distinct scratch ~n path
                             && (match path with p0 :: _ -> p0 = sender | [] -> false)
                             && (match List.rev path with last :: _ -> last = src | [] -> false)
                             && not (Hashtbl.mem tree path) ->
                          Hashtbl.replace tree path v;
                          last_level := (path, v) :: !last_level
                      | _ -> ())
                    pairs
              | exception Invalid_argument _ -> ())
            inbox
        in
        let broadcast_pairs pairs =
          if pairs = [] then []
          else Ctx.to_all ctx ~src:me (Msg.Tag (tag, Msg.List (List.map encode_pair pairs)))
        in
        let step ~round ~inbox =
          last_level := [];
          store ~round inbox;
          if round = 0 then (
            match value with
            | Some v ->
                Hashtbl.replace tree [ sender ] v;
                broadcast_pairs [ ([ sender ], v) ]
            | None -> [])
          else if round <= t then
            (* Relay every level-[round] report not already mentioning me. *)
            broadcast_pairs
              (List.filter_map
                 (fun (path, v) ->
                   if List.mem me path then None else Some (path @ [ me ], v))
                 !last_level)
          else []
        in
        let result () =
          let rec resolve path =
            if List.length path = t + 1 then
              Option.value (Hashtbl.find_opt tree path) ~default
            else begin
              let children =
                List.filter_map
                  (fun j -> if List.mem j path then None else Some (resolve (path @ [ j ])))
                  (List.init n Fun.id)
              in
              (* Strict majority of children, else default. *)
              let counts = Hashtbl.create 8 in
              List.iter
                (fun v ->
                  let key = Msg.serialize v in
                  let c = match Hashtbl.find_opt counts key with Some (c, _) -> c | None -> 0 in
                  Hashtbl.replace counts key (c + 1, v))
                children;
              let best = ref (0, default) in
              Hashtbl.iter (fun _ (c, v) -> if c > fst !best then best := (c, v)) counts;
              if 2 * fst !best > List.length children then snd !best else default
            end
          in
          if t = 0 then Option.value (Hashtbl.find_opt tree [ sender ]) ~default
          else resolve [ sender ]
        in
        { Session.step; result });
  }
