open Sb_sim
open Sb_util

type property = Agreement | Validity | Unforgeability

let property_name = function
  | Agreement -> "agreement"
  | Validity -> "validity"
  | Unforgeability -> "unforgeability"

type witness = {
  w_property : property;
  w_sender : int;
  w_value : Msg.t;
  w_faulty : Subset.t;
  w_decisions : Exec.decision list;
}

type verdict = Holds | Violated of witness | Inconclusive

let verdict_name = function
  | Holds -> "pass"
  | Violated _ -> "violated"
  | Inconclusive -> "inconclusive"

type stats = { explored : int; memo_hits : int; terminals : int; configs : int }

type result = {
  protocol : string;
  n : int;
  t : int;
  max_states : int;
  capped : bool;
  agreement : verdict;
  validity : verdict;
  unforgeability : verdict;
  stats : stats;
}

let max_n = 5

let schemes =
  List.map
    (fun (s : Sb_broadcast.Session.scheme) -> (s.Sb_broadcast.Session.scheme_name, s))
    [
      Sb_broadcast.Send_echo.scheme;
      Sb_broadcast.Dolev_strong.scheme;
      Sb_broadcast.Eig.scheme;
      Sb_broadcast.Bracha.scheme;
      Sb_broadcast.Phase_king.scheme;
    ]

let find_scheme name =
  let bare =
    let prefix = "concurrent-" in
    if String.starts_with ~prefix name then
      String.sub name (String.length prefix) (String.length name - String.length prefix)
    else name
  in
  List.assoc_opt bare schemes

(* Registered on first use, not at module init, so that the report of
   a binary that links the checker but never runs it (simbcast bench)
   lists no check.* counters. *)
let count name by = Sb_obs.Metrics.incr ~by (Sb_obs.Metrics.counter name)

(* --- the per-round decision alphabet -------------------------------- *)

(* Whether party [p] has any distinct-endpoint point-to-point traffic
   in the pending queue — the only envelopes its omission/delay
   choices can touch. *)
let has_p2p out p =
  List.exists
    (fun (e : Envelope.t) ->
      match (Envelope.src_party e, Envelope.dst_party e) with
      | Some s, Some d -> s = p && d <> p
      | _ -> false)
    out

(* Per-party action menu, deterministic order: healthy (None), crash,
   then — only when the party actually has traffic this round — the
   all-or-nothing round omission and the one-round delay. *)
let actions_for out p =
  [ None; Some Exec.Crash ]
  @ (if has_p2p out p then [ Some Exec.Omit; Some Exec.Delay ] else [])

(* Cartesian product over the still-alive faulty parties, ascending by
   party id; each choice vector flattens to one round decision. *)
let decisions_for (config : Exec.config) node =
  let out = Exec.outgoing node in
  let alive = List.filter (fun p -> not (Exec.crashed node p)) config.Exec.faulty in
  List.fold_right
    (fun p rest ->
      List.concat_map
        (fun choice ->
          List.map
            (fun d -> match choice with None -> d | Some a -> (p, a) :: d)
            rest)
        (actions_for out p))
    alive [ [] ]

(* --- terminal evaluation -------------------------------------------- *)

let violated_at ~default (config : Exec.config) results property =
  let n = config.Exec.ctx.Ctx.n in
  let honest = Subset.complement n config.Exec.faulty in
  let r i = results.(i) in
  match property with
  | Agreement -> (
      match honest with
      | [] -> false
      | h :: rest -> not (List.for_all (fun i -> Msg.equal (r i) (r h)) rest))
  | Validity ->
      (not (Subset.mem config.Exec.sender config.Exec.faulty))
      && not (List.for_all (fun i -> Msg.equal (r i) config.Exec.value) honest)
  | Unforgeability ->
      not
        (List.for_all
           (fun i -> Msg.equal (r i) config.Exec.value || Msg.equal (r i) default)
           honest)

(* --- counterexample minimization ------------------------------------ *)

let pad_to total decisions =
  decisions @ List.init (max 0 (total - List.length decisions)) (fun _ -> [])

let still_violates ~default (config : Exec.config) property decisions =
  let total = Exec.total_rounds config in
  match (Exec.replay config (pad_to total decisions)).Exec.status with
  | Exec.Terminal results -> violated_at ~default config results property
  | Exec.Mid _ -> assert false

(* Greedy shrink: repeatedly drop whole (party, action) entries,
   round-major, until a fixpoint. Every candidate is re-verified by a
   full replay, so the result is a genuine (locally minimal) violation
   schedule. *)
let minimize ~default config property decisions =
  let drop_entry current =
    let candidates =
      List.concat
        (List.mapi
           (fun r d ->
             List.mapi
               (fun k _ ->
                 List.mapi
                   (fun r' d' ->
                     if r' = r then List.filteri (fun k' _ -> k' <> k) d' else d')
                   current)
               d)
           current)
    in
    List.find_opt (still_violates ~default config property) candidates
    |> Option.value ~default:current
  in
  let rec fix current =
    let next = drop_entry current in
    if next = current then current else fix next
  in
  let minimal = fix decisions in
  (* Trim trailing healthy rounds for a compact printable schedule. *)
  let rec trim = function
    | [] -> []
    | d :: rest -> ( match trim rest with [] when d = [] -> [] | t -> d :: t)
  in
  trim minimal

(* --- the driver ------------------------------------------------------ *)

let check ?(max_states = 200_000) ?(default = Msg.Bit false) ?observe ~scheme ctx =
  let n = ctx.Ctx.n and t = ctx.Ctx.thresh in
  if n > max_n then
    invalid_arg (Printf.sprintf "Sb_check.Checker.check: n = %d exceeds max_n = %d" n max_n);
  let explored = ref 0
  and memo_hits = ref 0
  and terminals = ref 0
  and configs = ref 0 in
  let capped = ref false in
  let found : (property * witness option ref) list =
    [ (Agreement, ref None); (Validity, ref None); (Unforgeability, ref None) ]
  in
  let all_violated () = List.for_all (fun (_, w) -> !w <> None) found in
  let stopped () = !capped || all_violated () in
  let explore (config : Exec.config) =
    incr configs;
    let visited = Hashtbl.create 1024 in
    let seen pending digest status =
      Option.iter (fun f -> f config (Exec.path pending) digest status) observe
    in
    (* Depth-first from the parent: a successor is digested before it
       is stepped, and only a memo miss is expanded. *)
    let rec visit pending =
      let digest = Exec.digest pending in
      if Hashtbl.mem visited digest then begin
        incr memo_hits;
        seen pending digest None
      end
      else begin
        Hashtbl.add visited digest ();
        incr explored;
        if !explored >= max_states then capped := true;
        match Exec.expand pending with
        | Exec.Done results ->
            incr terminals;
            seen pending digest (Some (Exec.Terminal results));
            List.iter
              (fun (property, w) ->
                if !w = None && violated_at ~default config results property then
                  w :=
                    Some
                      {
                        w_property = property;
                        w_sender = config.Exec.sender;
                        w_value = config.Exec.value;
                        w_faulty = config.Exec.faulty;
                        w_decisions = Exec.path pending;
                      })
              found
        | Exec.Open node ->
            seen pending digest (Some (Exec.Mid (Exec.outgoing node)));
            List.iter
              (fun d -> if not (stopped ()) then visit (Exec.successor node d))
              (decisions_for config node);
            Exec.release node
      end
    in
    visit (Exec.root config)
  in
  List.iter
    (fun faulty ->
      List.iter
        (fun sender ->
          List.iter
            (fun value ->
              if not (stopped ()) then
                explore { Exec.ctx; scheme; sender; value; faulty })
            [ Msg.Bit false; Msg.Bit true ])
        (List.init n Fun.id))
    (Subset.all_up_to n t);
  let finish (_, w) =
    match !w with
    | None -> if !capped then Inconclusive else Holds
    | Some witness ->
        let config =
          {
            Exec.ctx;
            scheme;
            sender = witness.w_sender;
            value = witness.w_value;
            faulty = witness.w_faulty;
          }
        in
        Violated
          {
            witness with
            w_decisions = minimize ~default config witness.w_property witness.w_decisions;
          }
  in
  let verdicts = List.map finish found in
  let violations =
    List.length (List.filter (function Violated _ -> true | _ -> false) verdicts)
  in
  count "check.states" !explored;
  count "check.memo_hits" !memo_hits;
  count "check.terminals" !terminals;
  count "check.violations" violations;
  match verdicts with
  | [ agreement; validity; unforgeability ] ->
      {
        protocol = scheme.Sb_broadcast.Session.scheme_name;
        n;
        t;
        max_states;
        capped = !capped;
        agreement;
        validity;
        unforgeability;
        stats =
          {
            explored = !explored;
            memo_hits = !memo_hits;
            terminals = !terminals;
            configs = !configs;
          };
      }
  | _ -> assert false

(* --- witness rendering ----------------------------------------------- *)

let plan_of_witness w =
  List.concat (List.mapi (fun round d -> Exec.plan_of_decision ~round d) w.w_decisions)

let bit_str = function Msg.Bit b -> (if b then "1" else "0") | m -> Msg.serialize m

let witness_inputs ~n w =
  String.init n (fun i -> if i = w.w_sender then (bit_str w.w_value).[0] else '0')

let pp_witness fmt w =
  let faults =
    match Sb_fault.Plan.to_string (plan_of_witness w) with "" -> "<none>" | s -> s
  in
  Format.fprintf fmt "%s violated: sender %d, value %s, faulty %a, faults %s"
    (property_name w.w_property) w.w_sender (bit_str w.w_value) Subset.pp w.w_faulty
    faults

(* --- report block ----------------------------------------------------- *)

let result_to_json r =
  let open Sb_obs in
  let witness_json w =
    Json.Obj
      [
        ("property", Json.Str (property_name w.w_property));
        ("sender", Json.Int w.w_sender);
        ("value", Json.Str (bit_str w.w_value));
        ("faulty", Json.List (List.map (fun i -> Json.Int i) w.w_faulty));
        ("faults", Json.Str (Sb_fault.Plan.to_string (plan_of_witness w)));
        ("inputs", Json.Str (witness_inputs ~n:r.n w));
      ]
  in
  let counterexamples =
    List.filter_map
      (function Violated w -> Some (witness_json w) | Holds | Inconclusive -> None)
      [ r.agreement; r.validity; r.unforgeability ]
  in
  Json.Obj
    [
      ("protocol", Json.Str r.protocol);
      ("n", Json.Int r.n);
      ("t", Json.Int r.t);
      ("max_states", Json.Int r.max_states);
      ("capped", Json.Bool r.capped);
      ("configs", Json.Int r.stats.configs);
      ("explored", Json.Int r.stats.explored);
      ("memo_hits", Json.Int r.stats.memo_hits);
      ("terminals", Json.Int r.stats.terminals);
      ("agreement", Json.Str (verdict_name r.agreement));
      ("validity", Json.Str (verdict_name r.validity));
      ("unforgeability", Json.Str (verdict_name r.unforgeability));
      ("counterexamples", Json.List counterexamples);
    ]
