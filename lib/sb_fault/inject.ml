open Sb_sim

(* Registered on first use, by a compiled interceptor's run with
   metrics on, so a report of a run that executed no fault (the model
   checker's, whose [filter] calls count nothing) lists no fault.*. *)
type meters = {
  crashes : Sb_obs.Metrics.counter;
  drops : Sb_obs.Metrics.counter;
  delayed : Sb_obs.Metrics.counter;
}

let meters =
  Sb_obs.Metrics.on_first_use (fun () ->
      let c = Sb_obs.Metrics.counter in
      { crashes = c "fault.crashes"; drops = c "fault.drops"; delayed = c "fault.delayed" })

(* Group index of [i] under a partition: listed groups get their list
   position, everyone unlisted shares the implicit group -1. *)
let group_of groups i =
  let rec go k = function
    | [] -> -1
    | g :: rest -> if List.mem i g then k else go (k + 1) rest
  in
  go 0 groups

(* Never written in place: [crash_round] is copied before a crash
   lowers an entry; [held] is (due round, newest first), ascending.
   [drops]/[delays] count the faults so far, for [compile]'s metrics. *)
type 'a state = { crash_round : int array; held : (int * 'a list) list; drops : int; delays : int }

let init ~n = { crash_round = Array.make n max_int; held = []; drops = 0; delays = 0 }
let crashed st i = st.crash_round.(i) <> max_int
let held st = List.map (fun (due, l) -> (due, List.rev l)) st.held

let with_crashes plan crash_round =
  List.fold_left
    (fun cr -> function
      | Plan.Crash { party; round } when round < cr.(party) ->
          let cr = if cr == crash_round then Array.copy cr else cr in
          cr.(party) <- round;
          cr
      | _ -> cr)
    crash_round plan

let rec hold due x = function
  | (d, l) :: rest when d = due -> (d, x :: l) :: rest
  | ((d, _) as entry) :: rest when d < due -> entry :: hold due x rest
  | rest -> (due, [ x ]) :: rest

(* Envelopes due this round, in arrival order; ones due earlier are lost. *)
let rec release round = function
  | (d, _) :: rest when d < round -> release round rest
  | (d, l) :: rest when d = round -> (List.rev l, rest)
  | held -> ([], held)

let rec partitioned ~round ~src ~dst = function
  | [] -> false
  | Plan.Partition { groups; first; last } :: _
    when round >= first && round <= last && group_of groups src <> group_of groups dst ->
      true
  | _ :: rest -> partitioned ~round ~src ~dst rest

(* The fate of point-to-point traffic from [src] to [dst]: partitions,
   then the drop/delay rules in plan order. A coin is drawn only for a
   drop rule that matches (in scope and link), so scoped rules never
   perturb the fault stream elsewhere. *)
let fate ~rng ~round ~src ~dst plan =
  let rec rules = function
    | [] -> `Keep
    | Plan.Drop { link; p; at } :: rest
      when (match at with None -> true | Some r -> r = round) && Plan.link_matches link ~src ~dst ->
        if Sb_util.Rng.bernoulli rng p then `Drop else rules rest
    | Plan.Delay { link; by; at } :: _
      when (match at with None -> true | Some r -> r = round) && Plan.link_matches link ~src ~dst ->
        `Delay by
    | _ :: rest -> rules rest
  in
  if partitioned ~round ~src ~dst plan then `Drop else rules plan

let filter plan ~rng st ~round ~env queue =
  let crash_round = with_crashes plan st.crash_round in
  let released, held = release round st.held in
  let held = ref held and drops = ref st.drops and delays = ref st.delays in
  let keep =
    List.filter
      (fun x ->
        match env x with
        | { Envelope.src = Envelope.Party s; _ } when round >= crash_round.(s) -> false
        | { Envelope.src = Envelope.Party s; dst = Envelope.Party d; _ } when s <> d -> (
            (* A real point-to-point link: fault rules apply. *)
            match fate ~rng ~round ~src:s ~dst:d plan with
            | `Keep -> true
            | `Drop ->
                incr drops;
                false
            | `Delay by ->
                incr delays;
                held := hold (round + by) x !held;
                false)
        | _ ->
            (* Self-delivery, the broadcast channel, and both directions
               of the ideal functionality channel are reliable; only
               crash-stop touches them. *)
            true)
      queue
  in
  ({ crash_round; held = !held; drops = !drops; delays = !delays }, released @ keep)

let compile ~n (plan : Plan.t) =
  (match Plan.validate ~n plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Sb_fault.Inject.compile: " ^ e));
  fun ~rng ->
    let st = ref (init ~n) and meters = meters () in
    fun ~round envs ->
      let st', kept = filter plan ~rng !st ~round ~env:Fun.id envs in
      Option.iter
        (fun m ->
          Array.iter (fun r -> if r = round then Sb_obs.Metrics.incr m.crashes) st'.crash_round;
          Sb_obs.Metrics.incr ~by:(st'.drops - !st.drops) m.drops;
          Sb_obs.Metrics.incr ~by:(st'.delays - !st.delays) m.delayed)
        meters;
      st := st';
      kept
