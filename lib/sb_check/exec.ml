open Sb_sim

type action = Crash | Omit | Delay

type decision = (int * action) list

type config = {
  ctx : Ctx.t;
  scheme : Sb_broadcast.Session.scheme;
  sender : int;
  value : Msg.t;
  faulty : Sb_util.Subset.t;
}

type status = Mid of Envelope.t list | Terminal of Msg.t array

type snapshot = { digest : string; status : status }

let total_rounds config = config.scheme.Sb_broadcast.Session.rounds config.ctx

let single_session (scheme : Sb_broadcast.Session.scheme) ~sender ~value =
  {
    Protocol.name = "single-" ^ scheme.Sb_broadcast.Session.scheme_name;
    rounds = scheme.Sb_broadcast.Session.rounds;
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input:_ ->
        (* One session per run: its sid only namespaces message tags. *)
        let s =
          scheme.Sb_broadcast.Session.create ctx ~rng ~sid:"chk" ~sender ~me:id
            ~value:(if id = sender then Some value else None)
        in
        { Party.step = s.Sb_broadcast.Session.step; output = s.Sb_broadcast.Session.result });
  }

let plan_of_decision ~round decision =
  List.map
    (fun (p, action) ->
      match action with
      | Crash -> Sb_fault.Plan.crash ~party:p ~round
      | Omit -> Sb_fault.Plan.drop ~src:p ~at:round 1.0
      | Delay -> Sb_fault.Plan.delay ~src:p ~at:round 1)
    decision

(* Endpoint names, built once for the checker's n. *)
let party_keys = Array.init 16 (fun i -> "P" ^ string_of_int i)

let endpoint_key = function
  | Envelope.Party i -> if i < 16 then party_keys.(i) else "P" ^ string_of_int i
  | Envelope.Func -> "F"
  | Envelope.All -> "*"
  | Envelope.Each n -> "P0..P" ^ string_of_int (n - 1)

(* An envelope with its key — its endpoints and the MD5 of its
   serialized body (hashed once per send-all, whose n envelopes share
   one body) — computed when it is sent and carried through the fault
   filter, the held list and the history chains. Endpoint names hold
   neither '>' nor ':' and the digest is 16 bytes, so any concatenation
   of keys reads back one way. *)
type keyed = { env : Envelope.t; key : string }

let env k = k.env

let keyed (run : Network.started) =
  let body = ref Msg.Unit and body_key = ref "" in
  List.map
    (fun (e : Envelope.t) ->
      if e.Envelope.body != !body || !body_key = "" then begin
        body := e.Envelope.body;
        body_key := Digest.string (Msg.serialize e.Envelope.body)
      end;
      {
        env = e;
        key =
          String.concat ""
            [ endpoint_key e.Envelope.src; ">"; endpoint_key e.Envelope.dst; ":"; !body_key ];
      })
    (run.Network.sent ())

let add_keys b ks = List.iter (fun k -> Buffer.add_string b k.key) ks

(* Counts and rounds framed as two bytes: a round's traffic at n <= 5
   is far below 2^16 envelopes. *)
let add_count b i =
  assert (i >= 0 && i < 0x10000);
  Buffer.add_uint16_le b i

(* One round's decision applied to the queue sent in [round]. Decision
   plans drop only with certainty, so no coin changes an outcome. *)
let filter ~round decision faults ~env sent =
  Sb_fault.Inject.filter (plan_of_decision ~round decision) ~rng:(Sb_util.Rng.create 0) faults
    ~round ~env sent

(* The session as a passive network run, no round stepped. Substrate
   schemes never consume their rng; a fixed stream satisfies it. *)
let start config =
  let protocol = single_session config.scheme ~sender:config.sender ~value:config.value in
  Network.start config.ctx ~rng:(Sb_util.Rng.create 0) ~protocol
    ~adversary:(Adversary.passive protocol)
    ~inputs:(Array.make config.ctx.Ctx.n config.value)

(* Close the delivery-only final round (collected) and read results. *)
let finish (run : Network.started) ~round =
  run.Network.route ~round None;
  Array.of_list (List.map snd (run.Network.finish ()).Network.outputs)

(* [hist] is a per-party rolling hash chain over the inboxes delivered
   so far: sessions are deterministic functions of (config, delivered
   history), so the chain canonically identifies each party's state. *)
let no_history = String.make 16 '\000'

(* The chains after delivering [queue]. *)
let advance hist queue =
  let b = Buffer.create 256 in
  Array.mapi
    (fun me h ->
      Buffer.clear b;
      Buffer.add_string b h;
      List.iter (fun k -> if Envelope.delivered_to k.env me then Buffer.add_string b k.key) queue;
      Digest.string (Buffer.contents b))
    hist

(* Canonical state identity before delivering [queue] at [round].
   Crash flags are booleans: a crashed party filters the same whatever
   round it died in, and its past deliveries are in [hist], so
   crash-at-r and crash-at-r' schedules merge. At the terminal, crash
   flags and held envelopes are dead state and are dropped, so e.g.
   omit-all and delay-all of the final round's traffic merge. *)
let digest_of ~total ~round faults hist queue =
  let terminal = round = total in
  let b = Buffer.create (16 * (Array.length hist + List.length queue + 4)) in
  add_count b round;
  if not terminal then
    Array.iteri
      (fun i _ -> Buffer.add_char b (if Sb_fault.Inject.crashed faults i then 'x' else '-'))
      hist;
  Array.iter (Buffer.add_string b) hist;
  add_count b (List.length queue);
  add_keys b queue;
  if not terminal then
    List.iter
      (fun (due, l) ->
        add_count b due;
        add_count b (List.length l);
        add_keys b l)
      (Sb_fault.Inject.held faults);
  Digest.string (Buffer.contents b)

let replay config decisions =
  let n = config.ctx.Ctx.n and total = total_rounds config in
  let len = List.length decisions in
  assert (len <= total);
  let run = start config in
  let _, faults, hist, queue =
    List.fold_left
      (fun (round, faults, hist, queue) decision ->
        let hist = advance hist queue in
        run.Network.collect ~round;
        let faults, queue = filter ~round decision faults ~env (keyed run) in
        run.Network.route ~round (Some (List.map env queue));
        (round + 1, faults, hist, queue))
      (0, Sb_fault.Inject.init ~n, Array.make n no_history, [])
      decisions
  in
  let digest = digest_of ~total ~round:len faults hist queue in
  run.Network.collect ~round:len;
  if len = total then { digest; status = Terminal (finish run ~round:len) }
  else begin
    let out = run.Network.sent () in
    ignore (run.Network.finish ());
    { digest; status = Mid out }
  end

(* --- incremental search --------------------------------------------- *)

type node = {
  cfg : config;
  total : int;
  round : int;
  path : decision list;  (* decisions of rounds [round - 1] down to 0 *)
  faults : keyed Sb_fault.Inject.state;  (* after round [round - 1]'s filter *)
  hist : string array;  (* through round [round]'s delivery *)
  out : keyed list;  (* round [round]'s outgoing traffic, as sent *)
  mutable run : Network.started option;
      (* collected through round [round]; [None] once a successor took it *)
}

(* A state reached from [parent] by [path]'s head decision; the root's
   parent is a node at round -1 that owns a run with no round stepped. *)
type pending = {
  parent : node;
  ppath : decision list;
  pfaults : keyed Sb_fault.Inject.state;
  queue : keyed list;  (* delivered at round [parent.round + 1] *)
}

type expansion = Done of Msg.t array | Open of node

let root config =
  let n = config.ctx.Ctx.n in
  let faults = Sb_fault.Inject.init ~n in
  let parent =
    { cfg = config; total = total_rounds config; round = -1; path = []; faults;
      hist = Array.make n no_history; out = []; run = Some (start config) }
  in
  { parent; ppath = []; pfaults = faults; queue = [] }

let successor nd decision =
  let pfaults, queue = filter ~round:nd.round decision nd.faults ~env nd.out in
  { parent = nd; ppath = decision :: nd.path; pfaults; queue }

let digest p =
  digest_of ~total:p.parent.total ~round:(p.parent.round + 1) p.pfaults p.parent.hist p.queue

let path p = List.rev p.ppath

(* The node's run re-executed from round 0 through its round's
   collect. Only the sessions are needed, so nothing is keyed or
   digested. *)
let rebuild nd =
  let run = start nd.cfg in
  ignore
    (List.fold_left
       (fun (round, faults) decision ->
         run.Network.collect ~round;
         let faults, queue = filter ~round decision faults ~env:Fun.id (run.Network.sent ()) in
         run.Network.route ~round (Some queue);
         (round + 1, faults))
       (0, Sb_fault.Inject.init ~n:nd.cfg.ctx.Ctx.n)
       (List.rev nd.path));
  run.Network.collect ~round:nd.round;
  run

let expand { parent = nd; ppath; pfaults; queue } =
  let round = nd.round + 1 in
  let run = match nd.run with Some run -> run | None -> rebuild nd in
  nd.run <- None;
  if nd.round >= 0 then run.Network.route ~round:nd.round (Some (List.map env queue));
  run.Network.collect ~round;
  if round = nd.total then Done (finish run ~round)
  else
    Open
      { nd with round; path = ppath; faults = pfaults; hist = advance nd.hist queue;
        out = keyed run; run = Some run }

let release nd =
  Option.iter (fun run -> ignore (run.Network.finish ())) nd.run;
  nd.run <- None

let crashed nd i = Sb_fault.Inject.crashed nd.faults i

let outgoing nd = List.map env nd.out
