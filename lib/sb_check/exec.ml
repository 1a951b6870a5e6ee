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

(* All checker sessions share one sid; it only namespaces message tags
   within a run, and the checker drives exactly one session. *)
let sid = "chk"

(* Endpoint names, built once: parties past the table (never reached at
   the checker's n) fall back to building theirs. *)
let party_keys = Array.init 16 (fun i -> "P" ^ string_of_int i)

let endpoint_key = function
  | Envelope.Party i when i < Array.length party_keys -> party_keys.(i)
  | Envelope.Party i -> "P" ^ string_of_int i
  | Envelope.Func -> "F"
  | Envelope.All -> "*"

let envelope_key (e : Envelope.t) =
  String.concat ""
    [
      endpoint_key e.Envelope.src;
      ">";
      endpoint_key e.Envelope.dst;
      ":";
      Msg.serialize e.Envelope.body;
    ]

(* An envelope with the MD5 of its [envelope_key], computed once when
   it is sent and carried through the queue, the held table and the
   history chains, which hash these fixed-width digests instead of the
   keys. Untracked rounds (session rebuilds, the delivery-only final
   round) leave it empty: nothing digests them. *)
type keyed = { env : Envelope.t; key : Digest.t }

let add_keys b ks = List.iter (fun k -> Buffer.add_string b k.key) ks

(* Counts and rounds framed as two bytes: a round's traffic at n <= 5
   is far below 2^16 envelopes. *)
let add_count b i =
  assert (i >= 0 && i < 0x10000);
  Buffer.add_uint16_le b i

(* Mutable execution state. [hist] is a per-party rolling hash chain
   over the inboxes delivered so far: sessions are deterministic
   functions of (config, delivered history), so the chain — not the
   opaque closure state — canonically identifies each party's local
   state. [queue] and [held] are immutable lists, so a search successor
   forks a state by copying the record and [crash_round]. *)
type state = {
  cfg : config;
  total : int;
  mutable sessions : Sb_broadcast.Session.t array;
  crash_round : int array;
  hist : string array;
  mutable queue : keyed list;  (* next round's deliveries, enqueue order *)
  mutable held : (int * keyed list) list;
      (* (due round, held envelopes newest first), ascending due *)
  (* Scratch for one step's inbox and sends; forks share it. *)
  recv : Envelope.Buf.t;
  view : Inbox.t;
  sends : Outbox.t;
}

(* Every chain starts from the same 16 bytes, so every chain input is
   whole 16-byte digests. *)
let no_history = String.make 16 '\000'

let create config =
  let n = config.ctx.Ctx.n in
  (* Substrate schemes never consume their rng (they are deterministic
     given the ctx); a fixed stream keeps the signature satisfied. *)
  let rng = Sb_util.Rng.create 0 in
  let sessions =
    Array.init n (fun me ->
        config.scheme.Sb_broadcast.Session.create config.ctx ~rng:(Sb_util.Rng.split rng)
          ~sid ~sender:config.sender ~me
          ~value:(if me = config.sender then Some config.value else None))
  in
  {
    cfg = config;
    total = total_rounds config;
    sessions;
    crash_round = Array.make n max_int;
    hist = Array.make n no_history;
    queue = [];
    held = [];
    recv = Envelope.Buf.create ();
    view = Inbox.create ();
    sends = Outbox.create ();
  }

(* Deliver the pending queue and step every party — crashed parties
   still step on their (possibly empty) inboxes, exactly as the real
   network steps honest-but-silenced parties. Returns the round's
   outgoing traffic in party-id order, as sent. [track] maintains the
   history chains and keys the outgoing envelopes. *)
let deliver_and_collect ~track st ~round =
  let n = st.cfg.ctx.Ctx.n in
  let out = ref [] in
  for me = n - 1 downto 0 do
    let b = Buffer.create 64 in
    if track then Buffer.add_string b st.hist.(me);
    Envelope.Buf.clear st.recv;
    List.iter
      (fun k ->
        if Envelope.delivered_to k.env me then begin
          Envelope.Buf.push st.recv 0 k.env;
          if track then Buffer.add_string b k.key
        end)
      st.queue;
    if track then st.hist.(me) <- Digest.string (Buffer.contents b);
    Inbox.set st.view st.recv.envs ~off:0 ~len:st.recv.len;
    st.sessions.(me).Sb_broadcast.Session.step ~round ~inbox:st.view ~out:st.sends;
    (* This party's sends, in order, ahead of the later parties'. *)
    for i = Outbox.length st.sends - 1 downto 0 do
      let e = Outbox.get st.sends i in
      out := { env = e; key = (if track then Digest.string (envelope_key e) else "") } :: !out
    done;
    Outbox.clear st.sends
  done;
  !out

(* Insert newly delayed envelopes (newest first) under their due round,
   keeping the table ascending by due round. *)
let rec hold due fresh = function
  | (d, l) :: rest when d = due -> (d, fresh @ l) :: rest
  | ((d, _) as entry) :: rest when d < due -> entry :: hold due fresh rest
  | rest -> (due, fresh) :: rest

(* Apply one round's decision to the as-sent queue, mirroring
   Inject.compile: crashes are tallied first and silence everything
   from the sender (self-delivery and broadcast included); omissions
   and delays are all-or-nothing for the round — the clean benign
   model, matching [drop:1:p->*@r] / [delay:1:p->*@r] — and touch only
   distinct-endpoint point-to-point envelopes; held envelopes due this
   round re-enter ahead of the surviving fresh traffic. *)
let intercept st ~round (decision : decision) out =
  List.iter
    (fun (p, a) ->
      if a = Crash then st.crash_round.(p) <- min st.crash_round.(p) round)
    decision;
  let released =
    match List.assoc_opt round st.held with
    | Some l ->
        st.held <- List.remove_assoc round st.held;
        List.rev l
    | None -> []
  in
  let delayed = ref [] in
  let keep =
    List.filter
      (fun k ->
        let e = k.env in
        match Envelope.src_party e with
        | Some i when round >= st.crash_round.(i) -> false
        | src -> (
            match (src, Envelope.dst_party e) with
            | Some s, Some d when s <> d -> (
                match List.assoc_opt s decision with
                | Some Omit -> false
                | Some Delay ->
                    delayed := k :: !delayed;
                    false
                | Some Crash | None -> true)
            | _ -> true))
      out
  in
  if !delayed <> [] then st.held <- hold (round + 1) !delayed st.held;
  st.queue <- released @ keep

let run_round ~track st ~round decision =
  intercept st ~round decision (deliver_and_collect ~track st ~round)

(* Canonical state identity. Crash flags are booleans, not rounds:
   once a party is crashed, every future filter decision is the same
   whatever round it died in, and its delivered history is already in
   [hist] — so crash-at-r and crash-at-r' schedules that produced the
   same deliveries merge. At the terminal (round = total) the crash
   flags and still-held envelopes are dead state — no decision round
   remains that could consult or release them — so they are dropped
   and e.g. omit-all and delay-all of the final round's traffic reach
   the same state. *)
let digest_of st ~round =
  let terminal = round = st.total in
  let b = Buffer.create (16 * (Array.length st.hist + List.length st.queue + 4)) in
  add_count b round;
  if not terminal then
    Array.iter (fun r -> Buffer.add_char b (if r = max_int then '-' else 'x')) st.crash_round;
  Array.iter (Buffer.add_string b) st.hist;
  add_count b (List.length st.queue);
  add_keys b st.queue;
  if not terminal then
    List.iter
      (fun (due, l) ->
        add_count b due;
        add_count b (List.length l);
        add_keys b (List.rev l))
      st.held;
  Digest.string (Buffer.contents b)

let results st = Array.map (fun s -> s.Sb_broadcast.Session.result ()) st.sessions

let replay config decisions =
  let st = create config in
  let len = List.length decisions in
  assert (len <= st.total);
  List.iteri (fun round decision -> run_round ~track:true st ~round decision) decisions;
  let digest = digest_of st ~round:len in
  if len = st.total then begin
    (* The last round is delivery-only: the real network discards its
       outgoing queue before interception. *)
    let _discarded = deliver_and_collect ~track:false st ~round:len in
    { digest; status = Terminal (results st) }
  end
  else
    let out = deliver_and_collect ~track:true st ~round:len in
    { digest; status = Mid (List.map (fun k -> k.env) out) }

(* --- incremental search --------------------------------------------- *)

type node = {
  st : state;  (* sessions and [hist] through round [round]'s delivery *)
  round : int;
  path : decision list;  (* decisions of rounds [round - 1] down to 0 *)
  out : keyed list;  (* round [round]'s outgoing traffic, as sent *)
  mutable owned : bool;  (* [st.sessions] not yet handed to a successor *)
}

type pending = {
  pst : state;  (* crash flags, queue and held table after [pround - 1] *)
  pround : int;
  ppath : decision list;  (* reversed, like [node.path] *)
  parent : node option;
}

type expansion = Done of Msg.t array | Open of node

let root config = { pst = create config; pround = 0; ppath = []; parent = None }

let successor nd decision =
  let pst = { nd.st with crash_round = Array.copy nd.st.crash_round } in
  intercept pst ~round:nd.round decision nd.out;
  { pst; pround = nd.round + 1; ppath = decision :: nd.path; parent = Some nd }

let digest p = digest_of p.pst ~round:p.pround

let path p = List.rev p.ppath

(* The parent's sessions after its round's delivery, re-executed from
   round 0. Only the sessions are needed, so nothing is keyed or
   digested. *)
let rebuild nd =
  let st = create nd.st.cfg in
  List.iteri (fun round decision -> run_round ~track:false st ~round decision) (List.rev nd.path);
  let _out = deliver_and_collect ~track:false st ~round:nd.round in
  st.sessions

let expand p =
  let st = p.pst in
  (match p.parent with
  | Some nd when nd.owned -> nd.owned <- false
  | Some nd -> st.sessions <- rebuild nd
  | None -> ());
  if p.pround = st.total then begin
    let _discarded = deliver_and_collect ~track:false st ~round:p.pround in
    Done (results st)
  end
  else
    (* [hist] is still shared with the parent and its other successors. *)
    let st = { st with hist = Array.copy st.hist } in
    let out = deliver_and_collect ~track:true st ~round:p.pround in
    Open { st; round = p.pround; path = p.ppath; out; owned = true }

let crashed nd i = nd.st.crash_round.(i) <> max_int

let outgoing nd = List.map (fun k -> k.env) nd.out
