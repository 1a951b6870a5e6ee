open Sb_sim

(* Built once, so creating a session allocates no id. *)
let session_ids = Array.init 256 (fun i -> "s" ^ string_of_int i)
let session_id i = if i >= 0 && i < 256 then session_ids.(i) else "s" ^ string_of_int i

let window ~mode ~scheme_rounds ~sender =
  match mode with
  | `Sequential ->
      let r0 = sender * (scheme_rounds + 1) in
      (r0, r0 + scheme_rounds)
  | `Concurrent -> (0, scheme_rounds)

let to_bit m = match m with Msg.Bit b -> b | _ -> false

(* One-pass sid bucketing: rather than filter its inbox once per
   session (n scans per step), a party parses the session index k out
   of each envelope's "bc:s<k>" tag once. The parse is strict — digits
   only, no leading zero, k < n — so an envelope lands in bucket k
   exactly when its tag equals [Session.tag (session_id k)]; everything
   else is dropped. *)
let lp = String.length "bc:s"

(* The decimal at [t.[i..]] if all digits and < n, else -1. *)
let rec digits t i k ~n =
  if i = String.length t then if k < n then k else -1
  else
    let c = String.unsafe_get t i in
    if c < '0' || c > '9' then -1 else digits t (i + 1) ((k * 10) + Char.code c - 48) ~n

(* At most 9 digits also guards the accumulator against overflow on
   adversarial tags. *)
let sid_index ~n (e : Envelope.t) =
  match e.Envelope.body with
  | Msg.Tag (t, _) ->
      let lt = String.length t in
      if lt > lp && lt <= lp + 9
         && String.unsafe_get t 0 = 'b' && String.unsafe_get t 1 = 'c'
         && String.unsafe_get t 2 = ':' && String.unsafe_get t 3 = 's'
         && not (String.unsafe_get t lp = '0' && lt > lp + 1)
      then digits t lp 0 ~n
      else -1
  | _ -> -1

(* A counting sort of the inbox by session index into [sorted], one
   slice per session over it; [keys] keeps each envelope's index
   between the two passes. A party's slices are read only during its
   own step, so every party on a domain sorts into the domain's arrays
   (per-party ones were major-heap garbage every run for the large
   compositions). When one session claims the whole inbox, its slice
   is the inbox itself. *)
type scratch = { mutable keys : int array; mutable sorted : Envelope.t array }
type buckets = { slots : Inbox.t array; starts : int array (* n + 1 cursors *) }

let scratch = Domain.DLS.new_key (fun () -> { keys = [||]; sorted = [||] })
let buckets ~n = { slots = Array.init n (fun _ -> Inbox.create ()); starts = Array.make (n + 1) 0 }

let bucket_by_sid { slots; starts } inbox =
  let n = Array.length slots and len = Inbox.length inbox in
  let s = Domain.DLS.get scratch in
  if Array.length s.keys < len then (
    s.keys <- Array.make (2 * len) 0;
    s.sorted <- Array.make (2 * len) (Inbox.get inbox 0));
  for k = 0 to n do starts.(k) <- 0 done;
  for j = 0 to len - 1 do
    let k = sid_index ~n (Inbox.get inbox j) in
    s.keys.(j) <- k;
    if k >= 0 then starts.(k + 1) <- starts.(k + 1) + 1
  done;
  let whole = if len > 0 && s.keys.(0) >= 0 && starts.(s.keys.(0) + 1) = len then s.keys.(0) else -1 in
  for k = 1 to n do starts.(k) <- starts.(k) + starts.(k - 1) done;
  for k = 0 to n - 1 do
    if k = whole then Inbox.share inbox ~into:slots.(k)
    else Inbox.set slots.(k) s.sorted ~off:starts.(k) ~len:(starts.(k + 1) - starts.(k))
  done;
  if whole < 0 then
    for j = 0 to len - 1 do
      let k = s.keys.(j) in
      if k >= 0 then begin
        s.sorted.(starts.(k)) <- Inbox.get inbox j;
        starts.(k) <- starts.(k) + 1
      end
    done;
  slots

let make mode (scheme : Session.scheme) name =
  let rounds ctx =
    let r = scheme.rounds ctx in
    match mode with
    | `Sequential -> (ctx.Ctx.n * (r + 1)) - 1
    | `Concurrent -> r
  in
  let make_party ctx ~rng ~id ~input =
    let n = ctx.Ctx.n in
    let sessions =
      Array.init n (fun sender ->
          let value = if sender = id then Some input else None in
          scheme.create ctx ~rng:(Sb_util.Rng.split rng) ~sid:(session_id sender) ~sender
            ~me:id ~value)
    in
    let scheme_rounds = scheme.rounds ctx in
    let windows = Array.init n (fun sender -> window ~mode ~scheme_rounds ~sender) in
    let b = buckets ~n in
    (* Sessions append in sender order, each on its own slice. *)
    let step ~round ~inbox ~out =
      let slots = bucket_by_sid b inbox in
      for sender = 0 to n - 1 do
        let lo, hi = windows.(sender) in
        if round >= lo && round <= hi then
          sessions.(sender).Session.step ~round:(round - lo) ~inbox:slots.(sender) ~out
      done
    in
    let output () =
      Msg.bits (List.init n (fun sender -> to_bit (sessions.(sender).Session.result ())))
    in
    { Party.step; output }
  in
  { Protocol.name; rounds; make_functionality = None; make_party }

let sequential scheme = make `Sequential scheme ("sequential-" ^ scheme.Session.scheme_name)
let concurrent scheme = make `Concurrent scheme ("concurrent-" ^ scheme.Session.scheme_name)

(* One session only: sender P_0 broadcasts, everybody else listens.
   This is the Θ(n^2)-message unit the scaling sweep (E17) measures —
   a whole n-session parallel composition is a factor n more work and
   would conflate composition cost with substrate cost. The session
   steps on the inbox as delivered: it reads only envelopes carrying
   its own tag (the [Session.t] step contract), so bucketing would only
   re-parse tags. *)
let single (scheme : Session.scheme) =
  let sid = session_id 0 in
  let make_party ctx ~rng ~id ~input =
    let value = if id = 0 then Some input else None in
    let session =
      scheme.create ctx ~rng:(Sb_util.Rng.split rng) ~sid ~sender:0 ~me:id ~value
    in
    { Party.step = session.Session.step; output = session.Session.result }
  in
  {
    Protocol.name = "single-" ^ scheme.Session.scheme_name;
    rounds = scheme.rounds;
    make_functionality = None;
    make_party;
  }
