open Sb_sim

let session_id i = "s" ^ string_of_int i

let window ~mode ~scheme_rounds ~sender =
  match mode with
  | `Sequential ->
      let r0 = sender * (scheme_rounds + 1) in
      (r0, r0 + scheme_rounds)
  | `Concurrent -> (0, scheme_rounds)

let to_bit m = match m with Msg.Bit b -> b | _ -> false

(* One-pass sid bucketing. The per-party step used to re-filter its
   whole inbox once per session ([Session.inbox_for], n scans per
   step — the extra factor of n that dominated concurrent-mode runs at
   large n); instead, parse the sender index k out of each envelope's
   "bc:s<k>" tag and dispatch it once. The parse is strict — every
   tag character after "bc:s" a digit, no leading zeros, k < n — so an
   envelope lands in bucket k exactly when its tag equals
   [Session.tag (session_id k)] for some k < n, i.e. exactly when the
   seed's per-sid filter would have kept it; everything else is
   dropped, as before. Buckets preserve inbox order, so each session
   sees byte-identical input. The prefix is compared in place, so an
   envelope costs one cons cell in its bucket and nothing else. *)
let pre = "bc:s"
let lp = String.length pre

(* [t] starts with [pre]; the caller has checked [String.length t > lp]. *)
let rec has_pre t i =
  i >= lp || (String.unsafe_get t i = String.unsafe_get pre i && has_pre t (i + 1))

let bucket_by_sid ~n envs =
  let buckets = Array.make n [] in
  (* Back to front, so consing leaves each bucket in inbox order
     without a List.rev copy; the recursion is as deep as the inbox is
     long. *)
  let rec go = function
    | [] -> ()
    | (e : Envelope.t) :: rest -> (
        go rest;
        match e.Envelope.body with
        | Msg.Tag (t, _) ->
            let lt = String.length t in
            (* <= 9 digits also guards the accumulator against overflow
               on adversarial tags; any real k has far fewer. *)
            if
              lt > lp
              && lt <= lp + 9
              && has_pre t 0
              && not (t.[lp] = '0' && lt > lp + 1)
            then begin
              let ok = ref true and k = ref 0 in
              for i = lp to lt - 1 do
                let c = t.[i] in
                if c < '0' || c > '9' then ok := false
                else k := (!k * 10) + (Char.code c - Char.code '0')
              done;
              if !ok && !k < n then buckets.(!k) <- e :: buckets.(!k)
            end
        | _ -> ())
  in
  go envs;
  buckets

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
    let step ~round ~inbox =
      (* Each session's output replaces its inbox in its slot; the
         outputs are then joined right to left, so the last non-empty
         one is shared rather than copied. *)
      let slots = bucket_by_sid ~n inbox in
      for sender = 0 to n - 1 do
        let lo, hi = window ~mode ~scheme_rounds ~sender in
        slots.(sender) <-
          (if round < lo || round > hi then []
           else sessions.(sender).Session.step ~round:(round - lo) ~inbox:slots.(sender))
      done;
      let out = ref [] in
      for sender = n - 1 downto 0 do
        match (slots.(sender), !out) with
        | [], _ -> ()
        | l, [] -> out := l
        | l, acc -> out := l @ acc
      done;
      !out
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
   would conflate composition cost with substrate cost. *)
let single (scheme : Session.scheme) =
  let sid = session_id 0 in
  let inbox_for = Session.inbox_for ~sid in
  let make_party ctx ~rng ~id ~input =
    let value = if id = 0 then Some input else None in
    let session =
      scheme.create ctx ~rng:(Sb_util.Rng.split rng) ~sid ~sender:0 ~me:id ~value
    in
    let step ~round ~inbox =
      session.Session.step ~round ~inbox:(inbox_for inbox)
    in
    let output () = session.Session.result () in
    { Party.step; output }
  in
  {
    Protocol.name = "single-" ^ scheme.Session.scheme_name;
    rounds = scheme.rounds;
    make_functionality = None;
    make_party;
  }
