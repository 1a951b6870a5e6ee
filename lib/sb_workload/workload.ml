open Sb_util
open Sb_session

type outcome = {
  name : string;
  quick : bool;
  scale : (string * int) list;
  summary : (string * Sb_obs.Json.t) list;
  specs : Engine.spec list;
  aggregate : Engine.aggregate;
  reports : Engine.session_report array;
}

type def = {
  wname : string;
  describe : string;
  build :
    quick:bool ->
    faults:Sb_fault.Plan.t option ->
    rng:Rng.t ->
    Core.Setup.t
    * Sb_dist.Dist.t
    * Engine.spec list
    * (string * int) list
    * (Engine.session_report array -> (string * Sb_obs.Json.t) list);
}

let substrate name = List.assoc name (Core.Resilience.substrates ())
let committee = 5
let base_setup = Core.Setup.{ default with n = committee; thresh = (committee - 1) / 2 }

(* Shared summarization helpers; everything here is a pure function of
   the (jobs-invariant) session reports, so workload summaries are
   byte-identical at every --jobs value. *)

let count_if p reports =
  Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 reports

let certified (r : Engine.session_report) =
  r.Engine.consistent && Bitvec.equal r.Engine.x r.Engine.w

(* Highest-index party whose announced bit is set; -1 when nobody
   bid. Sealed simultaneity is the point: every declaration is
   committed before any is revealed, so "highest bidder wins" cannot
   be sniped (examples/sealed_auction.ml shows the attack). *)
let winner (r : Engine.session_report) =
  let w = r.Engine.w in
  let rec scan i = if i < 0 then -1 else if Bitvec.get w i then i else scan (i - 1) in
  scan (Bitvec.length w - 1)

(* --- election (Broadbent–Tapp-style, arXiv 0806.1931) --------------- *)

(* Millions of simulated voters cast Bernoulli ballots, tallied per
   precinct. Every precinct certifies its tally through one SB
   session: a small sample of audited precincts submit the exact count
   to a large Dolev-Strong trustee committee (the heavy tail), all
   others certify the tally's low bits with their 5-party precinct
   committee. A session certifies iff it is consistent and announces
   exactly the submitted tally bits. *)
let election =
  let build ~quick ~faults ~rng =
    let voters = if quick then 50_000 else 2_000_000 in
    let precinct = if quick then 250 else 1000 in
    let trustees = if quick then 16 else 20 in
    let audited = 8 in
    let precincts = voters / precinct in
    let p_yes = 0.52 in
    let tally = Array.make precincts 0 in
    for v = 0 to voters - 1 do
      if Rng.bernoulli rng p_yes then tally.(v / precinct) <- tally.(v / precinct) + 1
    done;
    let yes = Array.fold_left ( + ) 0 tally in
    let stride = precincts / audited in
    let audit_id j = j * stride in
    let is_audited = Array.make precincts false in
    for j = 0 to audited - 1 do
      is_audited.(audit_id j) <- true
    done;
    let rest =
      Array.of_list
        (List.filter (fun p -> not is_audited.(p)) (List.init precincts Fun.id))
    in
    let mask = (1 lsl committee) - 1 in
    let specs =
      [
        (* Heavy spec first: the claim order follows spec order, so
           stragglers are in flight before the cheap tail. *)
        Engine.spec ~parties:trustees ?faults
          ~inputs:(fun j -> Bitvec.of_int trustees tally.(audit_id j))
          (substrate "concurrent-dolev-strong")
          audited;
        Engine.spec
          ~inputs:(fun j -> Bitvec.of_int committee (tally.(rest.(j)) land mask))
          (substrate "concurrent-bracha")
          (Array.length rest);
      ]
    in
    let scale =
      [
        ("voters", voters);
        ("precincts", precincts);
        ("audited", audited);
        ("trustees", trustees);
      ]
    in
    let summarize reports =
      let ok = count_if certified reports in
      [
        ("yes", Sb_obs.Json.Int yes);
        ("no", Sb_obs.Json.Int (voters - yes));
        ("margin", Sb_obs.Json.Int ((2 * yes) - voters));
        ("certified_sessions", Sb_obs.Json.Int ok);
        ("certified", Sb_obs.Json.Bool (ok = Array.length reports));
      ]
    in
    (base_setup, Sb_dist.Dist.uniform committee, specs, scale, summarize)
  in
  {
    wname = "election";
    describe =
      "precinct-tallied referendum: Bernoulli voters, audited precincts certified by \
       a large Dolev-Strong trustee committee, the rest by 5-party Bracha committees";
    build;
  }

(* --- sealed-bid auction mix ----------------------------------------- *)

(* Each lot is one SB session of single-bit "bid at reserve"
   declarations; the highest-index declarer wins. Premium lots gather
   many bidders under Dolev-Strong (heavy tail), standard lots run the
   Gennaro VSS protocol, micro lots plain commit-open. *)
let auction =
  let build ~quick ~faults ~rng:_ =
    let premium = if quick then 8 else 10 in
    let premium_bidders = if quick then 16 else 20 in
    let standard = if quick then 30 else 100 in
    let micro = if quick then 150 else 2000 in
    let specs =
      [
        Engine.spec ~parties:premium_bidders
          ~dist:(Sb_dist.Dist.product 0.4 premium_bidders)
          ?faults
          (substrate "concurrent-dolev-strong")
          premium;
        Engine.spec Sb_protocols.Gennaro.protocol standard;
        Engine.spec Sb_protocols.Commit_open.protocol micro;
      ]
    in
    let scale =
      [
        ("lots", premium + standard + micro);
        ("premium", premium);
        ("standard", standard);
        ("micro", micro);
        ("premium_bidders", premium_bidders);
      ]
    in
    let summarize reports =
      let sold =
        count_if (fun (r : Engine.session_report) -> r.Engine.consistent && winner r >= 0) reports
      in
      let premium_sold =
        count_if (fun (r : Engine.session_report) -> r.Engine.index < premium && winner r >= 0) reports
      in
      (* Order-sensitive digest of the winner sequence: any scheduler
         that permuted or corrupted a lot's outcome changes it. *)
      let checksum =
        Array.fold_left (fun acc r -> ((acc * 31) + winner r + 2) mod 1_000_003) 0 reports
      in
      [
        ("sold", Sb_obs.Json.Int sold);
        ("no_sale", Sb_obs.Json.Int (Array.length reports - sold));
        ("premium_sold", Sb_obs.Json.Int premium_sold);
        ("winner_checksum", Sb_obs.Json.Int checksum);
      ]
    in
    (base_setup, Sb_dist.Dist.product 0.65 committee, specs, scale, summarize)
  in
  {
    wname = "auction";
    describe =
      "sealed-bid lots: premium lots with many Dolev-Strong bidders, standard lots \
       under Gennaro VSS, micro lots under commit-open";
    build;
  }

(* --- lottery mix ----------------------------------------------------- *)

(* Each draw's coin is the parity of the announced vector (the
   coin-flipping application; examples/coin_flipping.ml shows why
   mere parallel broadcast loses fairness). Jackpot draws use a
   16-party Phase-King committee; a slice of the regular draws runs
   under a 5% envelope-drop fault plan — draws whose session loses
   consistency are voided. *)
let lottery =
  let build ~quick ~faults ~rng:_ =
    let jackpot = if quick then 6 else 8 in
    let jackpot_n = 16 in
    let draws = if quick then 450 else 3000 in
    let faulty = if quick then 150 else 1000 in
    let specs =
      [
        Engine.spec ~parties:jackpot_n
          ~dist:(Sb_dist.Dist.uniform jackpot_n)
          ?faults
          (substrate "concurrent-phase-king")
          jackpot;
        Engine.spec (substrate "concurrent-bracha") draws;
        Engine.spec
          ~faults:[ Sb_fault.Plan.drop 0.05 ]
          (substrate "concurrent-bracha") faulty;
      ]
    in
    let scale =
      [
        ("draws", jackpot + draws + faulty);
        ("jackpot", jackpot);
        ("regular", draws);
        ("faulty_link", faulty);
      ]
    in
    let summarize reports =
      let decided = count_if (fun (r : Engine.session_report) -> r.Engine.consistent) reports in
      let heads =
        count_if (fun (r : Engine.session_report) -> r.Engine.consistent && Bitvec.parity r.Engine.w) reports
      in
      let tails = decided - heads in
      let bias_bp =
        if decided = 0 then 0 else abs (heads - tails) * 10_000 / decided
      in
      [
        ("heads", Sb_obs.Json.Int heads);
        ("tails", Sb_obs.Json.Int tails);
        ("void", Sb_obs.Json.Int (Array.length reports - decided));
        ("bias_bp", Sb_obs.Json.Int bias_bp);
      ]
    in
    (base_setup, Sb_dist.Dist.uniform committee, specs, scale, summarize)
  in
  {
    wname = "lottery";
    describe =
      "XOR-coin draws: Phase-King jackpot committees, Bracha regular draws, one slice \
       under a 5% envelope-drop fault plan (inconsistent draws voided)";
    build;
  }

let catalogue = [ election; auction; lottery ]
let names = List.map (fun d -> d.wname) catalogue
let describe name =
  List.find_map (fun d -> if d.wname = name then Some d.describe else None) catalogue

let run ?pool ?faults ?(quick = false) ~seed name =
  match List.find_opt (fun d -> d.wname = name) catalogue with
  | None ->
      Error
        (Printf.sprintf "unknown workload %S (try: %s)" name (String.concat ", " names))
  | Some d -> (
      let rngs = Rng.split_n (Rng.create seed) 2 in
      match d.build ~quick ~faults ~rng:rngs.(0) with
      | exception Invalid_argument msg -> Error msg
      | setup, dist, specs, scale, summarize -> (
          match Engine.run ?pool ~setup ~dist specs rngs.(1) with
          | exception Invalid_argument msg -> Error msg
          | aggregate, reports ->
              Ok
                {
                  name = d.wname;
                  quick;
                  scale;
                  summary = summarize reports;
                  specs;
                  aggregate;
                  reports;
                }))

let to_json o =
  Sb_obs.Json.Obj
    [
      ("name", Sb_obs.Json.Str o.name);
      ("tier", Sb_obs.Json.Str (if o.quick then "quick" else "full"));
      ("sessions", Sb_obs.Json.Int o.aggregate.Engine.sessions);
      ("consistent", Sb_obs.Json.Int o.aggregate.Engine.consistent);
      ("scale", Sb_obs.Json.Obj (List.map (fun (k, v) -> (k, Sb_obs.Json.Int v)) o.scale));
      ("summary", Sb_obs.Json.Obj o.summary);
    ]

let deterministic_lines o =
  let a = o.aggregate in
  [
    Printf.sprintf "workload   : %s (%s)" o.name (if o.quick then "quick" else "full");
    Printf.sprintf "scale      : %s"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o.scale));
    Printf.sprintf "specs      : %s"
      (String.concat ", "
         (List.map
            (fun (s : Engine.spec) ->
              Printf.sprintf "%s x%d" s.Engine.protocol.Sb_sim.Protocol.name
                s.Engine.count)
            o.specs));
    Printf.sprintf "sessions   : %d total, %d consistent, %d shards" a.Engine.sessions
      a.Engine.consistent a.Engine.shards;
    Printf.sprintf "summary    : %s"
      (String.concat " "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%s" k (Sb_obs.Json.to_string v))
            o.summary));
    Printf.sprintf "comm       : %d broadcasts (%d B), %d p2p (%d B)" a.Engine.broadcasts
      a.Engine.broadcast_bytes a.Engine.p2p a.Engine.p2p_bytes;
  ]
