open Sb_util
open Sb_sim

type spec = {
  protocol : Protocol.t;
  count : int;
  parties : int option;
  dist : Sb_dist.Dist.t option;
  faults : Sb_fault.Plan.t option;
  inputs : (int -> Bitvec.t) option;
}

let spec ?parties ?dist ?faults ?inputs protocol count =
  { protocol; count; parties; dist; faults; inputs }

type session_report = {
  index : int;
  shard : int;
  protocol : string;
  n : int;
  x : Bitvec.t;
  w : Bitvec.t;
  consistent : bool;
  rounds : int;
  p2p : int;
}

type worker_stat = {
  worker : int;
  shards_run : int;
  stolen : int;
  sessions_run : int;
  busy_s : float;
}

type aggregate = {
  sessions : int;
  consistent : int;
  shards : int;
  per_shard : int array;
  broadcasts : int;
  p2p : int;
  broadcast_bytes : int;
  p2p_bytes : int;
  wall_s : float;
  sessions_per_sec : float;
  msgs_per_sec : float;
  bytes_per_sec : float;
  workers : int;
  steals : int;
  shard_wall_s : float array;
  session_wall_s : float array;
  worker_stats : worker_stat array;
}

(* Cumulative spec bounds: bounds.(k) is the global index of spec k's
   first session, bounds.(len specs) the batch total. *)
let bounds specs =
  let specs = Array.of_list specs in
  let b = Array.make (Array.length specs + 1) 0 in
  Array.iteri (fun k s -> b.(k + 1) <- b.(k) + s.count) specs;
  b

(* Global session index -> spec index, by binary search over the
   cumulative bounds (the historical linear scan went quadratic on
   many-spec batches): the largest k with bounds.(k) <= i. *)
let spec_at b i =
  if i < 0 || i >= b.(Array.length b - 1) then
    invalid_arg (Printf.sprintf "Engine.spec_at: session %d out of range" i);
  let lo = ref 0 and hi = ref (Array.length b - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if b.(mid) <= i then lo := mid else hi := mid
  done;
  !lo

let run ?pool ~setup ~dist
    specs rng =
  if specs = [] then invalid_arg "Engine.run: empty spec list";
  let specs_a = Array.of_list specs in
  Array.iteri
    (fun k s ->
      if s.count <= 0 then
        invalid_arg (Printf.sprintf "Engine.run: spec %d count must be positive" k))
    specs_a;
  let setups =
    Array.mapi
      (fun k s ->
        match s.parties with
        | None -> setup
        | Some n when n >= 2 -> { setup with Core.Setup.n; thresh = (n - 1) / 2 }
        | Some n ->
            invalid_arg
              (Printf.sprintf "Engine.run: spec %d parties must be >= 2 (got %d)" k n))
      specs_a
  in
  (* Up-front input validation: a dist whose dimension disagrees with
     the session's party count used to surface as an opaque Bitvec
     failure deep inside a worker. *)
  let dists =
    Array.mapi
      (fun k s ->
        let d = match s.dist with Some d -> d | None -> dist in
        let n = setups.(k).Core.Setup.n in
        if s.inputs = None && Sb_dist.Dist.n d <> n then
          invalid_arg
            (Printf.sprintf
               "Engine.run: spec %d (%s) draws inputs over %d bits but the session \
                has n = %d parties"
               k s.protocol.Protocol.name (Sb_dist.Dist.n d) n);
        d)
      specs_a
  in
  let fault_makers =
    Array.mapi
      (fun k s ->
        match s.faults with
        | None -> None
        | Some plan ->
            let n = setups.(k).Core.Setup.n in
            (match Sb_fault.Plan.validate ~n plan with
            | Ok () -> ()
            | Error e ->
                invalid_arg (Printf.sprintf "Engine.run: spec %d fault plan: %s" k e));
            Some (Sb_fault.Inject.compile ~n plan))
      specs_a
  in
  let counts = Array.map (fun s -> s.count) specs_a in
  let b = bounds specs in
  let total = b.(Array.length counts) in
  let pool = match pool with Some p -> p | None -> Sb_par.Pool.default () in
  (* Master-stream discipline: two pre-split children per session
     (input draw, execution) first, then one stream per shard for the
     shared context — all pure functions of the spec counts, so any
     pool size replays the same bytes. *)
  let streams = Sb_par.Partition.streams rng ~total ~draws_per_item:2 in
  let shards = Shard.layout ~counts ~rng in
  let nshards = Array.length shards in
  let shard_wall = Array.make nshards 0.0 in
  let shard_worker = Array.make nshards 0 in
  let session_wall = Array.make total 0.0 in
  let run_shard (sh : Shard.t) =
    let t0 = Unix.gettimeofday () in
    let s = specs_a.(sh.Shard.spec) in
    let n = setups.(sh.Shard.spec).Core.Setup.n in
    let d = dists.(sh.Shard.spec) in
    let faults = fault_makers.(sh.Shard.spec) in
    (* Built once per shard, shared by every session in it: the
       signature registry, commitment scheme and CRS of the context
       (the expensive per-run setup the samplers pay on every
       execution). *)
    let ctx = Shard.context setups.(sh.Shard.spec) sh in
    let reports =
      Array.init sh.Shard.len (fun j ->
          let i = sh.Shard.lo + j in
          let t1 = Unix.gettimeofday () in
          let x =
            match s.inputs with
            | None -> Sb_dist.Dist.sample d streams.(2 * i)
            | Some f ->
                let x = f (i - b.(sh.Shard.spec)) in
                if Bitvec.length x <> n then
                  invalid_arg
                    (Printf.sprintf
                       "Engine.run: spec %d inputs returned a %d-bit vector for an \
                        n = %d session"
                       sh.Shard.spec (Bitvec.length x) n);
                x
          in
          let inputs = Array.init n (fun p -> Msg.Bit (Bitvec.get x p)) in
          let r =
            Network.run ctx ~rng:streams.((2 * i) + 1) ~protocol:s.protocol
              ~adversary:Core.Adversaries.passive
              ~inputs ?faults ~record_trace:false ()
          in
          let w, consistent = Core.Announced.announce n r.Network.outputs in
          session_wall.(i) <- Unix.gettimeofday () -. t1;
          {
            index = i;
            shard = sh.Shard.index;
            protocol = s.protocol.Protocol.name;
            n;
            x;
            w;
            consistent;
            rounds = r.Network.rounds_used;
            p2p = r.Network.p2p_messages;
          })
    in
    if Sb_obs.Metrics.enabled () then Core.Announced.note_domain_samples sh.Shard.len;
    shard_wall.(sh.Shard.index) <- Unix.gettimeofday () -. t0;
    shard_worker.(sh.Shard.index) <- Sb_par.Pool.worker_index ();
    reports
  in
  let comm0 = Sb_obs.Report.comm_totals () in
  let t0 = Unix.gettimeofday () in
  (* One pool task per shard. The pool's FIFO queue hands shards out
     in index order to whichever worker is free, so a heavy-tailed mix
     does not leave workers idle behind a straggler. Results come back
     by shard index, so the outcome is independent of who ran what. *)
  let results = Sb_par.Pool.map_chunks pool shards ~f:run_shard in
  let wall_s = Unix.gettimeofday () -. t0 in
  (* Worker stats from the per-shard (worker, wall) records. A shard
     outside its worker's contiguous home range (the even split of
     shards over workers) counts as a steal. *)
  let workers = Sb_par.Pool.size pool in
  let home = Array.make nshards 0 in
  Array.iteri
    (fun w (c : Sb_par.Partition.chunk) -> Array.fill home c.lo c.len w)
    (Sb_par.Partition.chunks ~total:nshards ~jobs:workers);
  let worker_stats =
    Array.init workers (fun w ->
        let ran = List.filter (fun k -> shard_worker.(k) = w) (List.init nshards Fun.id) in
        {
          worker = w;
          shards_run = List.length ran;
          stolen = List.length (List.filter (fun k -> home.(k) <> w) ran);
          sessions_run = List.fold_left (fun acc k -> acc + shards.(k).Shard.len) 0 ran;
          busy_s = List.fold_left (fun acc k -> acc +. shard_wall.(k)) 0.0 ran;
        })
  in
  let bc0, p2p0, bcb0, p2pb0 = comm0 in
  let bc1, p2p1, bcb1, p2pb1 = Sb_obs.Report.comm_totals () in
  let reports = Array.concat (Array.to_list results) in
  let consistent =
    Array.fold_left
      (fun acc (r : session_report) -> if r.consistent then acc + 1 else acc)
      0 reports
  in
  let steals = Array.fold_left (fun acc ws -> acc + ws.stolen) 0 worker_stats in
  let broadcasts = bc1 - bc0
  and p2p = p2p1 - p2p0
  and broadcast_bytes = bcb1 - bcb0
  and p2p_bytes = p2pb1 - p2pb0 in
  let rate v = if wall_s > 0.0 then float_of_int v /. wall_s else 0.0 in
  let aggregate =
    {
      sessions = total;
      consistent;
      shards = nshards;
      per_shard = Array.map (fun (s : Shard.t) -> s.Shard.len) shards;
      broadcasts;
      p2p;
      broadcast_bytes;
      p2p_bytes;
      wall_s;
      sessions_per_sec = rate total;
      msgs_per_sec = rate (broadcasts + p2p);
      bytes_per_sec = rate (broadcast_bytes + p2p_bytes);
      workers;
      steals;
      shard_wall_s = shard_wall;
      session_wall_s = session_wall;
      worker_stats;
    }
  in
  (* Looked up here rather than at module init, so a report of a run
     with no batch (a check, an experiment) lists none of them.
     session.sessions and session.consistent are part of the
     jobs-invariant surface alongside exp.* and sim.*; the session.*
     gauges are wall-clock rates, visibility only. sched.* depends on
     which worker took which shard (except sched.claims, which always
     sums to the shard count), so it is outside that surface. *)
  if Sb_obs.Metrics.enabled () then begin
    let open Sb_obs.Metrics in
    let g_wall = gauge "session.batch_wall_s" in
    incr ~by:total (counter "session.sessions");
    incr ~by:consistent (counter "session.consistent");
    set g_wall (gauge_value g_wall +. wall_s);
    set (gauge "session.sessions_per_sec") aggregate.sessions_per_sec;
    set (gauge "session.msgs_per_sec") aggregate.msgs_per_sec;
    set (gauge "session.bytes_per_sec") aggregate.bytes_per_sec;
    incr ~by:nshards (counter "sched.claims");
    incr ~by:steals (counter "sched.steals");
    (* One observation per worker per batch, so the report's metric
       names do not depend on the pool size. *)
    let observe name v = observe (histogram ("sched.worker." ^ name)) v in
    Array.iter
      (fun ws ->
        observe "shards" (float_of_int ws.shards_run);
        observe "sessions" (float_of_int ws.sessions_run);
        observe "busy_us" (ws.busy_s *. 1e6))
      worker_stats
  end;
  (aggregate, reports)

let session_report_to_json r =
  Sb_obs.Json.Obj
    [
      ("session", Sb_obs.Json.Int r.index);
      ("shard", Sb_obs.Json.Int r.shard);
      ("protocol", Sb_obs.Json.Str r.protocol);
      ("n", Sb_obs.Json.Int r.n);
      ("x", Sb_obs.Json.Str (Bitvec.to_string r.x));
      ("w", Sb_obs.Json.Str (Bitvec.to_string r.w));
      ("consistent", Sb_obs.Json.Bool r.consistent);
      ("rounds", Sb_obs.Json.Int r.rounds);
      ("p2p", Sb_obs.Json.Int r.p2p);
    ]

let aggregate_to_json a =
  Sb_obs.Json.Obj
    [
      ("sessions", Sb_obs.Json.Int a.sessions);
      ("consistent", Sb_obs.Json.Int a.consistent);
      ("shards", Sb_obs.Json.Int a.shards);
      ("broadcasts", Sb_obs.Json.Int a.broadcasts);
      ("p2p_messages", Sb_obs.Json.Int a.p2p);
      ("broadcast_bytes", Sb_obs.Json.Int a.broadcast_bytes);
      ("p2p_bytes", Sb_obs.Json.Int a.p2p_bytes);
      ("wall_s", Sb_obs.Json.Float a.wall_s);
      ("sessions_per_sec", Sb_obs.Json.Float a.sessions_per_sec);
      ("msgs_per_sec", Sb_obs.Json.Float a.msgs_per_sec);
      ("bytes_per_sec", Sb_obs.Json.Float a.bytes_per_sec);
    ]
