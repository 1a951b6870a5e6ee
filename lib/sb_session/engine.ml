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

(* Deterministic batch counters; the per-shard counters are keyed by
   shard index (fixed layout), not by pool domain, so they are part of
   the jobs-invariant surface alongside exp.* and sim.*. *)
let m_sessions = Sb_obs.Metrics.counter "session.sessions"
let m_consistent = Sb_obs.Metrics.counter "session.consistent"

(* Wall-clock-derived rates: visibility only, never diffed. *)
let g_wall = Sb_obs.Metrics.gauge "session.batch_wall_s"
let g_sessions_ps = Sb_obs.Metrics.gauge "session.sessions_per_sec"
let g_msgs_ps = Sb_obs.Metrics.gauge "session.msgs_per_sec"
let g_bytes_ps = Sb_obs.Metrics.gauge "session.bytes_per_sec"

(* Scheduler observability. Everything under sched.* depends on how
   the claiming race unfolds (except sched.claims, which always sums
   to the shard count), so the prefix is deliberately OUTSIDE the
   jobs-invariant surface the CI smoke steps compare (exp./sim./
   fault./session.). *)
let m_claims = Sb_obs.Metrics.counter "sched.claims"
let m_steals = Sb_obs.Metrics.counter "sched.steals"

(* Metric handles are interned per index instead of re-running
   Printf.sprintf + registry lookup on every batch. The tables are
   touched only from the submitting thread: shard counters are
   pre-resolved into an array before the parallel section, worker
   stats are recorded after the join. *)
let interned tbl make k =
  match Hashtbl.find_opt tbl k with
  | Some h -> h
  | None ->
      let h = make k in
      Hashtbl.add tbl k h;
      h

let shard_counter =
  let tbl = Hashtbl.create 64 in
  fun k ->
    interned tbl
      (fun k -> Sb_obs.Metrics.counter (Printf.sprintf "session.shard%d.sessions" k))
      k

let worker_shards_counter =
  let tbl = Hashtbl.create 16 in
  fun w ->
    interned tbl
      (fun w -> Sb_obs.Metrics.counter (Printf.sprintf "sched.worker%d.shards" w))
      w

let worker_sessions_counter =
  let tbl = Hashtbl.create 16 in
  fun w ->
    interned tbl
      (fun w -> Sb_obs.Metrics.counter (Printf.sprintf "sched.worker%d.sessions" w))
      w

let worker_busy_gauge =
  let tbl = Hashtbl.create 16 in
  fun w ->
    interned tbl
      (fun w -> Sb_obs.Metrics.gauge (Printf.sprintf "sched.worker%d.busy_s" w))
      w

let comm_snapshot () =
  let c name = Sb_obs.Metrics.counter_value (Sb_obs.Metrics.counter name) in
  (c "sim.broadcasts", c "sim.p2p", c "sim.bytes.broadcast", c "sim.bytes.p2p")

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

let consistent_w ~n outputs =
  let vectors = List.map (fun (_, m) -> Core.Announced.to_vector n m) outputs in
  match vectors with
  | [] -> (Bitvec.zero n, false)
  | Some first :: rest ->
      (first, List.for_all (function Some v -> Bitvec.equal v first | None -> false) rest)
  | None :: _ -> (Bitvec.zero n, false)

let run ?pool ?(adversary = Core.Adversaries.passive) ~setup ~dist
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
  let counters = Array.map (fun (sh : Shard.t) -> shard_counter sh.Shard.index) shards in
  let results : session_report array array = Array.make nshards [||] in
  let shard_wall = Array.make nshards 0.0 in
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
            Network.run ctx ~rng:streams.((2 * i) + 1) ~protocol:s.protocol ~adversary
              ~inputs ?faults ~record_trace:false ()
          in
          let w, consistent = consistent_w ~n r.Network.outputs in
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
    if Sb_obs.Metrics.enabled () then begin
      Sb_obs.Metrics.incr ~by:sh.Shard.len counters.(sh.Shard.index);
      Core.Announced.note_domain_samples sh.Shard.len
    end;
    shard_wall.(sh.Shard.index) <- Unix.gettimeofday () -. t0;
    reports
  in
  let comm0 = comm_snapshot () in
  let t0 = Unix.gettimeofday () in
  (* One long-lived task per worker slot; each loops claiming shard
     indices from a shared atomic counter. Results land in distinct
     slots of [results] and are merged by shard index, so the outcome
     is independent of who claimed what. A claim outside the worker's
     contiguous home range (the even split of shards over workers)
     counts as a steal. *)
  let workers = Sb_par.Pool.size pool in
  let next = Atomic.make 0 in
  let home_of = Array.make nshards 0 in
  Array.iteri
    (fun w (c : Sb_par.Partition.chunk) ->
      for k = c.Sb_par.Partition.lo to c.Sb_par.Partition.lo + c.Sb_par.Partition.len - 1 do
        home_of.(k) <- w
      done)
    (Sb_par.Partition.chunks ~total:nshards ~jobs:workers);
  let worker_stats =
    Sb_par.Pool.map_chunks pool (Array.init workers Fun.id) ~f:(fun w ->
        let t0 = Unix.gettimeofday () in
        let claimed = ref 0 and stolen = ref 0 and sess = ref 0 in
        let rec loop () =
          let k = Atomic.fetch_and_add next 1 in
          if k < nshards then begin
            results.(k) <- run_shard shards.(k);
            incr claimed;
            if home_of.(k) <> w then incr stolen;
            sess := !sess + shards.(k).Shard.len;
            loop ()
          end
        in
        loop ();
        {
          worker = w;
          shards_run = !claimed;
          stolen = !stolen;
          sessions_run = !sess;
          busy_s = Unix.gettimeofday () -. t0;
        })
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let bc0, p2p0, bcb0, p2pb0 = comm0 in
  let bc1, p2p1, bcb1, p2pb1 = comm_snapshot () in
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
  if Sb_obs.Metrics.enabled () then begin
    Sb_obs.Metrics.incr ~by:total m_sessions;
    Sb_obs.Metrics.incr ~by:consistent m_consistent;
    Sb_obs.Metrics.set g_wall (Sb_obs.Metrics.gauge_value g_wall +. wall_s);
    Sb_obs.Metrics.set g_sessions_ps aggregate.sessions_per_sec;
    Sb_obs.Metrics.set g_msgs_ps aggregate.msgs_per_sec;
    Sb_obs.Metrics.set g_bytes_ps aggregate.bytes_per_sec;
    Sb_obs.Metrics.incr ~by:nshards m_claims;
    Sb_obs.Metrics.incr ~by:steals m_steals;
    Array.iter
      (fun ws ->
        Sb_obs.Metrics.incr ~by:ws.shards_run (worker_shards_counter ws.worker);
        Sb_obs.Metrics.incr ~by:ws.sessions_run (worker_sessions_counter ws.worker);
        let g = worker_busy_gauge ws.worker in
        Sb_obs.Metrics.set g (Sb_obs.Metrics.gauge_value g +. ws.busy_s))
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
