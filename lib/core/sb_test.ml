open Sb_util

type simulator = {
  sim_name : string;
  simulate :
    Setup.t ->
    rng:Rng.t ->
    corrupted:int list ->
    inputs_b:(int * bool) list ->
    (int * bool) list;
}

let truthful = { sim_name = "truthful"; simulate = (fun _ ~rng:_ ~corrupted:_ ~inputs_b -> inputs_b) }

let constant b =
  {
    sim_name = Printf.sprintf "constant(%b)" b;
    simulate = (fun _ ~rng:_ ~corrupted:_ ~inputs_b -> List.map (fun (i, _) -> (i, b)) inputs_b);
  }

let sandbox ~protocol ~adversary =
  {
    sim_name = "sandbox(" ^ protocol.Sb_sim.Protocol.name ^ ")";
    simulate =
      (fun setup ~rng ~corrupted ~inputs_b ->
        (* Dummy honest inputs, real corrupted inputs. *)
        let x =
          Bitvec.init setup.Setup.n (fun i ->
              match List.assoc_opt i inputs_b with Some b -> b | None -> false)
        in
        let run = Announced.run_once setup ~protocol ~adversary ~x rng in
        List.map (fun i -> (i, Bitvec.get run.Announced.w i)) corrupted);
  }

type falsifier_result = {
  falsifier : string;
  real_p : Sb_stats.Estimate.interval;
  ideal_max : float;
  ideal_min : float;
  verdict : Sb_stats.Verdict.t;
}

type result = {
  falsifiers : falsifier_result list;
  sim_tvd : float option;
  baseline_tvd : float option;
  verdict : Sb_stats.Verdict.t;
}

(* A (φ, ψ) pair: φ reads the corrupted announced bits, ψ the honest
   input bits; both receive the FULL vector plus the relevant index
   set, to keep the battery simple. *)
type probe = {
  probe_name : string;
  phi : Bitvec.t -> int list -> bool; (* announced, corrupted *)
  psi : Bitvec.t -> int list -> bool; (* inputs, honest *)
}

let probes ~corrupted ~honest =
  let bit_of i = (Printf.sprintf "W[%d]" i, fun (v : Bitvec.t) (_ : int list) -> Bitvec.get v i) in
  let xor_of s = ("xor", fun (v : Bitvec.t) (_ : int list) ->
        List.fold_left (fun acc i -> if Bitvec.get v i then not acc else acc) false s)
  in
  let phis =
    List.map (fun i -> bit_of i) corrupted
    @ (if List.length corrupted >= 2 then [ xor_of corrupted ] else [])
  in
  let psis =
    List.map (fun j -> bit_of j) honest
    @ (if List.length honest >= 2 then [ xor_of honest ] else [])
  in
  List.concat_map
    (fun (pn, phi) ->
      List.map
        (fun (qn, psi) ->
          { probe_name = Printf.sprintf "phi=%s vs psi=%s" pn qn; phi; psi })
        psis)
    phis

(* E_{x_B} [ max_b Pr(psi(x_honest) = b | x_B) ], exactly from the pmf. *)
let ideal_band dist ~corrupted ~honest psi =
  let n = Sb_dist.Dist.n dist in
  let total = ref 0.0 in
  (* Group mass by the corrupted-coordinate assignment. *)
  let groups : (int, float ref * float ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let p = Sb_dist.Dist.prob dist v in
      if p > 0.0 then begin
        let key = Bitvec.to_int (Bitvec.of_bools (Bitvec.proj v corrupted)) in
        let mass, ones =
          match Hashtbl.find_opt groups key with
          | Some pair -> pair
          | None ->
              let pair = (ref 0.0, ref 0.0) in
              Hashtbl.replace groups key pair;
              pair
        in
        mass := !mass +. p;
        if psi v honest then ones := !ones +. p
      end)
    (Bitvec.all n);
  Hashtbl.iter
    (fun _ (mass, ones) ->
      let p1 = !ones /. !mass in
      total := !total +. (!mass *. Float.max p1 (1.0 -. p1)))
    groups;
  !total

let run setup ~protocol ~adversary ~dist ?simulator () =
  let n = setup.Setup.n in
  let corrupted = Announced.corrupted_of setup ~protocol ~adversary in
  let honest = Subset.complement n corrupted in
  let rng = Rng.create setup.Setup.seed in
  (* Collect real runs once; reuse for all probes and the TVD. Chunks
     fill disjoint index-addressed slots of one shared array (the pool
     barrier publishes the writes), then runs are laid out newest-first
     — the order the old sequential list accumulation produced — so
     parity-based splits below are unchanged. *)
  let nruns = setup.Setup.samples in
  let slots : Announced.run option array = Array.make nruns None in
  let () =
    Announced.psample setup ~protocol ~adversary ~dist
      ~init:(fun () -> slots)
      ~f:(fun slots i r -> slots.(i) <- Some r)
      ~merge:(fun ~into:_ _ -> ())
      rng
    |> ignore
  in
  let runs =
    Array.init nruns (fun j ->
        match slots.(nruns - 1 - j) with Some r -> r | None -> assert false)
  in
  let falsifiers =
    if corrupted = [] then []
    else
      List.map
        (fun probe ->
          let hits = ref 0 in
          Array.iter
            (fun (r : Announced.run) ->
              if probe.phi r.Announced.w corrupted = probe.psi r.Announced.x honest then
                incr hits)
            runs;
          let real_p = Sb_stats.Estimate.wilson ~successes:!hits nruns in
          let ideal_max = ideal_band dist ~corrupted ~honest probe.psi in
          let ideal_min = 1.0 -. ideal_max in
          let slack = 0.03 in
          let verdict =
            if real_p.Sb_stats.Estimate.lo > ideal_max +. slack then Sb_stats.Verdict.Fail
            else if real_p.Sb_stats.Estimate.hi < ideal_min -. slack then Sb_stats.Verdict.Fail
            else Sb_stats.Verdict.Pass
          in
          { falsifier = probe.probe_name; real_p; ideal_max; ideal_min; verdict })
        (probes ~corrupted ~honest)
  in
  (* Simulator comparison: real joint (x, w) vs ideal joint. *)
  let joint_key (r : Announced.run) =
    Bitvec.to_int r.Announced.x lor (Bitvec.to_int r.Announced.w lsl n)
  in
  let sim_tvd, baseline_tvd =
    match simulator with
    | None -> (None, None)
    | Some sim ->
        let table () = Sb_stats.Counts.create (2 * n) in
        let real_a = table () and real_b = table () and ideal = table () in
        Array.iteri
          (fun idx r ->
            let t = if idx mod 2 = 0 then real_a else real_b in
            Sb_stats.Counts.add t (Bitvec.of_int (2 * n) (joint_key r)))
          runs;
        let sim_rng = Rng.create (setup.Setup.seed + 101) in
        for _ = 1 to nruns do
          let x = Sb_dist.Dist.sample dist (Rng.split sim_rng) in
          let inputs_b = List.map (fun i -> (i, Bitvec.get x i)) corrupted in
          let w_b = sim.simulate setup ~rng:(Rng.split sim_rng) ~corrupted ~inputs_b in
          let w =
            Bitvec.init n (fun i ->
                match List.assoc_opt i w_b with Some b -> b | None -> Bitvec.get x i)
          in
          let key = Bitvec.to_int x lor (Bitvec.to_int w lsl n) in
          Sb_stats.Counts.add ideal (Bitvec.of_int (2 * n) key)
        done;
        let real_full = table () in
        Array.iter (fun r -> Sb_stats.Counts.add real_full (Bitvec.of_int (2 * n) (joint_key r))) runs;
        ( Some (Sb_stats.Counts.empirical_tvd real_full ideal),
          Some (Sb_stats.Counts.empirical_tvd real_a real_b) )
  in
  let falsifier_verdicts = List.map (fun (f : falsifier_result) -> f.verdict) falsifiers in
  let verdict =
    if List.exists (fun v -> v = Sb_stats.Verdict.Fail) falsifier_verdicts then
      Sb_stats.Verdict.Fail
    else
      match (sim_tvd, baseline_tvd) with
      | Some tvd, Some base ->
          if tvd <= (base *. 1.5) +. 0.02 then Sb_stats.Verdict.Pass
          else Sb_stats.Verdict.Inconclusive
      | _ -> if corrupted = [] then Sb_stats.Verdict.Pass else Sb_stats.Verdict.Inconclusive
  in
  { falsifiers; sim_tvd; baseline_tvd; verdict }
