type claim = Independence | Parallel_only | Ablation_target
type entry = { protocol : Sb_sim.Protocol.t; claim : claim; min_honest_fraction : string }

let all =
  [
    { protocol = Ideal_sb.protocol; claim = Independence; min_honest_fraction = "any t < n" };
    { protocol = Cgma.protocol; claim = Independence; min_honest_fraction = "t < n/2" };
    { protocol = Chor_rabin.protocol; claim = Independence; min_honest_fraction = "t < n/2" };
    { protocol = Gennaro.protocol; claim = Independence; min_honest_fraction = "t < n/2" };
    { protocol = Pi_g.protocol; claim = Independence; min_honest_fraction = "t < n/2" };
    { protocol = Naive.sequential; claim = Parallel_only; min_honest_fraction = "any t < n" };
    { protocol = Naive.concurrent; claim = Parallel_only; min_honest_fraction = "any t < n" };
  ]

let commit_open =
  { protocol = Commit_open.protocol; claim = Ablation_target; min_honest_fraction = "t < n/2" }

let vss = [ Cgma.protocol; Chor_rabin.protocol; Gennaro.protocol ]

let composed =
  List.map (fun s -> (s, Sb_broadcast.Parallel.concurrent s)) Sb_broadcast.Schemes.all

let substrates = List.map snd composed
let protocols = commit_open.protocol :: List.map (fun e -> e.protocol) all @ substrates
let names = List.map (fun (p : Sb_sim.Protocol.t) -> p.name) protocols

let substrate name =
  List.find_opt
    (fun ((s : Sb_broadcast.Session.scheme), (p : Sb_sim.Protocol.t)) ->
      String.equal name s.scheme_name || String.equal name p.name)
    composed

let scheme name = Option.map fst (substrate name)

let find name =
  match List.find_opt (fun (p : Sb_sim.Protocol.t) -> String.equal p.name name) protocols with
  | Some p -> Some p
  | None -> Option.map snd (substrate name)

let get name =
  match find name with Some p -> p | None -> invalid_arg ("Registry.get: unknown protocol " ^ name)
