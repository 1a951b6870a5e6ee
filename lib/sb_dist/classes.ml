type verdict = {
  independent : bool;
  psi_l : bool;
  psi_c : bool;
  local_gaps : (int * float) list;
  indep_gaps : (int * float) list;
}

let classify ?(ks = Ensemble.default_ks) (e : Ensemble.t) =
  let local_gaps = List.map (fun k -> (k, Ensemble.local_gap_at e k)) ks in
  let indep_gaps = List.map (fun k -> (k, Ensemble.independence_gap_at e k)) ks in
  let decay gaps = Ensemble.classify_decay (fun k -> List.assoc k gaps) ~ks in
  let local_decay = decay local_gaps in
  let indep_decay = decay indep_gaps in
  let vanishes = function Ensemble.Zero | Ensemble.Vanishing -> true | Ensemble.Persistent -> false in
  {
    independent = indep_decay = Ensemble.Zero;
    psi_l = vanishes local_decay;
    psi_c = vanishes indep_decay;
    local_gaps;
    indep_gaps;
  }

let check_hierarchy v =
  (* independent => psi_l => psi_c *)
  ((not v.independent) || v.psi_l) && ((not v.psi_l) || v.psi_c)

let pp fmt v =
  Format.fprintf fmt "independent=%b psi_L=%b psi_C=%b" v.independent v.psi_l v.psi_c
