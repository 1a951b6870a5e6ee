open Sb_util

let push_deterministic dist f =
  let n = Sb_dist.Dist.n dist in
  let out = Array.make (1 lsl n) 0.0 in
  List.iter
    (fun v ->
      let p = Sb_dist.Dist.prob dist v in
      if p > 0.0 then begin
        let w = f v in
        let idx = Bitvec.to_int w in
        out.(idx) <- out.(idx) +. p
      end)
    (Bitvec.all n);
  Sb_dist.Dist.of_pmf n out

let push_coin dist f =
  let n = Sb_dist.Dist.n dist in
  let out = Array.make (1 lsl n) 0.0 in
  List.iter
    (fun v ->
      let p = Sb_dist.Dist.prob dist v in
      if p > 0.0 then
        List.iter
          (fun coin ->
            let w = f ~coin v in
            let idx = Bitvec.to_int w in
            out.(idx) <- out.(idx) +. (p /. 2.0))
          [ false; true ])
    (Bitvec.all n);
  Sb_dist.Dist.of_pmf n out

let echo_map ~copier ~target v = Bitvec.set v copier (Bitvec.get v target)

let pi_g_astar_map ~l1 ~l2 ~coin v =
  assert (l1 < l2);
  let y = ref false in
  for i = 0 to Bitvec.length v - 1 do
    if i <> l1 && i <> l2 && Bitvec.get v i then y := not !y
  done;
  Bitvec.set (Bitvec.set v l1 coin) l2 (coin <> !y)

(* Exact maximum over honest parties and predicates of
   |Pr(W_i=0)·Pr(R(W_-i)) - Pr(W_i=0 ∧ R(W_-i))| for W drawn from the
   given announced-value distribution. *)
let cr_gap w_dist ~honest ~predicates =
  let n = Sb_dist.Dist.n w_dist in
  let vectors = Bitvec.all n in
  let worst = ref 0.0 in
  List.iter
    (fun i ->
      List.iter
        (fun (pred : Predicate.t) ->
          let p_zero = ref 0.0 and p_r = ref 0.0 and p_joint = ref 0.0 in
          List.iter
            (fun w ->
              let p = Sb_dist.Dist.prob w_dist w in
              if p > 0.0 then begin
                let zero = not (Bitvec.get w i) in
                let reduced =
                  Array.of_list
                    (List.filteri (fun j _ -> j <> i) (Array.to_list (Bitvec.to_bools w)))
                in
                let r = pred.Predicate.eval reduced in
                if zero then p_zero := !p_zero +. p;
                if r then p_r := !p_r +. p;
                if zero && r then p_joint := !p_joint +. p
              end)
            vectors;
          let gap = Float.abs ((!p_zero *. !p_r) -. !p_joint) in
          if gap > !worst then worst := gap)
        predicates)
    honest;
  !worst

let cr_gap_battery w_dist ~honest =
  cr_gap w_dist ~honest ~predicates:(Predicate.battery ~n:(Sb_dist.Dist.n w_dist))

let g_gap w_dist ~corrupted =
  let n = Sb_dist.Dist.n w_dist in
  let honest = Subset.complement n corrupted in
  let worst = ref 0.0 in
  List.iter
    (fun i ->
      (* Conditional one-probabilities of W_i per honest-vector value. *)
      let conds =
        List.filter_map
          (fun hv ->
            (* hv indexes an assignment to the honest coordinates. *)
            let w0 = Bitvec.zero n in
            let assignment =
              Bitvec.combine w0 honest
                (Array.init (List.length honest) (fun pos -> (hv lsr pos) land 1 = 1))
            in
            match Sb_dist.Dist.cond_proj_pmf w_dist ~of_:[ i ] ~given:honest assignment with
            | Some pmf -> Some pmf.(1)
            | None -> None)
          (List.init (1 lsl List.length honest) Fun.id)
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let gap = Float.abs (a -. b) in
              if gap > !worst then worst := gap)
            conds)
        conds)
    corrupted;
  !worst
