type t = { name : string; n : int; at : int -> Dist.t }

let make ~name ~n at =
  assert (n >= 1);
  { name; n; at }

let constant ~name d = { name; n = Dist.n d; at = (fun _ -> d) }
let local_gap_at e k = Dist.local_gap (e.at k)
let independence_gap_at e k = Dist.independence_gap (e.at k)

type decay = Zero | Vanishing | Persistent

let classify_decay gap ~ks =
  let gaps = List.map gap ks in
  if List.for_all (fun g -> g < 1e-9) gaps then Zero
  else
    let first = List.hd gaps in
    let last = List.nth gaps (List.length gaps - 1) in
    let non_increasing =
      let rec go = function
        | a :: (b :: _ as rest) -> b <= (a *. 1.1) +. 1e-12 && go rest
        | _ -> true
      in
      go gaps
    in
    if non_increasing && last < Float.max 1e-3 (first /. 2.0) then Vanishing else Persistent

let default_ks = [ 4; 6; 8; 12; 16 ]
