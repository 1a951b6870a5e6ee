(* Order statistics over per-pass samples. Quartiles use the same
   "exclusive" interpolation as Python's statistics.quantiles(n=4), so
   spreads printed here match the ones a Python reader recomputes from
   the same values. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles need two samples; with fewer the spread is reported as 0. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let at i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (at 1, at 3)

let iqr xs =
  let q1, q3 = quartiles xs in
  q3 -. q1

(* The highest of p99.9/p99/p90 that still leaves at least ten samples
   above it, as (label, value); [None] below 100 samples. *)
let tail xs =
  let a = sorted xs in
  let n = float_of_int (Array.length a) in
  List.find_map
    (fun (label, q) ->
      if n *. (1.0 -. q) >= 10.0 then Some (label, a.(int_of_float (q *. n))) else None)
    [ ("p999", 0.999); ("p99", 0.99); ("p90", 0.9) ]
