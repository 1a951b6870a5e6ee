type table = { counts : int array; mutable total : int }

let create n =
  if n < 0 || n > 20 then invalid_arg "Counts.create";
  { counts = Array.make (1 lsl n) 0; total = 0 }

let add t v =
  t.counts.(Sb_util.Bitvec.to_int v) <- t.counts.(Sb_util.Bitvec.to_int v) + 1;
  t.total <- t.total + 1

let empirical_tvd a b =
  if Array.length a.counts <> Array.length b.counts then invalid_arg "Counts.empirical_tvd";
  if a.total = 0 || b.total = 0 then invalid_arg "Counts.empirical_tvd: empty table";
  let na = float_of_int a.total and nb = float_of_int b.total in
  let acc = ref 0.0 in
  Array.iteri
    (fun i ca ->
      acc := !acc +. Float.abs ((float_of_int ca /. na) -. (float_of_int b.counts.(i) /. nb)))
    a.counts;
  !acc /. 2.0

type event = { mutable n : int; mutable na : int; mutable nb : int; mutable nab : int }

let event_pair () = { n = 0; na = 0; nb = 0; nab = 0 }

let record e ~a ~b =
  e.n <- e.n + 1;
  if a then e.na <- e.na + 1;
  if b then e.nb <- e.nb + 1;
  if a && b then e.nab <- e.nab + 1

let event_merge_into ~into src =
  into.n <- into.n + src.n;
  into.na <- into.na + src.na;
  into.nb <- into.nb + src.nb;
  into.nab <- into.nab + src.nab

let gap e =
  if e.n = 0 then invalid_arg "Counts.gap: no trials";
  let joint = Estimate.wilson ~successes:e.nab e.n in
  let left = Estimate.wilson ~successes:e.na e.n in
  let right = Estimate.wilson ~successes:e.nb e.n in
  Estimate.correlation_gap ~joint ~left ~right
