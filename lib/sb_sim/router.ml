module Buf = Envelope.Buf

(* One mailbox per party; a broadcast is pushed into every mailbox, so
   an inbox is always its mailbox, sliced in place. [view] is the one
   slice [inbox] hands out. *)
type t = { boxes : Buf.t array; view : Inbox.t; mutable next_seq : int }

let clear t =
  Array.iter Buf.clear t.boxes;
  t.next_seq <- 0

let create ?stash n =
  let boxes =
    match stash with Some s -> Array.sub s 0 n | None -> Array.init n (fun _ -> Buf.create ())
  in
  let t = { boxes; view = Inbox.create (); next_seq = 0 } in
  clear t;
  t

let route t (e : Envelope.t) =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  match e.Envelope.dst with
  | Envelope.Party i -> Buf.push t.boxes.(i) seq e
  | Envelope.All -> Array.iter (fun b -> Buf.push b seq e) t.boxes
  | Envelope.Func -> invalid_arg "Router.route: functionality-bound envelope"

let inbox t i =
  let b = t.boxes.(i) in
  Inbox.set t.view b.envs ~off:0 ~len:b.len;
  t.view

(* K-way merge by stamp, largest first so the list needs no reversal;
   a broadcast sits in every mailbox under one stamp and is taken once.
   A linear max-scan over the few cursors keeps the code free of a
   heap. *)
let merge (bufs : Buf.t array) =
  let pos = Array.map (fun (b : Buf.t) -> b.len - 1) bufs in
  let rec next acc last =
    let best = ref (-1) in
    for j = 0 to Array.length pos - 1 do
      let p = pos.(j) in
      if p >= 0 && (!best < 0 || bufs.(j).seqs.(p) > bufs.(!best).seqs.(pos.(!best))) then best := j
    done;
    if !best < 0 then acc
    else begin
      let b = bufs.(!best) and p = pos.(!best) in
      pos.(!best) <- p - 1;
      if b.seqs.(p) = last then next acc last else next (b.envs.(p) :: acc) b.seqs.(p)
    end
  in
  next [] (-1)

let delivered_to_any t ids = merge (Array.of_list (List.map (fun i -> t.boxes.(i)) ids))
let to_list t = merge t.boxes
let length t = t.next_seq
let total t = Array.fold_left (fun acc (b : Buf.t) -> acc + b.len) 0 t.boxes
