module Buf = Envelope.Buf

(* One mailbox per party; a broadcast is pushed into every mailbox and
   a send-all into the first n, so an inbox is always its mailbox,
   sliced in place. [view] is the one slice [inbox] hands out. *)
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
  | Envelope.Each n ->
      for i = 0 to n - 1 do
        Buf.push t.boxes.(i) seq e
      done
  | Envelope.Func -> invalid_arg "Router.route: functionality-bound envelope"

let inbox t i =
  let b = t.boxes.(i) in
  Inbox.set t.view b.envs ~off:0 ~len:b.len;
  t.view

(* K-way merge by stamp over the mailboxes of [ids] (ascending), largest
   first so the list needs no reversal; a broadcast sits in every
   mailbox under one stamp and is taken once, and a send-all is taken
   once as its copies to the parties in [ids]. A linear max-scan over
   the few cursors keeps the code free of a heap. *)
let merge t ids =
  let bufs = Array.map (fun i -> t.boxes.(i)) ids in
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
      if b.seqs.(p) = last then next acc last
      else
        let e = b.envs.(p) in
        let copy i acc = if Envelope.delivered_to e i then Envelope.copy_to e i :: acc else acc in
        match e.Envelope.dst with
        | Envelope.Each _ -> next (Array.fold_right copy ids acc) b.seqs.(p)
        | Envelope.Party _ | Envelope.Func | Envelope.All -> next (e :: acc) b.seqs.(p)
    end
  in
  next [] (-1)

let delivered_to_any t ids = merge t (Array.of_list (List.sort_uniq compare ids))
let to_list t = merge t (Array.init (Array.length t.boxes) Fun.id)
let total t = Array.fold_left (fun acc (b : Buf.t) -> acc + b.len) 0 t.boxes
