module Buf = Envelope.Buf

(* One mailbox per party for direct and functionality-sourced traffic,
   and one shared lane for broadcasts and send-alls: each record is held
   once, under its stamp. An inbox is the lane itself when it is all
   party [i] receives, its mailbox when the lane is empty, and otherwise
   the two merged by stamp into [scratch]. [view] is the one slice
   [inbox] hands out. [reach] is the smallest [n] of the lane's send-all
   records ([max_int] if none): every lane record reaches the parties
   below it. [fanout] counts the lane's deliveries for [total]. *)
type t = {
  boxes : Buf.t array;
  lane : Buf.t;
  scratch : Buf.t;
  view : Inbox.t;
  mutable next_seq : int;
  mutable reach : int;
  mutable fanout : int;
}

let clear t =
  Array.iter Buf.clear t.boxes;
  Buf.clear t.lane;
  t.next_seq <- 0;
  t.reach <- max_int;
  t.fanout <- 0

let create ?stash n =
  let bufs =
    match stash with Some s -> s | None -> Array.init (n + 2) (fun _ -> Buf.create ())
  in
  let t =
    {
      boxes = Array.sub bufs 0 n;
      lane = bufs.(n);
      scratch = bufs.(n + 1);
      view = Inbox.create ();
      next_seq = 0;
      reach = max_int;
      fanout = 0;
    }
  in
  clear t;
  t

let route t (e : Envelope.t) =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  match e.Envelope.dst with
  | Envelope.Party i -> Buf.push t.boxes.(i) seq e
  | Envelope.All ->
      Buf.push t.lane seq e;
      t.fanout <- t.fanout + Array.length t.boxes
  | Envelope.Each n ->
      Buf.push t.lane seq e;
      if n < t.reach then t.reach <- n;
      t.fanout <- t.fanout + min n (Array.length t.boxes)
  | Envelope.Func -> invalid_arg "Router.route: functionality-bound envelope"

(* Party [i]'s mailbox and the lane records that reach it, by stamp. *)
let merge_into s (b : Buf.t) (lane : Buf.t) i =
  Buf.clear s;
  let j = ref 0 in
  for k = 0 to lane.len - 1 do
    let seq = Array.unsafe_get lane.seqs k in
    while !j < b.len && Array.unsafe_get b.seqs !j < seq do
      Buf.push s (Array.unsafe_get b.seqs !j) (Array.unsafe_get b.envs !j);
      incr j
    done;
    let e = Array.unsafe_get lane.envs k in
    if Envelope.delivered_to e i then Buf.push s seq e
  done;
  for j = !j to b.len - 1 do
    Buf.push s (Array.unsafe_get b.seqs j) (Array.unsafe_get b.envs j)
  done

let inbox t i =
  let b = t.boxes.(i) and lane = t.lane in
  let src =
    if lane.len = 0 then b
    else if b.len = 0 && i < t.reach then lane
    else begin
      merge_into t.scratch b lane i;
      t.scratch
    end
  in
  Inbox.set t.view src.envs ~off:0 ~len:src.len;
  t.view

(* K-way merge by stamp over the mailboxes of [ids] (ascending) and the
   lane, largest first so the list needs no reversal; every record sits
   in one buffer under its own stamp. A broadcast is taken as itself,
   a send-all as its copies to the parties in [ids] it reaches. A
   linear max-scan over the few cursors keeps the code free of a heap. *)
let merge t ids =
  if ids = [||] then []
  else begin
    let bufs = Array.append (Array.map (fun i -> t.boxes.(i)) ids) [| t.lane |] in
    let pos = Array.map (fun (b : Buf.t) -> b.len - 1) bufs in
    let rec next acc =
      let best = ref (-1) in
      for j = 0 to Array.length pos - 1 do
        let p = pos.(j) in
        if p >= 0 && (!best < 0 || bufs.(j).seqs.(p) > bufs.(!best).seqs.(pos.(!best))) then best := j
      done;
      if !best < 0 then acc
      else begin
        let b = bufs.(!best) and p = pos.(!best) in
        pos.(!best) <- p - 1;
        let e = b.envs.(p) in
        let copy i acc = if Envelope.delivered_to e i then Envelope.copy_to e i :: acc else acc in
        match e.Envelope.dst with
        | Envelope.Each _ -> next (Array.fold_right copy ids acc)
        | Envelope.Party _ | Envelope.Func | Envelope.All -> next (e :: acc)
      end
    in
    next []
  end

let delivered_to_any t ids = merge t (Array.of_list (List.sort_uniq compare ids))
let to_list t = merge t (Array.init (Array.length t.boxes) Fun.id)
let total t = Array.fold_left (fun acc (b : Buf.t) -> acc + b.len) t.fanout t.boxes
