type endpoint = Party of int | Func | All | Each of int

(* Fields are mutable solely so [Arena] can recycle records on the
   large-n hot path; everywhere else envelopes are treated as
   immutable values (functional update [{ e with ... }] still applies,
   and structural equality is unchanged — no bookkeeping lives in the
   record itself). *)
type t = { mutable src : endpoint; mutable dst : endpoint; mutable body : Msg.t }

(* One shared [Party i] value per party index, so building an
   envelope allocates the record and nothing else; on the arena path a
   fresh endpoint stored into a recycled (major-heap) record would also
   cost a write-barrier entry and a promotion. Beside each endpoint
   sits its header size, which the comm tally reads per envelope. The
   table grows to the largest index served (sizing it up front for the
   largest sweep raised the model checker's peak memory); a grown copy
   keeps every value handed out and is published with a
   compare-and-set, so racing domains agree. Negative indices and
   indices from [max_shared] on get a fresh value. *)
let max_shared = 1 lsl 16

(* Header bytes of a rendered [Party i]: "P" plus the decimal id. *)
let party_header i =
  let rec digits acc n = if n < 10 then acc else digits (acc + 1) (n / 10) in
  1 + digits 1 i

(* [eachs.(j)] is the shared [Each (j + 1)]: a send-all to [j + 1]
   parties needs the table to reach index [j] anyway. *)
type table = { eps : endpoint array; headers : int array; eachs : endpoint array }

let parties : table Atomic.t = Atomic.make { eps = [||]; headers = [||]; eachs = [||] }

let rec grow i =
  let t = Atomic.get parties in
  let len = Array.length t.eps in
  if i < len then t.eps.(i)
  else begin
    let len' = min max_shared (max (i + 1) (max 16 (2 * len))) in
    let eps = Array.init len' (fun j -> if j < len then t.eps.(j) else Party j) in
    let eachs = Array.init len' (fun j -> if j < len then t.eachs.(j) else Each (j + 1)) in
    let t' = { eps; headers = Array.init len' party_header; eachs } in
    if Atomic.compare_and_set parties t t' then eps.(i) else grow i
  end

let party i =
  let t = (Atomic.get parties).eps in
  if i >= 0 && i < Array.length t then Array.unsafe_get t i
  else if i < 0 || i >= max_shared then Party i
  else grow i

let make ~src ~dst body = { src = party src; dst = party dst; body }
let broadcast ~src body = { src = party src; dst = All; body }
let to_func ~src body = { src = party src; dst = Func; body }
let from_func ~dst body = { src = Func; dst = party dst; body }

let each n =
  let t = (Atomic.get parties).eachs in
  if n >= 1 && n <= Array.length t then Array.unsafe_get t (n - 1)
  else if n < 1 || n > max_shared then Each n
  else begin
    ignore (grow (n - 1));
    (Atomic.get parties).eachs.(n - 1)
  end

let src_party e = match e.src with Party i -> Some i | Func | All | Each _ -> None
let src_is e i = match e.src with Party j -> j = i | Func | All | Each _ -> false
let dst_party e = match e.dst with Party i -> Some i | Func | All | Each _ -> None
let is_func_bound e = match e.dst with Func -> true | Party _ | All | Each _ -> false
let is_from_func e = match e.src with Func -> true | Party _ | All | Each _ -> false

let delivered_to e i =
  match e.dst with Party j -> j = i | All -> true | Func -> false | Each n -> i >= 0 && i < n

let copies e = match e.dst with Each n -> n | Party _ | Func | All -> 1

(* Endpoints render as "P<id>", "F" or "*"; [Each n] as the n headers
   "P0" .. "P<n-1>": one "P" and one digit each, plus one more digit
   for every index from each power of ten on. *)
let endpoint_size = function
  | Party i ->
      let h = (Atomic.get parties).headers in
      if i >= 0 && i < Array.length h then Array.unsafe_get h i else party_header i
  | Func | All -> 1
  | Each n ->
      let rec extra acc p = if p >= n then acc else extra (acc + n - p) (p * 10) in
      extra (2 * n) 10

(* Addressing-header bytes of all of the record's envelopes, in O(1). *)
let headers_size e = (copies e * endpoint_size e.src) + endpoint_size e.dst
let wire_size e = headers_size e + (copies e * Msg.size_bytes e.body)

(* Two parallel arrays rather than an array of records, so a push
   allocates nothing once capacity is reached. *)
module Buf = struct
  type env = t
  type t = { mutable seqs : int array; mutable envs : env array; mutable len : int }

  let create () = { seqs = [||]; envs = [||]; len = 0 }
  let clear b = b.len <- 0

  let push b seq e =
    if b.len = Array.length b.envs then begin
      let cap = max 8 (2 * b.len) in
      let seqs = Array.make cap 0 and envs = Array.make cap e in
      Array.blit b.seqs 0 seqs 0 b.len;
      Array.blit b.envs 0 envs 0 b.len;
      b.seqs <- seqs;
      b.envs <- envs
    end;
    Array.unsafe_set b.seqs b.len seq;
    Array.unsafe_set b.envs b.len e;
    b.len <- b.len + 1
end

(* Two-sided envelope arena for the large-n delivery path. Allocation
   draws recycled records from the current side; [flip] switches sides
   and resets the side it lands on, handing its records back for
   reuse. Flipped once per round by [Network.honest_run ~reuse_envelopes],
   this gives every allocation exactly one round of grace: records
   handed out at round r are recycled at round r+2, after their
   delivery round r+1 has consumed them. Bodies are immutable [Msg.t]
   values, so protocol state that retains payloads is unaffected;
   only the envelope records themselves are recycled, which is why
   reuse is incompatible with trace recording, fault delay queues, or
   adversaries that stash delivered envelopes across rounds. [stash]
   keeps the network's mailboxes and outbox across runs. *)
module Arena = struct
  type side = { mutable pool : t array; mutable len : int }

  type arena = { sides : side array; mutable cur : int; mutable flips : int; mutable stash : Buf.t array }

  let fresh () = { src = Func; dst = Func; body = Msg.Unit }

  let create () =
    { sides = [| { pool = [||]; len = 0 }; { pool = [||]; len = 0 } |]; cur = 0; flips = 0; stash = [||] }

  let flips a = a.flips

  let flip a =
    a.cur <- 1 - a.cur;
    a.flips <- a.flips + 1;
    a.sides.(a.cur).len <- 0

  let stash a k =
    let len = Array.length a.stash in
    if len < k then
      a.stash <- Array.init k (fun i -> if i < len then a.stash.(i) else Buf.create ());
    a.stash

  let alloc a ~src ~dst body =
    let s = a.sides.(a.cur) in
    (if s.len = Array.length s.pool then begin
       let cap = max 64 (2 * Array.length s.pool) in
       (* Grow with fresh records in the new slots; the placeholder
          from Array.make never escapes (every slot is overwritten
          before first use). *)
       let grown = Array.make cap (fresh ()) in
       Array.blit s.pool 0 grown 0 s.len;
       for i = s.len to cap - 1 do
         grown.(i) <- fresh ()
       done;
       s.pool <- grown
     end);
    let e = s.pool.(s.len) in
    s.len <- s.len + 1;
    e.src <- src;
    e.dst <- dst;
    e.body <- body;
    e

  let make a ~src ~dst body = alloc a ~src:(party src) ~dst:(party dst) body
end

let to_all ?arena ~n ~src body =
  if n < 1 then invalid_arg "Envelope.to_all: no party";
  match arena with
  | None -> { src = party src; dst = each n; body }
  | Some a -> Arena.alloc a ~src:(party src) ~dst:(each n) body

let copy_to e i = { e with dst = party i }

(* Built back to front, so a send-all costs its n copies and no list
   reversal. *)
let expand_onto e acc =
  match e.dst with
  | Each n ->
      let acc = ref acc in
      for i = n - 1 downto 0 do
        acc := copy_to e i :: !acc
      done;
      !acc
  | Party _ | Func | All -> e :: acc

let pp_endpoint fmt = function
  | Party i -> Format.fprintf fmt "P%d" i
  | Func -> Format.pp_print_string fmt "F"
  | All -> Format.pp_print_string fmt "*"
  | Each n -> Format.fprintf fmt "P0..P%d" (n - 1)

let pp fmt e =
  Format.fprintf fmt "%a->%a: %a" pp_endpoint e.src pp_endpoint e.dst Msg.pp e.body
