type endpoint = Party of int | Func | All

(* Fields are mutable solely so [Arena] can recycle records on the
   large-n hot path; everywhere else envelopes are treated as
   immutable values (functional update [{ e with ... }] still applies,
   and structural equality is unchanged — no bookkeeping lives in the
   record itself). *)
type t = { mutable src : endpoint; mutable dst : endpoint; mutable body : Msg.t }

(* One shared [Party i] value per party index, so building an
   envelope allocates the record and nothing else. Both the plain
   constructors and the [Arena] read this table: on the arena path a
   fresh endpoint stored into a recycled (major-heap) record would
   also cost a write-barrier entry and a promotion. The table grows to
   the largest index served (one sized up front for the largest sweep
   measurably raised the model checker's peak resident memory); a
   grown copy keeps every value already handed out and is published
   with a compare-and-set, so domains that race to grow it agree on
   the values. Endpoints are immutable,
   so sharing them changes no structural comparison; negative indices
   and indices from [max_shared] on get a fresh value. *)
let max_shared = 1 lsl 16
let parties : endpoint array Atomic.t = Atomic.make [||]

let rec grow i =
  let t = Atomic.get parties in
  let len = Array.length t in
  if i < len then t.(i)
  else begin
    let len' = min max_shared (max (i + 1) (max 16 (2 * len))) in
    let t' = Array.init len' (fun j -> if j < len then t.(j) else Party j) in
    if Atomic.compare_and_set parties t t' then t'.(i) else grow i
  end

let party i =
  let t = Atomic.get parties in
  if i >= 0 && i < Array.length t then Array.unsafe_get t i
  else if i < 0 || i >= max_shared then Party i
  else grow i

let make ~src ~dst body = { src = party src; dst = party dst; body }
let broadcast ~src body = { src = party src; dst = All; body }
let to_func ~src body = { src = party src; dst = Func; body }
let from_func ~dst body = { src = Func; dst = party dst; body }

let to_all ~n ~src body =
  let from = party src in
  List.init n (fun dst -> { src = from; dst = party dst; body })

let to_others ~n ~src body =
  List.filter_map (fun dst -> if dst = src then None else Some (make ~src ~dst body)) (List.init n Fun.id)

let src_party e = match e.src with Party i -> Some i | Func | All -> None
let src_is e i = match e.src with Party j -> j = i | Func | All -> false
let dst_party e = match e.dst with Party i -> Some i | Func | All -> None
let is_broadcast e = match e.dst with All -> true | Party _ | Func -> false
let is_func_bound e = match e.dst with Func -> true | Party _ | All -> false
let is_from_func e = match e.src with Func -> true | Party _ | All -> false

let delivered_to e i =
  match e.dst with Party j -> j = i | All -> true | Func -> false

(* The one tagged inbox scan: every substrate and VSS party reads its
   inbox through these once per step, so they read the sender field
   in place and build no option or list per envelope. *)
let rec iter_from_parties ~tag f = function
  | [] -> ()
  | { body = Msg.Tag (t, m); src = Party src; _ } :: rest when String.equal t tag ->
      f src m;
      iter_from_parties ~tag f rest
  | _ :: rest -> iter_from_parties ~tag f rest

let rec first_from ~tag ~src = function
  | [] -> None
  | { body = Msg.Tag (t, m); src = Party s; _ } :: _ when s = src && String.equal t tag ->
      Some m
  | _ :: rest -> first_from ~tag ~src rest

(* Addressing header cost: endpoints render as "P<id>", "F" or "*"
   (one char plus the decimal id for parties). *)
let endpoint_size = function
  | Party i ->
      let rec digits acc n = if n < 10 then acc else digits (acc + 1) (n / 10) in
      1 + digits 1 i
  | Func | All -> 1

let wire_size e = endpoint_size e.src + endpoint_size e.dst + Msg.size_bytes e.body

(* Two-sided envelope arena for the large-n delivery path. Allocation
   draws recycled records from the current side; [flip] switches sides
   and resets the side it lands on, handing its records back for
   reuse. Flipped once per round by [Network.run ~reuse_envelopes],
   this gives every allocation exactly one round of grace: records
   handed out at round r are recycled at round r+2, after their
   delivery round r+1 has consumed them. Bodies are immutable [Msg.t]
   values, so protocol state that retains payloads is unaffected;
   only the envelope records themselves are recycled, which is why
   reuse is incompatible with trace recording, fault delay queues, or
   adversaries that stash delivered envelopes across rounds. The
   endpoints come from the shared [parties] table above. *)
module Arena = struct
  type side = { mutable pool : t array; mutable len : int }

  type arena = { sides : side array; mutable cur : int; mutable flips : int }

  let fresh () = { src = Func; dst = Func; body = Msg.Unit }

  let create () =
    {
      sides = [| { pool = [||]; len = 0 }; { pool = [||]; len = 0 } |];
      cur = 0;
      flips = 0;
    }

  let flips a = a.flips

  let flip a =
    a.cur <- 1 - a.cur;
    a.flips <- a.flips + 1;
    a.sides.(a.cur).len <- 0

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

  let to_all a ~n ~src body =
    let from = party src in
    List.init n (fun dst -> alloc a ~src:from ~dst:(party dst) body)
end

let pp_endpoint fmt = function
  | Party i -> Format.fprintf fmt "P%d" i
  | Func -> Format.pp_print_string fmt "F"
  | All -> Format.pp_print_string fmt "*"

let pp fmt e =
  Format.fprintf fmt "%a->%a: %a" pp_endpoint e.src pp_endpoint e.dst Msg.pp e.body
