type endpoint = Party of int | Func | All

(* Fields are mutable solely so [Arena] can recycle records on the
   large-n hot path; everywhere else envelopes are treated as
   immutable values (functional update [{ e with ... }] still applies,
   and structural equality is unchanged — no bookkeeping lives in the
   record itself). *)
type t = { mutable src : endpoint; mutable dst : endpoint; mutable body : Msg.t }

let make ~src ~dst body = { src = Party src; dst = Party dst; body }
let broadcast ~src body = { src = Party src; dst = All; body }
let to_func ~src body = { src = Party src; dst = Func; body }
let from_func ~dst body = { src = Func; dst = Party dst; body }
let to_all ~n ~src body = List.init n (fun dst -> make ~src ~dst body)
let to_others ~n ~src body =
  List.filter_map (fun dst -> if dst = src then None else Some (make ~src ~dst body)) (List.init n Fun.id)

let src_party e = match e.src with Party i -> Some i | Func | All -> None
let src_is e i = match e.src with Party j -> j = i | Func | All -> false
let dst_party e = match e.dst with Party i -> Some i | Func | All -> None
let is_broadcast e = e.dst = All
let is_func_bound e = e.dst = Func
let is_from_func e = e.src = Func

let delivered_to e i =
  match e.dst with Party j -> j = i | All -> true | Func -> false

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
   adversaries that stash delivered envelopes across rounds.

   The endpoints are shared too: [ends.(i)] is the one [Party i] value
   every arena envelope from or to party i carries, grown to the
   largest n served. A recycled record has long since been promoted to
   the major heap, so storing a freshly allocated [Party i] into it
   would cost a write-barrier entry and then promote the endpoint at
   the next minor collection — twice per envelope. Endpoints are
   immutable, so sharing them changes no structural comparison. *)
module Arena = struct
  type side = { mutable pool : t array; mutable len : int }

  type arena = {
    sides : side array;
    mutable cur : int;
    mutable flips : int;
    mutable ends : endpoint array;
  }

  let fresh () = { src = Func; dst = Func; body = Msg.Unit }

  let create () =
    {
      sides = [| { pool = [||]; len = 0 }; { pool = [||]; len = 0 } |];
      cur = 0;
      flips = 0;
      ends = [||];
    }

  let flips a = a.flips

  let flip a =
    a.cur <- 1 - a.cur;
    a.flips <- a.flips + 1;
    a.sides.(a.cur).len <- 0

  (* Makes [a.ends] cover parties 0 .. n-1, keeping the values already
     handed out. *)
  let reserve a n =
    let have = Array.length a.ends in
    if n > have then begin
      let old = a.ends in
      a.ends <- Array.init n (fun i -> if i < have then old.(i) else Party i)
    end

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

  let make a ~src ~dst body =
    reserve a (1 + max src dst);
    alloc a ~src:a.ends.(src) ~dst:a.ends.(dst) body

  let to_all a ~n ~src body =
    reserve a (max n (src + 1));
    let from = a.ends.(src) in
    List.init n (fun dst -> alloc a ~src:from ~dst:a.ends.(dst) body)
end

let pp_endpoint fmt = function
  | Party i -> Format.fprintf fmt "P%d" i
  | Func -> Format.pp_print_string fmt "F"
  | All -> Format.pp_print_string fmt "*"

let pp fmt e =
  Format.fprintf fmt "%a->%a: %a" pp_endpoint e.src pp_endpoint e.dst Msg.pp e.body
