type t = {
  step : round:int -> inbox:Sb_sim.Inbox.t -> out:Sb_sim.Outbox.t -> unit;
  result : unit -> Sb_sim.Msg.t;
}

type scheme = {
  scheme_name : string;
  rounds : Sb_sim.Ctx.t -> int;
  create :
    Sb_sim.Ctx.t ->
    rng:Sb_util.Rng.t ->
    sid:string ->
    sender:int ->
    me:int ->
    value:Sb_sim.Msg.t option ->
    t;
}

(* The tags of the compositions' session ids "s0" .. "s255" are built
   once: every party's session k then carries the same string, which
   the inbox scans compare by address before comparing bytes. *)
let interned = Array.init 256 (fun k -> "bc:s" ^ string_of_int k)

let tag sid =
  let l = String.length sid in
  let rec index i k =
    if i = l then if k < 256 then k else -1
    else match sid.[i] with '0' .. '9' as c -> index (i + 1) ((k * 10) + Char.code c - 48) | _ -> -1
  in
  let k = if l >= 2 && l <= 4 && sid.[0] = 's' && (l = 2 || sid.[1] <> '0') then index 1 0 else -1 in
  if k >= 0 then interned.(k) else "bc:" ^ sid

(* Builds the tag when applied to [~sid] alone, so a caller that binds
   it once pays for the string once, not once per message. *)
let wrap ~sid =
  let t = tag sid in
  fun m -> Sb_sim.Msg.Tag (t, m)
