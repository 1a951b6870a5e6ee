type t = {
  step : round:int -> inbox:Sb_sim.Envelope.t list -> Sb_sim.Envelope.t list;
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

let tag sid = "bc:" ^ sid

(* Each of these builds the tag when applied to [~sid] alone, so a
   session that binds them once pays for the string once, not once
   per envelope. *)
let wrap ~sid =
  let t = tag sid in
  fun m -> Sb_sim.Msg.Tag (t, m)

let unwrap ~sid =
  let t = tag sid in
  function Sb_sim.Msg.Tag (t', m) when String.equal t' t -> Some m | _ -> None

(* A lone session's inbox is all its own traffic, so the common case
   is one read-only scan that hands the list back uncopied. *)
let inbox_for ~sid =
  let t = tag sid in
  let mine (e : Sb_sim.Envelope.t) =
    match e.body with Sb_sim.Msg.Tag (t', _) -> String.equal t' t | _ -> false
  in
  fun envs -> if List.for_all mine envs then envs else List.filter mine envs
