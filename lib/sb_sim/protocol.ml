type t = {
  name : string;
  rounds : Ctx.t -> int;
  make_functionality : (Ctx.t -> rng:Sb_util.Rng.t -> Functionality.t) option;
  make_party : Ctx.t -> rng:Sb_util.Rng.t -> id:int -> input:Msg.t -> Party.t;
}
