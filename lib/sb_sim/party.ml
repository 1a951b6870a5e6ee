type step = round:int -> inbox:Inbox.t -> out:Outbox.t -> unit
type t = { step : step; output : unit -> Msg.t }

let of_list_step f ~round ~inbox ~out =
  List.iter (Outbox.push out) (f ~round ~inbox:(Inbox.to_list inbox))
