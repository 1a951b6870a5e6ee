type step = round:int -> inbox:Inbox.t -> out:Outbox.t -> unit
type t = { step : step; output : unit -> Msg.t }

let silent ~output = { step = (fun ~round:_ ~inbox:_ ~out:_ -> ()); output = (fun () -> output) }

let of_list_step f ~round ~inbox ~out =
  List.iter (Outbox.push out) (f ~round ~inbox:(Inbox.to_list inbox))
