type t = { mutable envs : Envelope.t array; mutable off : int; mutable len : int }

let create () = { envs = [||]; off = 0; len = 0 }

let set t envs ~off ~len =
  t.envs <- envs;
  t.off <- off;
  t.len <- len

let share t ~into = set into t.envs ~off:t.off ~len:t.len
let length t = t.len
let get t i = t.envs.(t.off + i)

let iter f t =
  for i = t.off to t.off + t.len - 1 do
    f (Array.unsafe_get t.envs i)
  done

let to_list t = List.init t.len (get t)

let of_list l =
  let envs = Array.of_list l in
  { envs; off = 0; len = Array.length envs }

(* The one tagged inbox scan: it reads the sender field in place and
   builds no option or list per envelope. *)
let iter_from_parties ~tag f t =
  for i = t.off to t.off + t.len - 1 do
    match Array.unsafe_get t.envs i with
    | { Envelope.body = Msg.Tag (tg, m); src = Envelope.Party src; _ }
      when tg == tag || String.equal tg tag ->
        f src m
    | _ -> ()
  done

let first_from ~tag ~src t =
  let rec go i =
    if i >= t.off + t.len then None
    else
      match Array.unsafe_get t.envs i with
      | { Envelope.body = Msg.Tag (tg, m); src = Envelope.Party s; _ }
        when s = src && (tg == tag || String.equal tg tag) ->
          Some m
      | _ -> go (i + 1)
  in
  go t.off
