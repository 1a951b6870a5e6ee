type t = { buf : Envelope.Buf.t; pool : Envelope.Arena.arena option }

let create ?pool ?(buf = Envelope.Buf.create ()) () =
  Envelope.Buf.clear buf;
  { buf; pool }

let push t e = Envelope.Buf.push t.buf 0 e
let to_all t ~n ~src body = if n > 0 then push t (Envelope.to_all ?arena:t.pool ~n ~src body)
let length t = t.buf.len
let get t i = t.buf.envs.(i)

let retag t ~from tag =
  for i = from to t.buf.len - 1 do
    let e = t.buf.envs.(i) in
    t.buf.envs.(i) <- { e with Envelope.body = Msg.Tag (tag, e.Envelope.body) }
  done

let to_list t =
  let acc = ref [] in
  for i = t.buf.len - 1 downto 0 do
    acc := Envelope.expand_onto t.buf.envs.(i) !acc
  done;
  !acc

let clear t = Envelope.Buf.clear t.buf

let drain t =
  let l = to_list t in
  clear t;
  l
