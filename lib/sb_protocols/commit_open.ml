open Sb_sim
open Sb_crypto

let commit_tag = "co-commit"
let open_tag = "co-open"
let payload ~id ~bit = Printf.sprintf "co:%d:%c" id (if bit then '1' else '0')

let parse_payload s =
  match String.split_on_char ':' s with
  | [ "co"; id; bit ] -> (
      match (int_of_string_opt id, bit) with
      | Some id, "1" -> Some (id, true)
      | Some id, "0" -> Some (id, false)
      | _ -> None)
  | _ -> None

let protocol =
  {
    Protocol.name = "commit-open";
    rounds = (fun _ -> 2);
    make_functionality = None;
    make_party =
      (fun ctx ~rng ~id ~input ->
        let commits : (int, string) Hashtbl.t = Hashtbl.create 8 in
        let opens : (int, Commit.opening) Hashtbl.t = Hashtbl.create 8 in
        let my_opening = ref None in
        let record_commit src = function
          | Msg.Str c when not (Hashtbl.mem commits src) -> Hashtbl.replace commits src c
          | _ -> ()
        in
        let record_open src = function
          | Msg.List [ Msg.Str value; Msg.Str nonce ] when not (Hashtbl.mem opens src) ->
              Hashtbl.replace opens src { Commit.value; nonce }
          | _ -> ()
        in
        let step ~round ~inbox =
          Envelope.iter_from_parties ~tag:commit_tag record_commit inbox;
          Envelope.iter_from_parties ~tag:open_tag record_open inbox;
          match round with
          | 0 ->
              let bit = Msg.to_bit_exn input in
              let c, o = Commit.commit ctx.Ctx.commit rng (payload ~id ~bit) in
              my_opening := Some o;
              [ Envelope.broadcast ~src:id (Msg.Tag (commit_tag, Msg.Str c)) ]
          | 1 -> (
              match !my_opening with
              | Some o ->
                  [
                    Envelope.broadcast ~src:id
                      (Msg.Tag (open_tag, Msg.List [ Msg.Str o.Commit.value; Msg.Str o.Commit.nonce ]));
                  ]
              | None -> [])
          | _ -> []
        in
        let output () =
          Msg.bits
            (List.init ctx.Ctx.n (fun j ->
                 match (Hashtbl.find_opt commits j, Hashtbl.find_opt opens j) with
                 | Some c, Some o when Commit.verify ctx.Ctx.commit c o -> (
                     match parse_payload o.Commit.value with
                     | Some (id', b) when id' = j -> b
                     | _ -> false)
                 | _ -> false))
        in
        { Party.step; output });
  }
