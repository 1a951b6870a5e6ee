open Sb_sim

(* Inbox scans run once per session per round in every VSS party, so
   they read the sender field in place and build no intermediate list
   or option per envelope. *)
let rec iter_from_parties ~tag f = function
  | [] -> ()
  | (e : Envelope.t) :: rest ->
      (match (e.Envelope.body, e.Envelope.src) with
      | Msg.Tag (t, m), Envelope.Party src when String.equal t tag -> f src m
      | _ -> ());
      iter_from_parties ~tag f rest

let rec first_from ~tag ~src = function
  | [] -> None
  | (e : Envelope.t) :: rest -> (
      match (e.Envelope.body, e.Envelope.src) with
      | Msg.Tag (t, m), Envelope.Party s when s = src && String.equal t tag -> Some m
      | _ -> first_from ~tag ~src rest)

let bit_of_field f = Sb_crypto.Field.equal f Sb_crypto.Field.one
let field_of_bit b = if b then Sb_crypto.Field.one else Sb_crypto.Field.zero
