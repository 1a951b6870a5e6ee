(** The five Byzantine broadcast substrates, listed once. The protocol
    catalogue ([Sb_protocols.Registry]) composes each into a
    [concurrent-<name>] parallel broadcast and the model checker
    enumerates them; a new substrate is added here. *)

val all : Session.scheme list
(** send-echo, dolev-strong, eig, bracha, phase-king. *)
