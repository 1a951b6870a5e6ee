(** Minimal JSON values: enough to serialize run reports and parse them
    back in tests. Deliberately dependency-free (the container carries
    no yojson); the emitter is deterministic — object fields keep their
    construction order — so identical runs yield identical bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with two-space
    indentation. Non-finite floats serialize as [null] (JSON has no
    NaN/infinity). *)

val of_string : string -> (t, string) result
(** Strict recursive-descent parser for the subset we emit (no escapes
    beyond the JSON standard's, numbers via [float_of_string] with
    integer detection). Errors carry a byte offset. *)

val member : string -> t -> t option
(** [member k (Obj ...)] — field lookup; [None] on missing field or
    non-object. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] widens to float. *)

val to_str_opt : t -> string option
val to_list_opt : t -> t list option
