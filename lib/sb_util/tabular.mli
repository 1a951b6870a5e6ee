(** Plain-text table rendering for experiment output.

    Every experiment driver prints its result as an aligned table with a
    title and column headers, so that the benchmark harness output can be
    compared line-by-line against EXPERIMENTS.md. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells. *)

val add_rule : t -> unit
(** Horizontal separator between row groups. *)

val render : t -> string
(** Test seam for [print]: the text [print] writes, which
    test_experiments and test_util compare. *)

val print : t -> unit
(** [render] followed by [print_string], with a trailing newline. *)

val to_csv : t -> string
(** RFC-4180-style CSV: header row then data rows (rules are skipped);
    cells containing commas, quotes or newlines are quoted. For feeding
    experiment tables to external plotting. *)

val cell_bool : bool -> string
(** "yes" / "no". *)

val cell_float : ?digits:int -> float -> string
