(** Small helpers for printing aligned benchmark tables on standard output
    (through [Format.std_formatter]). *)

(** [row cells] prints one row of fixed-width cells. *)
val row : width:int -> string list -> unit

val header : width:int -> string list -> unit

(** [section title] prints a banner. *)
val section : string -> unit

val subsection : string -> unit

(** Format a float compactly. *)
val f2 : float -> string

val f1 : float -> string
val f0 : float -> string
