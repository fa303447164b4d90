(** The repo's one JSON codec: value type, writer and reader.

    Every JSON byte the program writes goes through {!to_string} — metric
    exports ({!Export}), runner reports ([Sw_runner.Report.t] is this [t]),
    JSONL trace lines and [Sw_workload.Dsl.print] — and {!Chrome}'s
    streaming emitter escapes with {!escape}; so equal values always
    produce equal bytes. No external JSON dependency.

    - [Int] prints with [string_of_int]. [Float] prints as ["%.12g"] when
      that round-trips, else ["%.17g"]; [nan], [infinity] and
      [neg_infinity] print as the strings ["nan"], ["inf"] and ["-inf"].
    - The reader keeps integers exact: a literal with no fraction or
      exponent that fits in [int] parses to [Int], every other number to
      [Float]; a literal that overflows to infinity (e.g. [1e999]) is a
      positioned error. So [parse (to_string v)] gives back [v] for trees
      of finite numbers, except that an integral [Float] printed without
      an exponent (e.g. [Float 3.] as [3]) comes back as the equal [Int].
    - 64-bit integers such as seeds use {!of_int64} / {!to_int64}, so
      every [int64] round-trips exactly.
    - [\u] escapes outside the BMP are out of scope for the reader. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [parse s] parses exactly one JSON value spanning all of [s]
    (surrounding whitespace allowed); [Error msg] carries the 1-based line
    and column — and the byte offset — of the failure, e.g.
    ["expected ',' or '}' at line 3, column 7 (offset 41)"]. *)
val parse : string -> (t, string) result

(** [member name v] is field [name] when [v] is an object containing it. *)
val member : string -> t -> t option

(** [to_number v] is the value of an [Int] or [Float]. *)
val to_number : t -> float option

(** [of_int64 v] is [Int] when [v] fits in [int], else the decimal
    [String] of [v]. *)
val of_int64 : int64 -> t

(** [to_int64 v] reads an [Int], an integral [Float] below 2^53 in
    magnitude, or a [String] accepted by [Int64.of_string] (so hex such as
    ["0xDEADBEEFCAFEF00D"] works); [None] otherwise. Inverts {!of_int64}. *)
val to_int64 : t -> int64 option

(** [escape buf s] appends [s] to [buf] as a quoted JSON string literal. *)
val escape : Buffer.t -> string -> unit

(** Compact (single-line) serialisation, numbers as described above. *)
val to_string : t -> string
