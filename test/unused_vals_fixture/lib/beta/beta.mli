val g : ?a:int -> unit -> int
