val commit : int -> int -> bool -> unit
