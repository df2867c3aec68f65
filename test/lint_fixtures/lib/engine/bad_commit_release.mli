val commit : int -> int -> bool -> unit
val release : int -> unit
