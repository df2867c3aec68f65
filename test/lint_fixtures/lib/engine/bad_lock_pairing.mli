val publish : int -> int -> unit
val release : int -> unit
