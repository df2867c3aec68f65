val publish : int -> unit
val release : unit -> unit
