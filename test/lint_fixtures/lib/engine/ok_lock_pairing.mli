val publish : int -> int -> bool -> unit
