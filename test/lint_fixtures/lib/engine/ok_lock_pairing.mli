val publish : int -> bool -> unit
