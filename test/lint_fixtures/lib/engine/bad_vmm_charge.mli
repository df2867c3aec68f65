val load_word : int -> int -> int
