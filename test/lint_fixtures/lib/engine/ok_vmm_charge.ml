(* Clean fixture: the entry point charges before the word access. *)
let load_word mem addr =
  R.charge_local 4;
  V.load mem addr
