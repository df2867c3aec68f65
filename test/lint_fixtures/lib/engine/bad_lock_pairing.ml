(* Violating fixture: the shared transaction engine is under the protocol
   rules too.  An entry point takes the sequence lock but reaches neither
   a release nor an abort. *)
let publish cpu drawn = (* lint: expect stm-lock-pairing *)
  San.seqlock_acquire ~cpu ~drawn

let release cpu = San.seqlock_release ~cpu
