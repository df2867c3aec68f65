(* Violating fixture: the shared transaction engine is under the protocol
   rules too.  An entry point takes the sequence lock but reaches neither
   a release nor an abort. *)
let publish drawn = (* lint: expect stm-lock-pairing *)
  Tap.seqlock_acquire ~drawn

let release () = Tap.seqlock_release ()
