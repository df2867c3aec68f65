(* Clean fixture: the acquiring entry point either releases or aborts. *)
let publish drawn ok =
  Tap.seqlock_acquire ~drawn;
  if ok then Tap.seqlock_release () else raise (Abort_exn Validation_failed)
