(* Clean fixture: the acquiring entry point either releases or aborts. *)
let publish cpu drawn ok =
  San.seqlock_acquire ~cpu ~drawn;
  if ok then San.seqlock_release ~cpu else raise (Abort_exn Validation_failed)
