(* Violating fixture: a commit ends the transaction.  The abort on its
   failure path does not excuse the path that takes the sequence lock and
   returns holding it. *)
let acquire cpu drawn ok =
  if not ok then raise (Abort_exn Write_conflict);
  San.seqlock_acquire ~cpu ~drawn

let commit cpu drawn ok = (* lint: expect stm-lock-pairing *)
  acquire cpu drawn ok

let release cpu = San.seqlock_release ~cpu
