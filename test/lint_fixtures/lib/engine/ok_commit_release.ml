(* Clean fixture: the commit releases the sequence lock it can take. *)
let acquire cpu drawn ok =
  if not ok then raise (Abort_exn Write_conflict);
  San.seqlock_acquire ~cpu ~drawn

let commit cpu drawn ok =
  acquire cpu drawn ok;
  San.seqlock_release ~cpu
