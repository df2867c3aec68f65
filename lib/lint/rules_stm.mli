(** STM-protocol rules over the intra-module call graph and the library
    DAG:

    - [stm-lock-pairing] (lib/engine and the three families): every entry
      point (a function no other function in the module references) from
      which an orec or sequence-lock acquire ([San.lock_acquire],
      [San.seqlock_acquire]) is reachable must also reach a release
      ([San.lock_release], [San.seqlock_release]) or an abort
      ([San.tx_abort] / [Abort_exn]).  A protocol step that ends the
      transaction ([commit], [rollback], [serial_stamp]) must reach a
      release; an abort does not excuse it.
    - [vmm-charge] (lib/engine, the three families, lib/structures): raw
      Vmm word accesses ([V.load]/[V.store]) are only reachable from entry
      points that charge Sim_sched cycles.
    - [tap-pairing] (lib): sanitizer/tap producer hooks come in pairs per
      module (acquire/release, tx_begin/tx_exit, fence entry/exit,
      suspend/resume, vmm_alloc/vmm_free).
    - [layering] (whole repo): the declared library DAG, checked against
      both source module references and [dune] library stanzas. *)

type layer = {
  dir : string;
  root_module : string;
  lib_name : string;
  allowed : string list;
}

val layers : layer list
(** The declared architecture.  A new library under lib/ must be
    registered here before anything may depend on it. *)

val rules : Rule.t list
