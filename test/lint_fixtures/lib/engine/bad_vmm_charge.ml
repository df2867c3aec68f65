(* Violating fixture: a raw Vmm word access in the engine reachable from
   an entry point that never charges simulated cycles. *)
let load_word mem addr = V.load mem addr (* lint: expect vmm-charge *)
