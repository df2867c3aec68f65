(* The registry STMs packaged as [Tm_intf.STM], once, over any runtime.
   [Scenario] registers the simulator instance; [Bench_real] resolves
   names through the registry and runs the real-domain instance of the
   same entry. *)

module Intf = Tstm_tm.Tm_intf
module Config = Tinystm.Config

type entry = {
  aliases : string list;
  label : string;
  stm : (module Intf.STM);
}

let config_of_tuning strategy (tu : Intf.tuning) =
  Config.make ~n_locks:tu.Intf.n_locks ~shifts:tu.Intf.shifts
    ~hierarchy:tu.Intf.hierarchy ~hierarchy2:tu.Intf.hierarchy2 ~strategy ()

module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  module Ts = Tinystm.Make (R)
  module Tl = Tstm_tl2.Tl2.Make (R)
  module No = Tstm_norec.Norec.Make (R)

  (* TinySTM packaged per write strategy: the strategy is part of the STM's
     identity (the paper compares WB and WT as distinct competitors), not a
     tuning knob. *)
  module Tinystm_packed (Strategy : sig
    val name : string
    val strategy : Config.strategy
  end) : Intf.STM = struct
    include Ts

    let name = Strategy.name
    let family = "tinystm"

    let capabilities =
      {
        Intf.lock_array = true;
        dynamic_reconfig = true;
        read_only_fastpath = true;
        snapshot_extension = true;
      }

    let create ?(tuning = Intf.default_tuning) ?max_retries ?cm ?watchdog
        ~memory_words () =
      Ts.create
        ~config:(config_of_tuning Strategy.strategy tuning)
        ?max_retries ?cm ?watchdog ~memory_words ()

    let configure t tuning =
      Ts.set_config t (config_of_tuning Strategy.strategy tuning)

    let live_words t = V.live_words (Ts.memory t)
  end

  module Stm_wb = Tinystm_packed (struct
    let name = "tinystm-wb"
    let strategy = Config.Write_back
  end)

  module Stm_wt = Tinystm_packed (struct
    let name = "tinystm-wt"
    let strategy = Config.Write_through
  end)

  module Stm_tl2 : Intf.STM = struct
    include Tl

    let family = "tl2"

    let capabilities =
      {
        Intf.lock_array = true;
        dynamic_reconfig = false;
        read_only_fastpath = true;
        snapshot_extension = false;
      }

    let create ?(tuning = Intf.default_tuning) ?max_retries ?cm ?watchdog
        ~memory_words () =
      (* TL2 has no hierarchical array; those knobs are ignored. *)
      Tl.create ~n_locks:tuning.Intf.n_locks ~shifts:tuning.Intf.shifts
        ?max_retries ?cm ?watchdog ~memory_words ()

    let configure _ _ =
      Intf.capability_error ~stm:"tl2" ~capability:"dynamic_reconfig"

    let live_words t = V.live_words (Tl.memory t)
  end

  module Stm_norec : Intf.STM = struct
    include No

    let family = "norec"

    let capabilities =
      {
        Intf.lock_array = false;
        dynamic_reconfig = false;
        read_only_fastpath = true;
        snapshot_extension = true;
      }

    let create ?tuning:_ ?max_retries ?cm ?watchdog ~memory_words () =
      (* NOrec has no lock array and no hierarchy: the whole tuning record
         is inert (capabilities.lock_array = false). *)
      No.create ?max_retries ?cm ?watchdog ~memory_words ()

    let configure _ _ =
      Intf.capability_error ~stm:"norec" ~capability:"dynamic_reconfig"

    let live_words t = V.live_words (No.memory t)
  end

  let entries =
    [
      { aliases = [ "wb" ]; label = "TinySTM-WB"; stm = (module Stm_wb) };
      { aliases = [ "wt" ]; label = "TinySTM-WT"; stm = (module Stm_wt) };
      { aliases = []; label = "TL2"; stm = (module Stm_tl2) };
      { aliases = []; label = "NOrec"; stm = (module Stm_norec) };
    ]

  let find canonical =
    List.find_map
      (fun e ->
        let module M = (val e.stm) in
        if M.name = canonical then Some e.stm else None)
      entries
end
