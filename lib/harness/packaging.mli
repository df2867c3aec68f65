(** The registry STMs — ["tinystm-wb"], ["tinystm-wt"], ["tl2"] and
    ["norec"] — packaged as {!Tstm_tm.Tm_intf.STM}, once, as a functor over
    the runtime.  {!Scenario} registers the {!Tstm_runtime.Runtime_sim}
    instance in {!Tstm_tm.Registry}; {!Bench_real} resolves names through
    the registry and runs the {!Tstm_runtime.Runtime_real} instance of the
    same entry. *)

type entry = {
  aliases : string list;  (** extra registry keys, e.g. ["wb"] *)
  label : string;  (** display label, e.g. ["TinySTM-WB"] *)
  stm : (module Tstm_tm.Tm_intf.STM);
}

module Make (R : Tstm_runtime.Runtime_intf.S) : sig
  module Ts : module type of Tinystm.Make (R)
  module Tl : module type of Tstm_tl2.Tl2.Make (R)
  module No : module type of Tstm_norec.Norec.Make (R)

  val entries : entry list
  (** In registration (presentation) order. *)

  val find : string -> (module Tstm_tm.Tm_intf.STM) option
  (** The entry with this canonical name. *)
end
