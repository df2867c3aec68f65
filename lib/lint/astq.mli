(** Parsetree queries shared by the rules.

    The call-graph layer is a deliberate over-approximation: any
    reference to a known let-bound name counts as a call edge (a
    function passed to an iterator is a potential call), and a
    function's subtree includes nested definitions.  Both err on the
    side of reachability, the conservative direction for pairing
    rules. *)

type ref_ = { r_lid : Longident.t; r_loc : Location.t }

val flatten : Longident.t -> string list option
(** [None] on functor applications. *)

val suffix_matches : pat:string list -> Longident.t -> bool
(** The flattened path ends with [pat]: [pat = ["San"; "lock_acquire"]]
    matches both [San.lock_acquire] and [Tstm_san.San.lock_acquire]. *)

val head : Longident.t -> string option
(** Leading component: [Tstm_harness.Driver.run] has head
    [Tstm_harness]. *)

val structure_refs : Parsetree.structure -> ref_ list
(** Every longident reference — values, constructors, record fields,
    type constructors, module expressions/types, opens — in source
    order, with precise locations. *)

val signature_refs : Parsetree.signature -> ref_ list

type fn = {
  fn_name : string;
  fn_loc : Location.t;  (** the whole value binding *)
  fn_refs : ref_ list;  (** references in the full subtree *)
}

val functions : Parsetree.structure -> fn list
(** Every [let]-bound name at any nesting depth. *)

type 'a effects = {
  fns : fn list;
  eff : (string, 'a list) Hashtbl.t;
  roots : fn list;  (** functions no other function references *)
}

val transitive_effects :
  direct:(ref_ -> 'a list) -> Parsetree.structure -> 'a effects
(** Build the intra-module call graph, seed each function with the
    effects [direct] assigns to its references, and close under
    caller-of transitivity. *)

val effects_of : 'a effects -> string -> 'a list
