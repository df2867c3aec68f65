(** Single-word Bloom filter over addresses, as used by the redo-log STMs
    (TL2, NOrec) to avoid traversing the write set on every read (paper
    §3.1: "TL2 uses Bloom filters to avoid unnecessary write set
    traversals").

    Two derived hash bits per element in a 62-bit word: false positives are
    possible (they cost a wasted write-set search), false negatives are not
    (that would break read-after-write). *)

type t

val create : unit -> t
val clear : t -> unit
val add : t -> int -> unit

val may_contain : t -> int -> bool
(** Never returns [false] for an added address. *)
