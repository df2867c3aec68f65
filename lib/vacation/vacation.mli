(** Travel-reservation workload in the style of STAMP's Vacation benchmark
    (evaluated by the paper in Fig. 7 via the TANGER-compiled original).

    A manager owns four transactional red-black maps: cars, flights and
    rooms map resource ids to reservation records; customers map customer
    ids to a linked list of held reservations.  Client transactions are
    medium-sized (tens of reads across several trees, a few writes).

    Word-memory layouts: resource record [id; used; free; total; price]
    (5 words); customer record [id; list head] (2 words); reservation item
    [table; resource id; price; next] (4 words). *)

(** Workload parameters (STM-independent). *)
type spec = {
  n_relations : int;  (** resources per table *)
  n_customers : int;
  queries_per_tx : int;
  reserve_pct : float;  (** share of make-reservation transactions *)
  delete_pct : float;  (** share of delete-customer; rest update tables *)
}

val default_spec : spec
(** 4096 relations/customers, 4 queries per transaction, 80/10/10 mix. *)

val memory_words_for : spec -> int
(** Arena size covering tables, customers and the steady-state reservation
    churn of the default mix. *)

module Make (T : Tstm_tm.Tm_intf.TM) : sig
  type table = Car | Flight | Room

  type t

  type nonrec spec = spec = {
    n_relations : int;
    n_customers : int;
    queries_per_tx : int;
    reserve_pct : float;
    delete_pct : float;
  }

  val default_spec : spec
  val memory_words_for : spec -> int

  val create : T.t -> t
  val populate : t -> spec -> seed:int -> t
  (** Fill all three resource tables with randomly priced capacity, as
      one transaction inside {!Tstm_tm.Tm_intf.serially} (see
      [Driver.populate]): call it before any other thread transacts on the
      instance.  An exception from the load keeps what was written so far
      and is not retried: treat it as fatal for the instance. *)

  (** {1 Manager operations} (run inside a caller transaction) *)

  val add_resource : t -> T.tx -> table -> int -> int -> int -> unit
  (** [add_resource t tx tbl id num price]: grow (or create) a resource. *)

  val delete_resource : t -> T.tx -> table -> int -> int -> bool
  (** Retire up to [num] unreserved units; removes the resource when none
      remain; [false] if the resource is unknown. *)

  val query_price : t -> T.tx -> table -> int -> int option

  val reserve : t -> T.tx -> table -> int -> int -> bool
  (** [reserve t tx tbl id cid]: book one unit for customer [cid] (created
      on first use); [false] when sold out or absent. *)

  val delete_customer : t -> T.tx -> int -> int option
  (** Cancel all of a customer's reservations, release the units, remove
      the customer; returns the total bill, or [None] if unknown. *)

  (** {1 Client driver} *)

  val client_step : t -> spec -> Tstm_util.Xrand.t -> unit
  (** Execute one transaction drawn from the configured mix. *)

  (** {1 Testing support} *)

  exception Inconsistent of string

  val check_consistency : t -> unit
  (** Audits, in one transaction: used + free = total for every resource,
      non-negative counts, per-resource used equal to the reservations held
      across all customers, and no dangling reservation. *)
end
