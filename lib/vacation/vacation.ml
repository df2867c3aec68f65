(** Travel-reservation workload in the style of STAMP's Vacation benchmark
    (the paper evaluates it in Fig. 7 via the TANGER-compiled original).

    A manager owns four tables, each a transactional red-black map: cars,
    flights and rooms map resource ids to reservation records; customers map
    customer ids to a record heading a linked list of held reservations.
    Client transactions are medium-sized (tens of reads across several
    trees, a few writes), which is exactly the footprint that separates this
    workload from the list/tree microbenchmarks.

    Word-memory layouts:
    - resource record: [id; used; free; total; price] (5 words);
    - customer record: [id; reservation-list head] (2 words);
    - reservation item: [table; resource id; price; next] (4 words). *)

(* The workload parameters are STM-independent, so they live outside the
   functor: a spec built once can drive any STM's instantiation. *)
type spec = {
  n_relations : int;
  n_customers : int;
  queries_per_tx : int;
  reserve_pct : float;
  delete_pct : float;  (* remainder: update-tables transactions *)
}

let default_spec =
  {
    n_relations = 4096;
    n_customers = 4096;
    queries_per_tx = 4;
    reserve_pct = 80.0;
    delete_pct = 10.0;
  }

let memory_words_for (spec : spec) =
  (* 3 tables x relations x (6-word node + 5-word record), customers x
     (6-word node + 2-word record), plus reservation items: with the default
     mix (80 % reserve at ~2.5 items vs 10 % delete-customer) the item
     population reaches ~20-25 4-word items per customer at steady state —
     budget generously for it. *)
  (spec.n_relations * 3 * 16) + (spec.n_customers * (16 + 192)) + 65536

module Make (T : Tstm_tm.Tm_intf.TM) = struct
  module Rb = Tstm_structures.Rbtree.Make (T)

  type table = Car | Flight | Room

  let table_index = function Car -> 0 | Flight -> 1 | Room -> 2
  let table_of_index = function
    | 0 -> Car
    | 1 -> Flight
    | _ -> Room

  type t = {
    stm : T.t;
    resources : Rb.t array;  (* indexed by table_index *)
    customers : Rb.t;
    n_relations : int;
    n_customers : int;
  }

  type nonrec spec = spec = {
    n_relations : int;
    n_customers : int;
    queries_per_tx : int;
    reserve_pct : float;
    delete_pct : float;
  }

  let default_spec = default_spec
  let memory_words_for = memory_words_for

  (* Resource record accessors. *)
  let r_used tx a = T.read tx (a + 1)
  let r_free tx a = T.read tx (a + 2)
  let r_total tx a = T.read tx (a + 3)
  let r_price tx a = T.read tx (a + 4)
  let set_used tx a v = T.write tx (a + 1) v
  let set_free tx a v = T.write tx (a + 2) v
  let set_total tx a v = T.write tx (a + 3) v
  let set_price tx a v = T.write tx (a + 4) v

  (* Customer record and reservation items. *)
  let c_head tx a = T.read tx (a + 1)
  let set_c_head tx a v = T.write tx (a + 1) v
  let i_table tx a = T.read tx a
  let i_id tx a = T.read tx (a + 1)
  let i_next tx a = T.read tx (a + 3)

  let create stm =
    {
      stm;
      resources = Array.init 3 (fun _ -> Rb.create stm);
      customers = Rb.create stm;
      n_relations = 0;
      n_customers = 0;
    }

  (* ------------------------------------------------------------------ *)
  (* Manager operations (run inside a caller transaction)                *)
  (* ------------------------------------------------------------------ *)

  let add_resource t tx tbl id num price =
    let map = t.resources.(table_index tbl) in
    match Rb.find_opt map tx id with
    | Some rec_ ->
        set_free tx rec_ (r_free tx rec_ + num);
        set_total tx rec_ (r_total tx rec_ + num);
        set_price tx rec_ price
    | None ->
        let rec_ = T.alloc tx 5 in
        T.write tx rec_ id;
        set_used tx rec_ 0;
        set_free tx rec_ num;
        set_total tx rec_ num;
        set_price tx rec_ price;
        ignore (Rb.insert map tx id rec_)

  (* Retire up to [num] unreserved units; removes the resource entirely when
     none remain.  Returns false when the resource is missing. *)
  let delete_resource t tx tbl id num =
    let map = t.resources.(table_index tbl) in
    match Rb.find_opt map tx id with
    | None -> false
    | Some rec_ ->
        let retired = min num (r_free tx rec_) in
        set_free tx rec_ (r_free tx rec_ - retired);
        set_total tx rec_ (r_total tx rec_ - retired);
        if r_total tx rec_ = 0 && r_used tx rec_ = 0 then begin
          ignore (Rb.remove map tx id);
          T.free tx rec_ 5
        end;
        true

  let query_price t tx tbl id =
    match Rb.find_opt t.resources.(table_index tbl) tx id with
    | None -> None
    | Some rec_ -> Some (r_price tx rec_)

  let find_or_add_customer t tx cid =
    match Rb.find_opt t.customers tx cid with
    | Some c -> c
    | None ->
        let c = T.alloc tx 2 in
        T.write tx c cid;
        set_c_head tx c 0;
        ignore (Rb.insert t.customers tx cid c);
        c

  (* Reserve one unit of (tbl, id) for customer [cid]; false when sold out
     or absent. *)
  let reserve t tx tbl id cid =
    match Rb.find_opt t.resources.(table_index tbl) tx id with
    | None -> false
    | Some rec_ ->
        if r_free tx rec_ <= 0 then false
        else begin
          set_free tx rec_ (r_free tx rec_ - 1);
          set_used tx rec_ (r_used tx rec_ + 1);
          let c = find_or_add_customer t tx cid in
          let item = T.alloc tx 4 in
          T.write tx item (table_index tbl);
          T.write tx (item + 1) id;
          T.write tx (item + 2) (r_price tx rec_);
          T.write tx (item + 3) (c_head tx c);
          set_c_head tx c item;
          true
        end

  (* Cancel every reservation of [cid], release the units, and remove the
     customer.  Returns the total bill, or None when the customer is
     unknown. *)
  let delete_customer t tx cid =
    match Rb.find_opt t.customers tx cid with
    | None -> None
    | Some c ->
        let bill = ref 0 in
        let rec cancel item =
          if item <> 0 then begin
            let tbl = table_of_index (i_table tx item) in
            let id = i_id tx item in
            (match Rb.find_opt t.resources.(table_index tbl) tx id with
            | Some rec_ ->
                set_free tx rec_ (r_free tx rec_ + 1);
                set_used tx rec_ (r_used tx rec_ - 1)
            | None -> ());
            bill := !bill + T.read tx (item + 2);
            let next = i_next tx item in
            T.free tx item 4;
            cancel next
          end
        in
        cancel (c_head tx c);
        ignore (Rb.remove t.customers tx cid);
        T.free tx c 2;
        Some !bill

  (* ------------------------------------------------------------------ *)
  (* Population and client transactions                                  *)
  (* ------------------------------------------------------------------ *)

  let populate (t : t) (spec : spec) ~seed =
    let t : t =
      { t with n_relations = spec.n_relations; n_customers = spec.n_customers }
    in
    Tstm_tm.Tm_intf.serially (fun () ->
        T.atomically t.stm (fun tx ->
            let g = Tstm_util.Xrand.create seed in
            for id = 1 to spec.n_relations do
              List.iter
                (fun tbl ->
                  add_resource t tx tbl id
                    (100 * (1 + Tstm_util.Xrand.int g 5))
                    (50 + Tstm_util.Xrand.int g 450))
                [ Car; Flight; Room ]
            done));
    t

  (* One client transaction, drawn from the configured mix. *)
  let client_step (t : t) (spec : spec) g =
    let p = Tstm_util.Xrand.float g *. 100.0 in
    if p < spec.reserve_pct then
      (* Make-reservation: query a few random resources per table, remember
         the priciest available one, then book it (STAMP's policy). *)
      T.atomically t.stm (fun tx ->
          let cid = 1 + Tstm_util.Xrand.int g spec.n_customers in
          let chosen = Array.make 3 0 in
          let chosen_price = Array.make 3 (-1) in
          for _ = 1 to spec.queries_per_tx do
            let tbl = Tstm_util.Xrand.int g 3 in
            let id = 1 + Tstm_util.Xrand.int g spec.n_relations in
            match Rb.find_opt t.resources.(tbl) tx id with
            | Some rec_ when r_free tx rec_ > 0 ->
                let price = r_price tx rec_ in
                if price > chosen_price.(tbl) then begin
                  chosen_price.(tbl) <- price;
                  chosen.(tbl) <- id
                end
            | _ -> ()
          done;
          for tbl = 0 to 2 do
            if chosen.(tbl) <> 0 then
              ignore (reserve t tx (table_of_index tbl) chosen.(tbl) cid)
          done)
    else if p < spec.reserve_pct +. spec.delete_pct then
      T.atomically t.stm (fun tx ->
          ignore (delete_customer t tx (1 + Tstm_util.Xrand.int g spec.n_customers)))
    else
      (* Update-tables: grow or retire random resources. *)
      T.atomically t.stm (fun tx ->
          for _ = 1 to spec.queries_per_tx do
            let tbl = table_of_index (Tstm_util.Xrand.int g 3) in
            let id = 1 + Tstm_util.Xrand.int g spec.n_relations in
            if Tstm_util.Xrand.bool g then
              add_resource t tx tbl id 100 (50 + Tstm_util.Xrand.int g 450)
            else ignore (delete_resource t tx tbl id 100)
          done)

  (* ------------------------------------------------------------------ *)
  (* Consistency checking (tests)                                        *)
  (* ------------------------------------------------------------------ *)

  exception Inconsistent of string

  (* Every resource must satisfy used + free = total with used, free >= 0,
     and the per-resource used counts must equal the reservations held
     across all customers. *)
  let check_consistency t =
    T.atomically t.stm (fun tx ->
        let held = Hashtbl.create 256 in
        List.iter
          (fun (_, c) ->
            let rec walk item =
              if item <> 0 then begin
                let k = (i_table tx item, i_id tx item) in
                Hashtbl.replace held k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt held k));
                walk (i_next tx item)
              end
            in
            walk (c_head tx c))
          (Rb.bindings t.customers tx);
        for tbl = 0 to 2 do
          List.iter
            (fun (id, rec_) ->
              let used = r_used tx rec_
              and free = r_free tx rec_
              and total = r_total tx rec_ in
              if used < 0 || free < 0 then raise (Inconsistent "negative count");
              if used + free <> total then
                raise (Inconsistent "used + free <> total");
              let h = Option.value ~default:0 (Hashtbl.find_opt held (tbl, id)) in
              if h <> used then raise (Inconsistent "held <> used"))
            (Rb.bindings t.resources.(tbl) tx);
          (* And no reservation may point at a missing resource. *)
          Hashtbl.iter
            (fun (tb, id) _ ->
              if tb = tbl && Rb.find_opt t.resources.(tbl) tx id = None then
                raise (Inconsistent "dangling reservation"))
            held
        done)

end
