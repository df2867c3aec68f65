(* Black-box serializability checking for integer-set histories.

   Each completed operation is recorded with its invocation and response
   virtual times.  The checker then searches for a legal linearization: a
   total order of the operations, consistent with the real-time order
   (op A wholly before op B must come before B), under which replaying
   against a sequential [Set] model reproduces every recorded result and
   ends in the recorded final contents.

   The search is the classic Wing–Gong depth-first enumeration with two
   standard bounds that make it cheap on STM histories (which are very
   nearly sequential in virtual time):

   - a window: at each step only the first [window] pending operations are
     considered as the next linearization candidate, and an operation that
     starts strictly after some pending operation's response is never a
     candidate (real-time order would be violated);
   - memoization on the set of linearized operations.  For a two-state
     per-key model the set of applied operations determines the model
     state, so the bitset alone is a sound memo key.

   A node budget turns a pathological search into an explicit
   [Error "checker budget exceeded"], never a wrong verdict. *)

module IS = Set.Make (Int)

type op = Add of int | Remove of int | Contains of int

type event = { tid : int; inv : int; resp : int; op : op; result : bool }

type t = { logs : event list array }

let create ~nthreads =
  if nthreads < 1 then invalid_arg "History.create: nthreads < 1";
  { logs = Array.make nthreads [] }

let record t ~tid ~inv ~resp ~op ~result =
  if resp < inv then invalid_arg "History.record: resp < inv";
  t.logs.(tid) <- { tid; inv; resp; op; result } :: t.logs.(tid)

let size t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.logs

(* All events merged, sorted by invocation time (ties by response then tid:
   any fixed deterministic order works, the checker only needs inv-sorted). *)
let events t =
  let all = Array.fold_left (fun acc l -> List.rev_append l acc) [] t.logs in
  List.sort
    (fun a b ->
      match compare a.inv b.inv with
      | 0 -> ( match compare a.resp b.resp with 0 -> compare a.tid b.tid | c -> c)
      | c -> c)
    all

let op_to_string = function
  | Add k -> Printf.sprintf "add %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Contains k -> Printf.sprintf "contains %d" k

let event_to_string e =
  Printf.sprintf "[t%d %d..%d] %s -> %b" e.tid e.inv e.resp
    (op_to_string e.op) e.result

(* Sequential set semantics: returns (new model, result the op must have). *)
let apply model = function
  | Add k ->
      let fresh = not (IS.mem k model) in
      ((if fresh then IS.add k model else model), fresh)
  | Remove k ->
      let present = IS.mem k model in
      ((if present then IS.remove k model else model), present)
  | Contains k -> (model, IS.mem k model)

exception Budget

type verdict = { message : string; at : int option }

let diagnose ?(window = 48) ?(max_nodes = 500_000) ~final evs =
  let ev = Array.of_list evs in
  let n = Array.length ev in
  let final_set = IS.of_list final in
  let fail ?at message = Error { message; at } in
  if n = 0 then
    if IS.is_empty final_set then Ok ()
    else fail "empty history but non-empty final contents"
  else begin
    let done_ = Bytes.make n '\000' in
    let memo : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
    let nodes = ref 0 in
    (* Diagnostics: deepest prefix reached and the pending ops blocking it. *)
    let best = ref (-1) in
    let stuck : event list ref = ref [] in
    let note_depth ndone first_undone =
      if ndone > !best then begin
        best := ndone;
        let pending = ref [] and i = ref first_undone and taken = ref 0 in
        while !i < n && !taken < 4 do
          if Bytes.get done_ !i = '\000' then begin
            pending := ev.(!i) :: !pending;
            incr taken
          end;
          incr i
        done;
        stuck := List.rev !pending
      end
    in
    let rec dfs ndone model first_undone =
      incr nodes;
      if !nodes > max_nodes then raise Budget;
      note_depth ndone first_undone;
      if ndone = n then IS.equal model final_set
      else begin
        let key = Bytes.to_string done_ in
        if Hashtbl.mem memo key then false
        else begin
          let ok = ref false in
          let min_resp = ref max_int in
          let tried = ref 0 in
          let i = ref first_undone in
          let continue = ref true in
          while !continue && !i < n && !tried < window do
            if Bytes.get done_ !i = '\000' then begin
              let e = ev.(!i) in
              (* Events are inv-sorted: once an op starts after a pending
                 response, it and everything later is real-time-blocked. *)
              if e.inv > !min_resp then continue := false
              else begin
                let model', expected = apply model e.op in
                if expected = e.result then begin
                  Bytes.set done_ !i '\001';
                  let fu =
                    if !i <> first_undone then first_undone
                    else begin
                      let j = ref (first_undone + 1) in
                      while !j < n && Bytes.get done_ !j <> '\000' do incr j done;
                      !j
                    end
                  in
                  if dfs (ndone + 1) model' fu then ok := true;
                  Bytes.set done_ !i '\000'
                end;
                if !ok then continue := false
                else begin
                  min_resp := min !min_resp e.resp;
                  incr tried
                end
              end
            end;
            incr i
          done;
          if not !ok then Hashtbl.replace memo key ();
          !ok
        end
      end
    in
    match dfs 0 IS.empty 0 with
    | true -> Ok ()
    | false ->
        let b = Buffer.create 256 in
        Buffer.add_string b
          (Printf.sprintf
             "no serializable order: linearized %d/%d ops, then stuck on:" !best n);
        List.iter
          (fun e -> Buffer.add_string b ("\n  " ^ event_to_string e))
          !stuck;
        if !best = n then
          Buffer.add_string b
            (Printf.sprintf "\n  (all ops linearize but final contents differ: {%s} expected)"
               (String.concat ", " (List.map string_of_int (IS.elements final_set))));
        let at =
          match !stuck with
          | e :: _ -> e.resp
          | [] -> Array.fold_left (fun m e -> max m e.resp) 0 ev
        in
        fail ~at (Buffer.contents b)
    | exception Budget ->
        fail
          (Printf.sprintf "checker budget exceeded (%d nodes, window %d)"
             max_nodes window)
  end

let check ?window ?max_nodes ~final evs =
  Result.map_error (fun v -> v.message) (diagnose ?window ?max_nodes ~final evs)
