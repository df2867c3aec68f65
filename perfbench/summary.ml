(* Order statistics for the report. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The [i]-th of the [k]-quantile cut points of a sorted sample, computed
   exactly as Python's [statistics.quantiles] (method "exclusive") does, so
   the quartiles printed here match the ones taken from the JSON results. *)
let cut a i k =
  let ld = Array.length a in
  if ld = 0 then nan
  else if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / k)) in
    let delta = (i * m) - (j * k) in
    ((a.(j - 1) *. float_of_int (k - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int k

type t = { median : float; q1 : float; q3 : float; n : int }

let of_list xs =
  let a = sorted xs in
  { median = cut a 2 4; q1 = cut a 1 4; q3 = cut a 3 4; n = Array.length a }

let median xs = (of_list xs).median

(* Nearest-rank percentile of integer samples. *)
let percentile_int xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
