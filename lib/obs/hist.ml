(* Histograms bucket by bit length: value [v >= 0] lands in bucket
   [bits v], i.e. 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... so bucket
   [i >= 1] covers [2^(i-1), 2^i). Negative values clamp to bucket 0
   (none of our instruments produce them). 64 buckets cover every
   OCaml int. *)

let bucket_count = 64

let bucket_of v =
  if v <= 0 then 0
  else
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    bits 0 v

let bucket_lower_bound i = if i <= 1 then i else 1 lsl (i - 1)

(* A bucket only records "somewhere in [2^(i-1), 2^i)", so a quantile
   read off the buckets is the bucket's inclusive upper bound — a
   conservative (never under-reporting) estimate. The exact min/max
   tighten the two ends. *)
let bucket_upper_bound i = if i <= 1 then i else (1 lsl i) - 1

type t = {
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
  buckets : int array;
}

let create () =
  {
    count = 0;
    sum = 0;
    min = max_int;
    max = min_int;
    buckets = Array.make bucket_count 0;
  }

let copy h = { h with buckets = Array.copy h.buckets }

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v < h.min then h.min <- v;
  if v > h.max then h.max <- v;
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1

let merge_into ~into h =
  into.count <- into.count + h.count;
  into.sum <- into.sum + h.sum;
  if h.min < into.min then into.min <- h.min;
  if h.max > into.max then into.max <- h.max;
  Array.iteri (fun i c -> into.buckets.(i) <- into.buckets.(i) + c) h.buckets

let merge a b =
  let m = copy a in
  merge_into ~into:m b;
  m

let quantile h q =
  if h.count = 0 || not (Float.is_finite q) || q < 0. || q > 1. then None
  else
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let rec find i seen =
      if i >= bucket_count then h.max
      else
        let seen = seen + h.buckets.(i) in
        if seen >= rank then
          Stdlib.min h.max (Stdlib.max h.min (bucket_upper_bound i))
        else find (i + 1) seen
    in
    Some (find 0 0)

let of_sparse ~count ~sum ?(min = max_int) ?(max = min_int) pairs =
  let h = { (create ()) with count; sum; min; max } in
  List.iter
    (fun (lb, c) ->
      let i = bucket_of lb in
      h.buckets.(i) <- h.buckets.(i) + c)
    pairs;
  h

let buckets_json h =
  Json.List
    (List.filter_map
       (fun i ->
         if h.buckets.(i) = 0 then None
         else
           Some (Json.List [ Json.Int (bucket_lower_bound i); Json.Int h.buckets.(i) ]))
       (List.init bucket_count Fun.id))
