(* Fixed log-scale histogram.

   Bucket edges form a geometric series with ratio 2^(1/4) (four
   sub-buckets per octave), so any quantile estimate is at most ~19%
   above the true value.  Bucket 0 catches everything below 1.0;
   [bucket_count - 1] is an overflow bucket.  With 242 buckets the edges
   reach past 2^60 — enough for nanosecond durations, byte counts and
   cycle counts alike. *)

let buckets_per_octave = 4
let bucket_count = 242

let ratio = Float.pow 2.0 (1.0 /. float_of_int buckets_per_octave)

(* edges.(i) is the lower edge of bucket i+1: bucket i (i >= 1) holds
   values v with edges.(i-1) <= v < edges.(i). *)
let edges =
  let e = Array.make (bucket_count - 1) 1.0 in
  for i = 1 to Array.length e - 1 do
    e.(i) <- e.(i - 1) *. ratio
  done;
  e

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { counts = Array.make bucket_count 0; count = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity }

let clear t =
  Array.fill t.counts 0 bucket_count 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity

(* Binary search: smallest bucket whose upper edge is > v.  Using the
   same [edges] array for indexing and for quantile read-back keeps the
   two self-consistent, immune to log() rounding. *)
let bucket_of v =
  if not (v >= edges.(0)) then 0 (* also catches NaN and negatives *)
  else begin
    let lo = ref 0 and hi = ref (Array.length edges) in
    (* invariant: edges.(!lo) <= v, and (!hi = length || edges.(!hi) > v) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if edges.(mid) <= v then lo := mid else hi := mid
    done;
    !hi (* bucket index; = bucket_count - 1 means overflow *)
  end

let upper_edge bucket =
  if bucket = 0 then edges.(0)
  else if bucket >= Array.length edges then infinity
  else edges.(bucket)

let observe t v =
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.min_v
let max_value t = if t.count = 0 then 0.0 else t.max_v

(* Upper edge of the bucket holding the p-quantile observation, clamped
   to the observed max: an upper bound on the true quantile, tight to one
   bucket ratio, and never above any observation the histogram saw.  The
   overflow bucket's infinite edge thus reports the max too. *)
let quantile t p =
  if t.count = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.count))) in
    let rank = min rank t.count in
    let acc = ref 0 and bucket = ref 0 in
    (try
       for i = 0 to bucket_count - 1 do
         acc := !acc + t.counts.(i);
         if !acc >= rank then begin
           bucket := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min t.max_v (upper_edge !bucket)
  end

type summary = {
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

let summarize t =
  {
    s_count = t.count;
    s_sum = t.sum;
    s_min = min_value t;
    s_max = max_value t;
    s_p50 = quantile t 0.5;
    s_p90 = quantile t 0.9;
    s_p99 = quantile t 0.99;
  }

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.count > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end
