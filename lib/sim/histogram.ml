(* Log-bucketed histogram with fixed, value-independent bucket boundaries
   (HdrHistogram's layout): values 0..31 get exact buckets, and every octave
   above that is split into 16 sub-buckets, bounding relative error at ~6%.
   Because the boundaries never depend on the data, two histograms built
   from different sample partitions merge into exactly the histogram of the
   concatenated samples — the property the deterministic metrics layer
   relies on across --jobs values. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)
let half = sub_count / 2 (* 16 *)

(* Highest bucket index for a 62-bit max_int is 943; leave slack. *)
let nbuckets = 960

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int; (* max_int when empty *)
  mutable max_v : int; (* -1 when empty *)
}

let create () =
  { counts = Array.make nbuckets 0; total = 0; sum = 0; min_v = max_int; max_v = -1 }

let clear t =
  Array.fill t.counts 0 nbuckets 0;
  t.total <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- -1

let count t = t.total
let sum t = t.sum
let is_empty t = t.total = 0
let min_value t = if t.total = 0 then None else Some t.min_v
let max_value t = if t.total = 0 then None else Some t.max_v

let mean t =
  if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

(* Position of the highest set bit of [v] > 0 (0 for [v = 0]): a binary
   search over the 63 bits, halving the window six times. *)
let msb v =
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then (v := !v lsr 32; r := 32);
  if !v lsr 16 <> 0 then (v := !v lsr 16; r := !r + 16);
  if !v lsr 8 <> 0 then (v := !v lsr 8; r := !r + 8);
  if !v lsr 4 <> 0 then (v := !v lsr 4; r := !r + 4);
  if !v lsr 2 <> 0 then (v := !v lsr 2; r := !r + 2);
  if !v lsr 1 <> 0 then incr r;
  !r

let bucket_of v =
  if v < 0 then invalid_arg "Histogram.bucket_of: negative value";
  if v < sub_count then v
  else begin
    let k = msb v in
    let shift = k - (sub_bits - 1) in
    sub_count + ((k - sub_bits) * half) + ((v lsr shift) - half)
  end

let bucket_lo i =
  if i < sub_count then i
  else begin
    let j = i - sub_count in
    let octave = j / half and pos = j mod half in
    (half + pos) lsl (octave + 1)
  end

let bucket_hi i =
  if i < sub_count then i
  else begin
    let j = i - sub_count in
    let octave = j / half and pos = j mod half in
    ((half + pos + 1) lsl (octave + 1)) - 1
  end

let record ?(n = 1) t v =
  if n < 0 then invalid_arg "Histogram.record: negative count";
  if n > 0 then begin
    let i = bucket_of v in
    t.counts.(i) <- t.counts.(i) + n;
    t.total <- t.total + n;
    t.sum <- t.sum + (v * n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let merge ~into src =
  Array.iteri
    (fun i n -> if n > 0 then into.counts.(i) <- into.counts.(i) + n)
    src.counts;
  into.total <- into.total + src.total;
  into.sum <- into.sum + src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

(* The value at percentile [p] (0..100): the upper bound of the bucket
   holding the sample of rank ceil(p/100 * total), clamped to the observed
   range so percentile 0 is the exact minimum and percentile 100 the exact
   maximum.  Monotone in [p]; 0 for an empty histogram. *)
let percentile t p =
  if t.total = 0 then 0
  else if p <= 0.0 then t.min_v
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
    let rank = Int.max 1 (Int.min rank t.total) in
    let cum = ref 0 and i = ref 0 in
    while !cum < rank do
      cum := !cum + t.counts.(!i);
      if !cum < rank then incr i
    done;
    Int.min (Int.max (bucket_hi !i) t.min_v) t.max_v
  end

let to_alist t =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (bucket_lo i, t.counts.(i)) :: !acc
  done;
  !acc

let restore ~sum ~min_v ~max_v alist =
  let t = create () in
  List.iter (fun (lo, n) -> record ~n t lo) alist;
  (* The per-bucket [record] calls above put the counts into the right
     buckets (a bucket's lower bound maps back to the same bucket) but
     accumulate lower-bound approximations of sum/min/max; overwrite them
     with the exact recorded values. *)
  if t.total > 0 then begin
    t.sum <- sum;
    t.min_v <- min_v;
    t.max_v <- max_v
  end;
  t

let equal a b =
  a.total = b.total && a.sum = b.sum && a.min_v = b.min_v && a.max_v = b.max_v
  && a.counts = b.counts

let pp fmt t =
  Format.fprintf fmt
    "@[<h>count=%d sum=%d min=%s max=%s p50=%d p90=%d p99=%d@]" t.total t.sum
    (if t.total = 0 then "-" else string_of_int t.min_v)
    (if t.total = 0 then "-" else string_of_int t.max_v)
    (percentile t 50.0) (percentile t 90.0) (percentile t 99.0)
