(* xoshiro256**'s four 64-bit state words live unboxed in 32 bytes, read
   and written with [Bytes.get_int64_ne]/[set_int64_ne]: a draw stores no
   boxed [int64] and so allocates nothing. *)
type t = Bytes.t

(* splitmix64, used only to expand a seed into the xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i) (splitmix64 state)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: advance the state and return the step's output
   shifted right by [shift] bits, truncated to a native int.  Every draw
   but [bits64] goes through here, so the output never leaves registers. *)
let next t shift =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 in
  let s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 in
  let s3 = Bytes.get_int64_ne t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1' = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1';
  Bytes.set_int64_ne t 16 (logxor s2 (shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3 45);
  to_int (shift_right_logical result shift)

let bits64 t =
  (* The output is a function of [s1] alone, read before the step. *)
  let s1 = Bytes.get_int64_ne t 8 in
  ignore (next t 0);
  Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

let split t = create ~seed:(next t 0)
let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling: draw 61 uniform bits and retry while the draw falls
     in the short tail [limit, 2^61) that does not hold a whole number of
     [bound]-sized blocks.  Rejection probability is < bound/2^61, so for
     simulation-sized bounds the fast path is taken essentially always and
     the result is exactly uniform (plain [v mod bound] over-weights small
     residues).  61 bits, not 62: 2^62 is one past [max_int] on a 63-bit
     native int, so the 62-bit limit computation would wrap negative and
     reject every draw. *)
  let limit = 0x2000000000000000 (* 2^61 *) / bound * bound in
  let v = ref (next t 3) in
  while !v >= limit do
    v := next t 3
  done;
  !v mod bound

(* 53 bits fit a native int exactly, so converting through [int] is the
   same value [Int64.to_float] gave. *)
let float t bound =
  let v = float_of_int (next t 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

(* Bit 0 of the output survives the truncation to a native int. *)
let bool t = next t 0 land 1 = 1

let exponential t ~mean =
  if not (mean > 0.0) then invalid_arg "Rng.exponential: mean must be positive";
  (* Inverse CDF on a [0,1) uniform; log1p (-.u) never sees log 0. *)
  let u = float t 1.0 in
  -.mean *. Float.log1p (-.u)

(* Zipfian sampler over ranks 0..n-1 with weight (rank+1)^-theta, via a
   precomputed cumulative-probability table and binary search.  Building the
   table is O(n) and sampling O(log n); the table is immutable and can be
   shared across streams. *)
type zipf = { zf_cdf : float array }

let zipf_size z = Array.length z.zf_cdf

let zipf_create ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf_create: n must be positive";
  if not (theta >= 0.0) then invalid_arg "Rng.zipf_create: theta must be >= 0";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let r = float_of_int (i + 1) in
    (* theta = 1 (the classic Zipf law, and the default everywhere in this
       repo) avoids [( ** )] so the table is a pure function of IEEE
       division and addition — byte-reproducible across libm versions. *)
    let w = if theta = 1.0 then 1.0 /. r else r ** -.theta in
    acc := !acc +. w;
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  cdf.(n - 1) <- 1.0;
  { zf_cdf = cdf }

let zipf t z =
  let cdf = z.zf_cdf in
  let u = float t 1.0 in
  (* First index with cdf.(i) > u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
