(** Log-bucketed histograms with fixed bucket boundaries.

    The layout is HdrHistogram's: values [0..31] get exact unit buckets and
    each octave above that is split into 16 sub-buckets, so the recorded
    value of a bucket is within ~6% of every sample it holds.  Boundaries
    are value-independent constants, which buys two properties the derived
    metrics layer needs:

    - {e determinism}: the same samples always land in the same buckets, so
      serialized histograms are byte-stable;
    - {e mergeability}: merging two histograms is exactly the histogram of
      the concatenated samples (counts add bucket-wise).

    Values are non-negative ints — simulated-ns durations or page counts.
    The exact minimum, maximum and sum are tracked alongside the buckets, so
    [percentile t 100.0] is the true maximum and [mean] is exact. *)

type t

val create : unit -> t
val clear : t -> unit

val record : ?n:int -> t -> int -> unit
(** Record one sample ([n] occurrences of it, default 1).  Raises
    [Invalid_argument] on negative values or counts. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds [src]'s samples into [into]. *)

val count : t -> int
val sum : t -> int
val is_empty : t -> bool
val min_value : t -> int option
val max_value : t -> int option
val mean : t -> float
(** 0.0 when empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: the upper bound of the bucket
    holding the rank-[ceil (p/100 * count)] sample, clamped to the observed
    [min]/[max], so [p = 0] is the exact minimum and [p = 100] the exact
    maximum.  Monotone nondecreasing in [p]; 0 when empty. *)

(** {1 Serialization support} *)

val to_alist : t -> (int * int) list
(** Non-empty buckets as [(bucket lower bound, count)], ascending.  A
    bucket's lower bound maps back into the same bucket, so this form
    round-trips through {!restore}. *)

val restore : sum:int -> min_v:int -> max_v:int -> (int * int) list -> t
(** Rebuild a histogram from {!to_alist} output plus the exact sum, min and
    max that were serialized alongside it. *)

val equal : t -> t -> bool
(** Structural equality: same buckets, counts, sum, min and max. *)

val pp : Format.formatter -> t -> unit

(** {1 Bucket geometry (exposed for tests and exporters)} *)

val msb : int -> int
(** Position of the highest set bit of a non-negative int (0 for 0 and
    1). *)

val bucket_of : int -> int
val bucket_lo : int -> int
val bucket_hi : int -> int
