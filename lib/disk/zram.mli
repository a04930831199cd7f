(** Compressed-RAM tier (the virtually-extended-memory approach).

    Released pages are compressed into a fixed RAM carve-out instead of
    (only) travelling to disk: storing costs CPU-speed compression time,
    loading costs decompression — both orders of magnitude below a disk
    arm.  Per-page compressibility is drawn {e deterministically} from the
    releasing directive's site id mixed with the page number (pure integer
    hashing, no RNG state), so capacity amplification is reproducible at
    any [--jobs].  Loads are exclusive: a page is either resident or
    compressed, never both.  Writes that would overflow the carve-out are
    rejected and the router degrades the demotion to disk. *)

open Memhog_sim

type params = {
  capacity_bytes : int;  (** RAM carve-out budget *)
  compress_ns_per_kb : Time_ns.t;  (** store cost per uncompressed KB *)
  decompress_ns_per_kb : Time_ns.t;  (** load cost per uncompressed KB *)
}

val default_params : params
(** 16 MB carve-out, 900 ns/KB compress, 400 ns/KB decompress. *)

type t

val create : ?params:params -> page_bytes:int -> unit -> t
(** Raises [Invalid_argument] when the carve-out is below one page. *)

val ratio : site:int -> page:int -> float
(** Deterministic per-page compressibility in [0.15, 0.90] (compressed
    fraction of the page). *)

val read_page :
  ?cat:Account.category -> ?background:bool -> t -> page:int ->
  Backend.read_result
(** [R_failed] when the page is not stored; otherwise decompresses,
    consumes the entry and returns [R_ok 1]. *)

val write_page :
  ?cat:Account.category -> ?background:bool -> ?site:int -> t -> page:int ->
  Backend.write_result
(** [W_rejected] when the compressed page would overflow the carve-out. *)

val contains : t -> page:int -> bool

val drop : t -> page:int -> unit
(** Discard a stored page without decompressing it (free: the copy is
    stale, not wanted).  No-op when the page is absent. *)

val stats : t -> Backend.stats
val stored_pages : t -> int
val capacity_bytes : t -> int

val amplification : t -> float
(** Uncompressed bytes held per carve-out byte consumed (1.0 when empty). *)

val as_backend : t -> Backend.t
(** The tier behind the uniform {!Backend} interface (name ["zram"]). *)
