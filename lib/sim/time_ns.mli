(** Simulated time, in integer nanoseconds.

    All simulation timestamps and durations in this project are expressed as
    [Time_ns.t].  Using a plain [int] (63-bit on 64-bit platforms) gives a
    range of roughly 292 years, far beyond any simulated experiment. *)

type t = int

val zero : t

(** Constructors from coarser units. *)

val ns : int -> t
val us : int -> t
val ms : int -> t
val sec : int -> t
val of_sec_f : float -> t

val to_sec_f : t -> float
(** Conversion to floating-point seconds. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)

val to_string : t -> string
