(** A FIFO of fixed-width int records.

    The simulator's deep work queues carry plain ints: the helper threads'
    prefetch items and release batches ([Memhog_runtime.Work_fifo]), each
    tag's buffered releases ([Memhog_runtime.Release_buffer]) and the
    releaser daemon's pages and requests ([Memhog_vm.Os]).  A record is
    [width] ints, stored in one flat array whose capacity (in records) is a
    power of two that doubles when full; pushing, reading and dropping
    allocate nothing once the ring has grown.  Record [0] is the oldest. *)

type t

val create : width:int -> t
(** An empty ring of [width]-int records; nothing is allocated until the
    first push.  @raise Invalid_argument if [width < 1]. *)

val width : t -> int

val length : t -> int
(** Records in the ring. *)

val push1 : t -> int -> unit
(** Append a record to a ring of width 1.
    @raise Invalid_argument if the ring's width is not 1. *)

val push2 : t -> int -> int -> unit
(** Append a record to a ring of width 2.
    @raise Invalid_argument if the ring's width is not 2. *)

val push3 : t -> int -> int -> int -> unit
(** Append a record to a ring of width 3.
    @raise Invalid_argument if the ring's width is not 3. *)

val get : t -> int -> int -> int
(** [get t i col] is field [col] of record [i] (0 is the oldest).
    @raise Invalid_argument unless [0 <= i < length t] and
    [0 <= col < width t]. *)

val set : t -> int -> int -> int -> unit
(** [set t i col v] overwrites field [col] of record [i].
    @raise Invalid_argument as {!get}. *)

val drop : t -> int -> unit
(** Remove the [n] oldest records.
    @raise Invalid_argument unless [0 <= n <= length t]. *)

val truncate : t -> int -> unit
(** Keep only the [n] oldest records.
    @raise Invalid_argument unless [0 <= n <= length t]. *)

val clear : t -> unit

val transfer : src:t -> dst:t -> int -> unit
(** Move the [n] oldest records of [src] to the tail of [dst], in order.
    @raise Invalid_argument if the widths differ, [src == dst], or
    [n] is not in [0 .. length src]. *)
