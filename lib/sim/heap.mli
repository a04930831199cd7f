(** Binary min-heap keyed by [(primary, sequence)] integer pairs.

    The event queue of the simulation engine needs a priority queue ordered
    first by timestamp and second by insertion sequence, so that events
    scheduled for the same instant fire in FIFO order and runs are fully
    deterministic.

    Keys, sequence numbers and slot numbers are stored in flat int arrays,
    so a sift compares and moves ints only: no pointer chasing, and no
    write barrier per level.  Payloads live in a slot table beside them: a
    plain array seeded with a caller-supplied [dummy], written once when an
    entry is added and reset to [dummy] when it is popped, wherever the
    entry moves in between.  So [add] and [pop] allocate nothing on the hot
    path, and the heap never retains a reference to an already-delivered
    payload (a pinned closure can keep a whole simulation's state alive). *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] is a placeholder payload used to fill empty slots; it is never
    returned by [pop]/[pop_min]. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val add : 'a t -> key:int -> seq:int -> 'a -> unit

val min_key : 'a t -> int
(** Smallest primary key. @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a
(** Remove and return the payload with the smallest [(key, seq)] without
    boxing the key pair. @raise Invalid_argument on an empty heap. *)

val pop_min : 'a t -> (int * int * 'a) option
(** Remove and return the entry with the smallest [(key, seq)]. *)

val clear : 'a t -> unit
(** Empty the heap, dropping every stored payload reference. *)
