(** Unbounded FIFO message queue with blocking receive.

    Used for daemon work queues: the PagingDirected policy module posts
    release requests to the releaser daemon's mailbox; prefetch threads pull
    work from the run-time layer's queue. *)

type 'a t

val create : ?name:string -> unit -> 'a t

val send : 'a t -> 'a -> unit
(** Never blocks. *)

val recv : ?cat:Account.category -> 'a t -> 'a
(** Blocks until a message is available; the wait is charged to [cat]
    (default {!Account.Sleep}, appropriate for daemons idling). *)

val try_recv : 'a t -> 'a option
val length : 'a t -> int
val is_empty : 'a t -> bool
