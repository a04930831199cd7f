(** Unbounded FIFO message queue with blocking receive.

    Used for shallow work queues: the kvserve server takes its requests
    from one.  The run-time layer's helper threads, whose queue runs
    thousands of items deep, pull work from an int-only FIFO with the same
    semantics instead ([Memhog_runtime.Work_fifo]), and the releaser
    daemon's queue is int rings ([Memhog_vm.Os.release_batch]).  Receivers
    block on an {!Engine.queue};
    a message sent while one waits is handed to the longest-waiting
    receiver, never left where a later [recv] could take it first. *)

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
