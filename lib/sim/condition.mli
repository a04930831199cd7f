(** Broadcast/signal condition, for "state changed" notifications such as
    "free memory is available again".  A named {!Engine.queue}: [wait] is
    {!Engine.wait}, [signal] {!Engine.wake_one} and [broadcast]
    {!Engine.wake_all}, which does nothing and allocates nothing when no
    process waits. *)

type t

val create : ?name:string -> unit -> t

val wait : ?cat:Account.category -> t -> unit
(** Block until the next [signal] or [broadcast]; waiting time is charged to
    [cat] (default {!Account.Resource_stall}). *)

val signal : t -> unit
(** Wake the longest-waiting process, if any. *)

val broadcast : t -> unit
(** Wake every waiting process. *)

val waiting : t -> int
