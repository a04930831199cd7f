(** Write-once synchronization cell ("future"), used e.g. to join on the
    completion of another simulated process.  Readers that come before the
    value block on an {!Engine.queue}; [fill] wakes them all. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Raises [Invalid_argument] if already filled. *)

val is_filled : 'a t -> bool
val peek : 'a t -> 'a option

val read : ?cat:Account.category -> 'a t -> 'a
(** Block until filled (default charge: {!Account.Resource_stall}). *)
