(** Priority-indexed release queues (Figure 6(b)).

    Release requests with non-zero priority are stored in per-tag queues; a
    priority list indexes the queues.  When memory runs short, pages are
    drained from the {e lowest}-priority queues first, round-robin across
    queues of equal priority — retaining the pages whose reuse the compiler
    expects soonest. *)

type t

val create : unit -> t

val add : t -> tag:int -> priority:int -> vpn:int -> unit
(** Requires [priority > 0]: non-positive priorities mean "no reuse
    expected", and the runtime routes such releases to the immediate-issue
    path instead of buffering them (see {!Runtime.release_page}).

    @raise Invalid_argument if [priority <= 0], or if [tag] is reused at a
    priority different from the one its buffered pages were added with. *)

val total : t -> int
(** Buffered pages across all queues. *)

val pop_lowest : t -> max:int -> (int * int * int) array
(** Remove up to [max] pages, lowest priority first, round-robin across
    same-priority tags.  Returns [(vpn, tag, priority)] triples in drain
    order — the tag is the static directive site the page was buffered
    under, preserved so the eventual OS release stays attributable to its
    site, and the priority rides along so the tier router can key placement
    on it.  Appending a tag and retiring an emptied one are both O(1): tag
    queues at one priority form a doubly-linked list in insertion order. *)

val flush_tag : t -> tag:int -> int array
(** Remove and return every buffered page of one tag, in FIFO order
    ([ [||] ] if the tag has no buffered pages).  Used when the
    application's plans for a tagged array change wholesale — e.g. a
    re-touch invalidates the buffered releases. *)

val lowest_priority : t -> int option
