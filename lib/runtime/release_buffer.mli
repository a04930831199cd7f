(** Priority-indexed release queues (Figure 6(b)).

    Release requests with non-zero priority are stored in per-tag queues; a
    priority list indexes the queues.  When memory runs short, pages are
    drained from the {e lowest}-priority queues first, round-robin across
    queues of equal priority — retaining the pages whose reuse the compiler
    expects soonest.

    Everything is plain ints.  Tags are dense non-negative directive site
    ids, so per-tag state lives in tag-indexed arrays: each tag's pages
    wait in an int ring, and the tags at one priority are linked in
    insertion order through int arrays.  The priority levels are a small
    sorted int array.  Once these have grown, adding and popping allocate
    nothing. *)

type t

val create : unit -> t

val add : t -> tag:int -> priority:int -> vpn:int -> unit
(** Requires [priority > 0]: non-positive priorities mean "no reuse
    expected", and the runtime routes such releases to the immediate-issue
    path instead of buffering them (see {!Runtime.release_page}).

    @raise Invalid_argument if [priority <= 0], if [tag < 0], or if [tag]
    is reused at a priority different from the one its buffered pages were
    added with. *)

val total : t -> int
(** Buffered pages across all queues. *)

val pop_lowest : t -> max:int -> Memhog_sim.Int_ring.t -> unit
(** Move up to [max] pages, lowest priority first, round-robin across
    same-priority tags, to the tail of the given width-3 ring as
    (vpn, tag, priority) records in drain order.  The tag is the static
    directive site the page was buffered under, preserved so the eventual
    OS release stays attributable to its site, and the priority rides along
    so the tier router can key placement on it.  A tag whose last page
    leaves is forgotten: it may come back at another priority.
    @raise Invalid_argument if the ring's width is not 3. *)
